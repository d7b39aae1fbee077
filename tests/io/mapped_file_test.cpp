// MappedFile tests: the zero-copy view is byte-identical to a stream read,
// and the shard readers behave identically — same parsed image, same
// ParseError surface — whether they go through the mapping or the stream
// fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dedukt/io/dna.hpp"
#include "dedukt/io/mapped_file.hpp"
#include "dedukt/store/shard.hpp"
#include "dedukt/util/error.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::io {
namespace {

using test_support::fresh_dir;

std::vector<std::byte> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    bytes[i] = static_cast<std::byte>(raw[i]);
  }
  return bytes;
}

/// A small but nontrivial shard file to read back through both paths.
std::string write_test_shard(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  for (std::uint64_t i = 0; i < 257; ++i) {
    entries.emplace_back(i * 37 + 5, (i % 9) + 1);
  }
  const store::ShardFile shard =
      store::make_shard(entries, /*k=*/17, BaseEncoding::kRandomized);
  const std::string path = dir + "/shard.dksh";
  store::write_shard_file(path, shard);
  return path;
}

TEST(MappedFileTest, ViewMatchesStreamReadByteForByte) {
  ASSERT_TRUE(MappedFile::supported());  // POSIX CI; the gate is for ports
  const std::string dir = fresh_dir("mapped_file_bytes");
  const std::string path = write_test_shard(dir);
  const std::vector<std::byte> expected = slurp(path);
  ASSERT_FALSE(expected.empty());

  const MappedFile mapped = MappedFile::open(path);
  ASSERT_EQ(mapped.size(), expected.size());
  const std::span<const std::byte> view = mapped.bytes();
  EXPECT_TRUE(std::equal(view.begin(), view.end(), expected.begin()));
  EXPECT_EQ(mapped.path(), path);
}

TEST(MappedFileTest, MissingFileThrowsAndTryOpenReturnsNullopt) {
  const std::string path =
      fresh_dir("mapped_file_missing") + "/does_not_exist";
  EXPECT_THROW((void)MappedFile::open(path), ParseError);
  EXPECT_FALSE(MappedFile::try_open(path).has_value());
}

TEST(MappedFileTest, EmptyFileMapsToEmptyView) {
  const std::string path = fresh_dir("mapped_file_empty") + "/empty";
  std::ofstream(path).close();
  const MappedFile mapped = MappedFile::open(path);
  EXPECT_EQ(mapped.size(), 0u);
  EXPECT_TRUE(mapped.bytes().empty());
}

TEST(MappedFileTest, MoveTransfersTheMapping) {
  const std::string dir = fresh_dir("mapped_file_move");
  const std::string path = write_test_shard(dir);
  MappedFile a = MappedFile::open(path);
  const std::size_t size = a.size();
  ASSERT_GT(size, 0u);
  const MappedFile b = std::move(a);
  EXPECT_EQ(b.size(), size);
  EXPECT_EQ(a.size(), 0u);       // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.bytes().empty());
}

TEST(MappedFileTest, ShardReadersIdenticalAcrossMappedAndStreamPaths) {
  const std::string dir = fresh_dir("mapped_file_shard");
  const std::string path = write_test_shard(dir);

  const store::ShardFile mapped = store::read_shard_file(path);
  const store::ShardFile streamed = store::read_shard_file_stream(path);
  EXPECT_EQ(mapped.k, streamed.k);
  EXPECT_EQ(mapped.encoding, streamed.encoding);
  EXPECT_EQ(mapped.keys, streamed.keys);
  EXPECT_EQ(mapped.counts, streamed.counts);
  EXPECT_EQ(mapped.index, streamed.index);
  EXPECT_EQ(mapped.entries(), 257u);
}

TEST(MappedFileTest, TruncationRejectedOnBothReaderPaths) {
  const std::string dir = fresh_dir("mapped_file_truncated");
  const std::string full = write_test_shard(dir);
  const std::vector<std::byte> bytes = slurp(full);

  // Chop at several depths: inside the header, inside the index, inside
  // the key array, and one byte short of complete.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{16}, std::size_t{40}, bytes.size() / 2,
        bytes.size() - 1}) {
    const std::string path = dir + "/trunc_" + std::to_string(keep);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_THROW((void)store::read_shard_file(path), ParseError)
        << "keep=" << keep;
    EXPECT_THROW((void)store::read_shard_file_stream(path), ParseError)
        << "keep=" << keep;
  }
}

TEST(MappedFileTest, TrailingGarbageRejectedOnBothReaderPaths) {
  const std::string dir = fresh_dir("mapped_file_trailing");
  const std::string full = write_test_shard(dir);
  std::vector<std::byte> bytes = slurp(full);
  bytes.push_back(std::byte{0x5A});
  const std::string path = dir + "/trailing.dksh";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW((void)store::read_shard_file(path), ParseError);
  EXPECT_THROW((void)store::read_shard_file_stream(path), ParseError);
}

TEST(MappedFileTest, BadMagicRejectedOnBothReaderPaths) {
  const std::string dir = fresh_dir("mapped_file_magic");
  const std::string full = write_test_shard(dir);
  std::vector<std::byte> bytes = slurp(full);
  bytes[0] = std::byte{'X'};
  const std::string path = dir + "/magic.dksh";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW((void)store::read_shard_file(path), ParseError);
  EXPECT_THROW((void)store::read_shard_file_stream(path), ParseError);
}

}  // namespace
}  // namespace dedukt::io
