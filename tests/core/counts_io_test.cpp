#include "dedukt/core/counts_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/util/error.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::core {
namespace {

CountsFile sample_file() {
  CountsFile file;
  file.k = 5;
  file.encoding = io::BaseEncoding::kStandard;
  file.counts = {{kmer::pack("AACGT", file.encoding), 3},
                 {kmer::pack("CCCCC", file.encoding), 1},
                 {kmer::pack("TGCAT", file.encoding), 42}};
  return file;
}

TEST(CountsBinaryTest, RoundTrip) {
  const CountsFile original = sample_file();
  std::stringstream buffer;
  write_counts_binary(buffer, original);
  const CountsFile loaded = read_counts_binary(buffer);
  EXPECT_EQ(loaded.k, original.k);
  EXPECT_EQ(loaded.encoding, original.encoding);
  EXPECT_EQ(loaded.counts, original.counts);
}

TEST(CountsBinaryTest, RandomizedEncodingPreserved) {
  CountsFile file;
  file.k = 4;
  file.encoding = io::BaseEncoding::kRandomized;
  file.counts = {{kmer::pack("ACGT", file.encoding), 7}};
  std::stringstream buffer;
  write_counts_binary(buffer, file);
  const CountsFile loaded = read_counts_binary(buffer);
  EXPECT_EQ(loaded.encoding, io::BaseEncoding::kRandomized);
  EXPECT_EQ(kmer::unpack(loaded.counts[0].first, 4, loaded.encoding),
            "ACGT");
}

TEST(CountsBinaryTest, BadMagicRejected) {
  std::stringstream buffer("NOPExxxxxxxxxxxxxxxx");
  EXPECT_THROW(read_counts_binary(buffer), ParseError);
}

TEST(CountsBinaryTest, TruncationRejected) {
  const CountsFile original = sample_file();
  std::stringstream buffer;
  write_counts_binary(buffer, original);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - 5);
  std::stringstream truncated(bytes);
  EXPECT_THROW(read_counts_binary(truncated), ParseError);
}

TEST(CountsBinaryTest, BadKRejected) {
  CountsFile file = sample_file();
  file.k = 99;
  std::stringstream buffer;
  EXPECT_THROW(write_counts_binary(buffer, file), PreconditionError);
}

TEST(CountsBinaryTest, TruncationAtEveryOffsetRejected) {
  std::stringstream buffer;
  write_counts_binary(buffer, sample_file());
  const std::string bytes = buffer.str();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream truncated(bytes.substr(0, len));
    EXPECT_THROW(read_counts_binary(truncated), ParseError)
        << "at length " << len;
  }
}

TEST(CountsBinaryTest, GarbageEntryCountIsTypedErrorNotBadAlloc) {
  std::stringstream buffer;
  write_counts_binary(buffer, sample_file());
  std::string bytes = buffer.str();
  // entries u64 sits after magic(4) + version/k/encoding u32s.
  const std::uint64_t huge = ~0ull;
  std::memcpy(bytes.data() + 4 + 3 * 4, &huge, sizeof(huge));
  std::stringstream corrupt(bytes);
  EXPECT_THROW(read_counts_binary(corrupt), ParseError);
}

TEST(CountsBinaryTest, KeyWiderThanKRejected) {
  std::stringstream buffer;
  write_counts_binary(buffer, sample_file());
  std::string bytes = buffer.str();
  const std::uint64_t wide = kmer::code_mask(5) + 1;  // 2k+2 bits for k=5
  std::memcpy(bytes.data() + 4 + 3 * 4 + 8, &wide, sizeof(wide));
  std::stringstream corrupt(bytes);
  EXPECT_THROW(read_counts_binary(corrupt), ParseError);
}

TEST(CountsBinaryTest, ZeroCountRejected) {
  std::stringstream buffer;
  write_counts_binary(buffer, sample_file());
  std::string bytes = buffer.str();
  const std::uint64_t zero = 0;
  std::memcpy(bytes.data() + bytes.size() - 8, &zero, sizeof(zero));
  std::stringstream corrupt(bytes);
  EXPECT_THROW(read_counts_binary(corrupt), ParseError);
}

TEST(CountsBinaryTest, NonIncreasingKeysRejected) {
  CountsFile file = sample_file();
  std::swap(file.counts[0], file.counts[1]);  // unsorted on disk
  std::stringstream buffer;
  write_counts_binary(buffer, file);
  EXPECT_THROW(read_counts_binary(buffer), ParseError);

  CountsFile dup = sample_file();
  dup.counts[1] = dup.counts[0];  // duplicate key
  std::stringstream dup_buffer;
  write_counts_binary(dup_buffer, dup);
  EXPECT_THROW(read_counts_binary(dup_buffer), ParseError);
}

TEST(CountsBinaryTest, EveryFlippedByteFailsTypedOrRoundTrips) {
  // Fuzz-ish sweep: any single corrupted byte must either parse (count
  // bytes, say) or raise ParseError — never crash or escape untyped.
  std::stringstream buffer;
  write_counts_binary(buffer, sample_file());
  const std::string bytes = buffer.str();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    std::stringstream in(mutated);
    try {
      (void)read_counts_binary(in);
    } catch (const ParseError&) {
      // typed rejection is the expected outcome for most positions
    }
  }
}

TEST(CountsBinaryTest, PayloadLongerThanOneBlock) {
  // The payload moves in blocks of 4096 entries: a three-block file round
  // trips, every cut around a block's edge is a truncation, and of two
  // faults in one block the first in file order is the one reported.
  CountsFile file;
  file.k = 15;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    file.counts.emplace_back(3 * i + 1, i % 7 + 1);
  }
  std::stringstream buffer;
  write_counts_binary(buffer, file);
  const std::string bytes = buffer.str();
  constexpr std::size_t kHeader = 4 + 3 * 4 + 8;
  ASSERT_EQ(bytes.size(), kHeader + 16 * file.counts.size());
  std::stringstream whole(bytes);
  EXPECT_EQ(read_counts_binary(whole).counts, file.counts);

  for (const std::size_t entries : {4095u, 4096u, 4097u, 8192u, 9999u}) {
    for (const std::size_t extra : {0u, 8u, 15u}) {
      std::stringstream truncated(
          bytes.substr(0, kHeader + 16 * entries + extra));
      try {
        (void)read_counts_binary(truncated);
        ADD_FAILURE() << entries << " entries and " << extra << " bytes";
      } catch (const ParseError& e) {
        EXPECT_STREQ(e.what(), "truncated counts file (u64)");
      }
    }
  }

  std::string corrupt = bytes.substr(0, kHeader + 16 * 6000 + 8);
  const std::uint64_t zero = 0;
  std::memcpy(corrupt.data() + kHeader + 16 * 5000 + 8, &zero, sizeof(zero));
  std::stringstream in(corrupt);
  try {
    (void)read_counts_binary(in);
    ADD_FAILURE() << "a zero count and a truncation both passed";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "counts file entry with zero count");
  }
}

TEST(CountsIoTest, TrailingBytesInFileRejected) {
  const std::string path = test_support::temp_path("dedukt_trailing.bin");
  write_counts_binary_file(path, sample_file());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("x", 1);
  }
  EXPECT_THROW(read_counts_binary_file(path), ParseError);
}

TEST(CountsTsvTest, RoundTrip) {
  const CountsFile original = sample_file();
  std::stringstream buffer;
  write_counts_tsv(buffer, original);
  const CountsFile loaded = read_counts_tsv(buffer, original.encoding);
  EXPECT_EQ(loaded.k, original.k);
  EXPECT_EQ(loaded.counts, original.counts);
}

TEST(CountsTsvTest, HumanReadableRows) {
  std::stringstream buffer;
  write_counts_tsv(buffer, sample_file());
  EXPECT_NE(buffer.str().find("AACGT\t3"), std::string::npos);
  EXPECT_NE(buffer.str().find("TGCAT\t42"), std::string::npos);
}

TEST(CountsTsvTest, MixedLengthsRejected) {
  std::stringstream buffer("ACG\t1\nACGT\t2\n");
  EXPECT_THROW(read_counts_tsv(buffer, io::BaseEncoding::kStandard),
               ParseError);
}

TEST(CountsTsvTest, MissingTabRejected) {
  std::stringstream buffer("ACGT 7\n");
  EXPECT_THROW(read_counts_tsv(buffer, io::BaseEncoding::kStandard),
               ParseError);
}

TEST(CountsTsvTest, MalformedCountFieldsRejected) {
  const std::vector<std::string> bad_rows = {
      "ACGT\t\n",                      // empty count
      "ACGT\t7x\n",                    // trailing garbage
      "ACGT\t-1\n",                    // sign not allowed
      "ACGT\t+3\n",                    // sign not allowed
      "ACGT\t 7\n",                    // interior whitespace
      "ACGT\t0\n",                     // zero count
      "ACGT\t18446744073709551616\n",  // UINT64_MAX + 1 overflows
      "ACGT\t99999999999999999999999999\n",
  };
  for (const std::string& row : bad_rows) {
    std::stringstream buffer(row);
    EXPECT_THROW(read_counts_tsv(buffer, io::BaseEncoding::kStandard),
                 ParseError)
        << "row: " << row;
  }
}

TEST(CountsTsvTest, OverlongKmerRejected) {
  std::stringstream buffer(std::string(40, 'A') + "\t1\n");
  EXPECT_THROW(read_counts_tsv(buffer, io::BaseEncoding::kStandard),
               ParseError);
}

TEST(CountsTsvTest, CrlfRowsAccepted) {
  std::stringstream buffer("ACGT\t7\r\nCGTA\t2\r\n");
  const CountsFile loaded =
      read_counts_tsv(buffer, io::BaseEncoding::kStandard);
  ASSERT_EQ(loaded.counts.size(), 2u);
  EXPECT_EQ(loaded.counts[0].second, 7u);
  EXPECT_EQ(loaded.counts[1].second, 2u);
}

TEST(CountsTsvTest, Uint64MaxCountAccepted) {
  std::stringstream buffer("ACGT\t18446744073709551615\n");
  const CountsFile loaded =
      read_counts_tsv(buffer, io::BaseEncoding::kStandard);
  ASSERT_EQ(loaded.counts.size(), 1u);
  EXPECT_EQ(loaded.counts[0].second, UINT64_MAX);
}

TEST(CountsIoTest, PipelineResultRoundTripsThroughDisk) {
  io::GenomeSpec gspec;
  gspec.length = 5'000;
  gspec.seed = 13;
  io::ReadSpec rspec;
  rspec.coverage = 3.0;
  rspec.mean_read_length = 400;
  rspec.min_read_length = 80;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);

  DriverOptions options;
  options.nranks = 4;
  const CountResult result = run_distributed_count(reads, options);

  CountsFile file;
  file.k = options.pipeline.k;
  file.encoding = options.pipeline.encoding();
  file.counts = result.global_counts;

  const std::string path = test_support::temp_path("dedukt_counts.bin");
  write_counts_binary_file(path, file);
  const CountsFile loaded = read_counts_binary_file(path);
  EXPECT_EQ(loaded.counts, result.global_counts);
  EXPECT_EQ(loaded.k, 17);
}

TEST(CountsIoTest, MissingFileThrows) {
  EXPECT_THROW(read_counts_binary_file("/nonexistent/counts.bin"),
               ParseError);
}

}  // namespace
}  // namespace dedukt::core
