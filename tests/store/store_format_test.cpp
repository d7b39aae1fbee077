// Shard and manifest format tests: round-trips, the prefix index, and a
// fuzz-ish battery of corrupted inputs that must all raise ParseError.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dedukt/kmer/kmer.hpp"
#include "dedukt/store/manifest.hpp"
#include "dedukt/store/shard.hpp"
#include "dedukt/util/error.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::store {
namespace {

using test_support::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ShardFile sample_shard() {
  // k=5: prefix covers 4 bases, so keys sharing the first four bases share
  // a bucket. Sorted and unique by construction.
  return make_shard({{0x001, 2}, {0x003, 7}, {0x0F2, 1}, {0x3FF, 42}}, 5,
                    io::BaseEncoding::kStandard);
}

TEST(ShardFormatTest, PrefixIndexBoundsEveryBucket) {
  const ShardFile shard = sample_shard();
  const int shift = shard_prefix_shift(5);
  ASSERT_EQ(shard.index.size(), shard_fanout(5) + 1);
  EXPECT_EQ(shard.index.front(), 0u);
  EXPECT_EQ(shard.index.back(), shard.entries());
  for (std::size_t i = 0; i < shard.keys.size(); ++i) {
    const std::uint64_t bucket = shard.keys[i] >> shift;
    EXPECT_GE(i, shard.index[bucket]);
    EXPECT_LT(i, shard.index[bucket + 1]);
  }
}

TEST(ShardFormatTest, EmptyShardHasAllZeroIndex) {
  const ShardFile shard = make_shard({}, 7, io::BaseEncoding::kRandomized);
  EXPECT_EQ(shard.entries(), 0u);
  for (const std::uint64_t offset : shard.index) EXPECT_EQ(offset, 0u);
}

TEST(ShardFormatTest, RoundTrip) {
  const ShardFile original = sample_shard();
  const std::string path = temp_path("shard_roundtrip.dksh");
  write_shard_file(path, original);
  const ShardFile loaded = read_shard_file(path);
  EXPECT_EQ(loaded.k, original.k);
  EXPECT_EQ(loaded.encoding, original.encoding);
  EXPECT_EQ(loaded.keys, original.keys);
  EXPECT_EQ(loaded.counts, original.counts);
  EXPECT_EQ(loaded.index, original.index);
  EXPECT_EQ(loaded.file_bytes(), slurp(path).size());
}

TEST(ShardFormatTest, TruncationAtEveryOffsetRejected) {
  const std::string path = temp_path("shard_truncated.dksh");
  write_shard_file(path, sample_shard());
  const std::string bytes = slurp(path);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    spit(path, bytes.substr(0, len));
    EXPECT_THROW(read_shard_file(path), ParseError) << "at length " << len;
  }
}

TEST(ShardFormatTest, TrailingBytesRejected) {
  const std::string path = temp_path("shard_trailing.dksh");
  write_shard_file(path, sample_shard());
  spit(path, slurp(path) + "x");
  EXPECT_THROW(read_shard_file(path), ParseError);
}

TEST(ShardFormatTest, BadMagicRejected) {
  const std::string path = temp_path("shard_magic.dksh");
  write_shard_file(path, sample_shard());
  std::string bytes = slurp(path);
  bytes[0] = 'X';
  spit(path, bytes);
  EXPECT_THROW(read_shard_file(path), ParseError);
}

TEST(ShardFormatTest, GarbageEntryCountIsTypedErrorNotBadAlloc) {
  const std::string path = temp_path("shard_huge.dksh");
  write_shard_file(path, sample_shard());
  std::string bytes = slurp(path);
  // entries u64 sits after magic(4) + 4 u32 header fields.
  const std::uint64_t huge = ~0ull;
  std::memcpy(bytes.data() + 4 + 4 * 4, &huge, sizeof(huge));
  spit(path, bytes);
  EXPECT_THROW(read_shard_file(path), ParseError);
}

TEST(ShardFormatTest, EveryFlippedByteFailsTypedOrRoundTrips) {
  // Fuzz-ish sweep: flipping any single byte must either raise ParseError
  // or leave a file that still parses (a count byte, say) — never crash,
  // never a non-typed exception.
  const std::string path = temp_path("shard_fuzz.dksh");
  write_shard_file(path, sample_shard());
  const std::string bytes = slurp(path);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    spit(path, mutated);
    try {
      (void)read_shard_file(path);
    } catch (const ParseError&) {
      // typed rejection is the expected outcome for most positions
    }
  }
}

TEST(ShardFormatTest, UnsortedKeysRejectedOnWriteAndRead) {
  EXPECT_THROW(
      make_shard({{5, 1}, {3, 1}}, 5, io::BaseEncoding::kStandard),
      PreconditionError);
  // Hand-craft sorted file, then swap two keys on disk.
  const std::string path = temp_path("shard_unsorted.dksh");
  write_shard_file(path, sample_shard());
  std::string bytes = slurp(path);
  const std::size_t keys_at =
      4 + 4 * 4 + 8 + (shard_fanout(5) + 1) * 8;  // header + index
  std::uint64_t k0 = 0, k1 = 0;
  std::memcpy(&k0, bytes.data() + keys_at, 8);
  std::memcpy(&k1, bytes.data() + keys_at + 8, 8);
  std::memcpy(bytes.data() + keys_at, &k1, 8);
  std::memcpy(bytes.data() + keys_at + 8, &k0, 8);
  spit(path, bytes);
  EXPECT_THROW(read_shard_file(path), ParseError);
}

TEST(ShardFormatTest, ZeroCountRejected) {
  EXPECT_THROW(make_shard({{1, 0}}, 5, io::BaseEncoding::kStandard),
               PreconditionError);
  const std::string path = temp_path("shard_zero.dksh");
  write_shard_file(path, sample_shard());
  std::string bytes = slurp(path);
  const std::uint64_t zero = 0;
  std::memcpy(bytes.data() + bytes.size() - 8, &zero, 8);  // last count
  spit(path, bytes);
  EXPECT_THROW(read_shard_file(path), ParseError);
}

TEST(ShardFormatTest, KeyWiderThanKRejected) {
  EXPECT_THROW(make_shard({{kmer::code_mask(5) + 1, 1}}, 5,
                          io::BaseEncoding::kStandard),
               PreconditionError);
}

Manifest sample_manifest(RoutingMode mode) {
  Manifest manifest;
  manifest.k = 17;
  manifest.encoding = io::BaseEncoding::kRandomized;
  switch (mode) {
    case RoutingMode::kKmerHash:
      manifest.routing = StoreRouting::kmer_hash(4, 17);
      break;
    case RoutingMode::kMinimizerHash:
      manifest.routing = StoreRouting::minimizer_hash(
          4, 17, 7, kmer::MinimizerOrder::kRandomized);
      break;
    case RoutingMode::kAssignmentTable: {
      std::vector<std::uint32_t> table(256);
      for (std::size_t b = 0; b < table.size(); ++b) {
        table[b] = static_cast<std::uint32_t>(b % 4);
      }
      manifest.routing = StoreRouting::assignment_table(
          std::move(table), 4, 17, 7, kmer::MinimizerOrder::kKmc2);
      break;
    }
  }
  manifest.shards = {{10, 100, 5000}, {0, 0, 72}, {3, 9, 400}, {7, 7, 900}};
  return manifest;
}

class ManifestRoundTripTest
    : public testing::TestWithParam<RoutingMode> {};

TEST_P(ManifestRoundTripTest, RoundTrip) {
  const Manifest original = sample_manifest(GetParam());
  const std::string path = temp_path("manifest_roundtrip.dksm");
  write_manifest_file(path, original);
  const Manifest loaded = read_manifest_file(path);
  EXPECT_EQ(loaded.k, original.k);
  EXPECT_EQ(loaded.encoding, original.encoding);
  EXPECT_EQ(loaded.routing.mode(), original.routing.mode());
  EXPECT_EQ(loaded.routing.shards(), original.routing.shards());
  EXPECT_EQ(loaded.routing.m(), original.routing.m());
  EXPECT_EQ(loaded.routing.order(), original.routing.order());
  EXPECT_EQ(loaded.routing.bucket_table(),
            original.routing.bucket_table());
  EXPECT_EQ(loaded.shards, original.shards);
  EXPECT_EQ(loaded.total_entries(), original.total_entries());
  EXPECT_EQ(loaded.total_count(), original.total_count());
}

INSTANTIATE_TEST_SUITE_P(AllRoutingModes, ManifestRoundTripTest,
                         testing::Values(RoutingMode::kKmerHash,
                                         RoutingMode::kMinimizerHash,
                                         RoutingMode::kAssignmentTable));

TEST(ManifestFormatTest, TruncationAtEveryOffsetRejected) {
  const std::string path = temp_path("manifest_truncated.dksm");
  write_manifest_file(path, sample_manifest(RoutingMode::kAssignmentTable));
  const std::string bytes = slurp(path);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    spit(path, bytes.substr(0, len));
    EXPECT_THROW(read_manifest_file(path), ParseError)
        << "at length " << len;
  }
}

TEST(ManifestFormatTest, TrailingBytesRejected) {
  const std::string path = temp_path("manifest_trailing.dksm");
  write_manifest_file(path, sample_manifest(RoutingMode::kKmerHash));
  spit(path, slurp(path) + std::string(1, '\0'));
  EXPECT_THROW(read_manifest_file(path), ParseError);
}

TEST(ManifestFormatTest, BadRoutingModeRejected) {
  const std::string path = temp_path("manifest_mode.dksm");
  write_manifest_file(path, sample_manifest(RoutingMode::kKmerHash));
  std::string bytes = slurp(path);
  const std::uint32_t bad = 99;
  std::memcpy(bytes.data() + 4 + 3 * 4, &bad, sizeof(bad));  // mode field
  spit(path, bytes);
  EXPECT_THROW(read_manifest_file(path), ParseError);
}

TEST(ManifestFormatTest, BucketTableEntryOutOfRangeRejected) {
  const std::string path = temp_path("manifest_bucket.dksm");
  write_manifest_file(path, sample_manifest(RoutingMode::kAssignmentTable));
  std::string bytes = slurp(path);
  const std::uint32_t bad = 4;  // == shards, one past the last valid rank
  std::memcpy(bytes.data() + 4 + 8 * 4, &bad, sizeof(bad));  // table[0]
  spit(path, bytes);
  EXPECT_THROW(read_manifest_file(path), ParseError);
}

TEST(ManifestFormatTest, ShardFilenamesAreFixedWidth) {
  EXPECT_EQ(shard_filename(0), "shard_0000.dksh");
  EXPECT_EQ(shard_filename(42), "shard_0042.dksh");
  EXPECT_EQ(shard_filename(10000), "shard_10000.dksh");
}

}  // namespace
}  // namespace dedukt::store
