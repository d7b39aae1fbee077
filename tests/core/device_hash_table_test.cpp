#include "dedukt/core/device_hash_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "dedukt/kmer/supermer.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/rng.hpp"
#include "support/kernel_runner.hpp"

namespace dedukt::core {
namespace {

using test_support::upload;

/// The table's (key, count) pairs, read out into an empty host table.
std::map<std::uint64_t, std::uint64_t> read_out(DeviceHashTable& table) {
  HostHashTable host;
  std::move(table).read_out(host);
  std::map<std::uint64_t, std::uint64_t> entries;
  host.for_each([&](std::uint64_t key, std::uint64_t count) {
    entries[key] = count;
  });
  return entries;
}

TEST(DeviceHashTableTest, CountsKmersExactly) {
  gpusim::Device device;
  std::vector<std::uint64_t> kmers = {5, 5, 9, 5, 12, 9};
  auto d_kmers = device.alloc<std::uint64_t>(kmers.size());
  device.copy_to_device<std::uint64_t>(kmers, d_kmers);

  DeviceHashTable table(device, kmers.size());
  table.count_kmers(d_kmers, kmers.size());

  EXPECT_EQ(table.unique(), 3u);
  EXPECT_EQ(table.total(), 6u);
  std::map<std::uint64_t, std::uint64_t> entries = read_out(table);
  EXPECT_EQ(entries[5], 3u);
  EXPECT_EQ(entries[9], 2u);
  EXPECT_EQ(entries[12], 1u);
}

TEST(DeviceHashTableTest, MatchesOracleUnderRandomWorkload) {
  gpusim::Device device;
  Xoshiro256 rng(66);
  std::vector<std::uint64_t> kmers;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.below(3'000);
    kmers.push_back(key);
    ++oracle[key];
  }
  auto d_kmers = device.alloc<std::uint64_t>(kmers.size());
  device.copy_to_device<std::uint64_t>(kmers, d_kmers);

  DeviceHashTable table(device, oracle.size());
  table.count_kmers(d_kmers, kmers.size());

  EXPECT_EQ(table.unique(), oracle.size());
  for (const auto& [key, count] : read_out(table)) {
    ASSERT_EQ(count, oracle.at(key));
  }
}

TEST(DeviceHashTableTest, CountsFromSupermers) {
  gpusim::Device device;
  // Supermer "ACGTA" with k=3 carries ACG, CGT, GTA.
  const kmer::KmerCode bases =
      kmer::pack("ACGTA", io::BaseEncoding::kStandard);
  std::vector<std::uint64_t> words = {bases, bases};
  std::vector<std::uint8_t> lens = {5, 5};
  auto d_words = device.alloc<std::uint64_t>(2);
  auto d_lens = device.alloc<std::uint8_t>(2);
  device.copy_to_device<std::uint64_t>(words, d_words);
  device.copy_to_device<std::uint8_t>(lens, d_lens);

  DeviceHashTable table(device, 6);
  table.count_supermers(d_words, d_lens, 2, /*k=*/3);

  EXPECT_EQ(table.unique(), 3u);
  EXPECT_EQ(table.total(), 6u);
  std::map<std::uint64_t, std::uint64_t> entries = read_out(table);
  EXPECT_EQ(entries[kmer::pack("ACG", io::BaseEncoding::kStandard)], 2u);
  EXPECT_EQ(entries[kmer::pack("CGT", io::BaseEncoding::kStandard)], 2u);
  EXPECT_EQ(entries[kmer::pack("GTA", io::BaseEncoding::kStandard)], 2u);
}

TEST(DeviceHashTableTest, SupermerAndKmerPathsAgree) {
  gpusim::Device device;
  Xoshiro256 rng(67);
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  constexpr int kK = 7;

  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> lens;
  std::vector<std::uint64_t> flat_kmers;
  for (int i = 0; i < 500; ++i) {
    const int len = kK + static_cast<int>(rng.below(10));
    std::string seq;
    for (int j = 0; j < len; ++j) seq.push_back(kBases[rng.below(4)]);
    words.push_back(kmer::pack(seq, io::BaseEncoding::kStandard));
    lens.push_back(static_cast<std::uint8_t>(len));
    for (const auto code :
         kmer::extract_kmers(seq, kK, io::BaseEncoding::kStandard)) {
      flat_kmers.push_back(code);
    }
  }

  auto d_words = device.alloc<std::uint64_t>(words.size());
  auto d_lens = device.alloc<std::uint8_t>(lens.size());
  auto d_kmers = device.alloc<std::uint64_t>(flat_kmers.size());
  device.copy_to_device<std::uint64_t>(words, d_words);
  device.copy_to_device<std::uint8_t>(lens, d_lens);
  device.copy_to_device<std::uint64_t>(flat_kmers, d_kmers);

  DeviceHashTable by_supermer(device, flat_kmers.size());
  by_supermer.count_supermers(d_words, d_lens, words.size(), kK);
  DeviceHashTable by_kmer(device, flat_kmers.size());
  by_kmer.count_kmers(d_kmers, flat_kmers.size());

  EXPECT_EQ(read_out(by_supermer), read_out(by_kmer));
}

TEST(DeviceHashTableTest, CapacityIsPowerOfTwoWithHeadroom) {
  gpusim::Device device;
  DeviceHashTable table(device, 1000, 2.0);
  EXPECT_GE(table.capacity(), 2000u);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
}

TEST(DeviceHashTableTest, HighLoadFactorStillCorrect) {
  // Headroom 1.0 allows the table to run essentially full.
  gpusim::Device device;
  std::vector<std::uint64_t> kmers;
  for (std::uint64_t i = 0; i < 4096; ++i) kmers.push_back(i);
  auto d_kmers = device.alloc<std::uint64_t>(kmers.size());
  device.copy_to_device<std::uint64_t>(kmers, d_kmers);
  DeviceHashTable table(device, 4096, 1.0);
  table.count_kmers(d_kmers, kmers.size());
  EXPECT_EQ(table.unique(), 4096u);
}

TEST(DeviceHashTableTest, OverfullTableThrows) {
  gpusim::Device device;
  std::vector<std::uint64_t> kmers;
  for (std::uint64_t i = 0; i < 100; ++i) kmers.push_back(i);
  auto d_kmers = device.alloc<std::uint64_t>(kmers.size());
  device.copy_to_device<std::uint64_t>(kmers, d_kmers);
  DeviceHashTable table(device, 8, 1.0);  // capacity 16 < 100 keys
  EXPECT_THROW(table.count_kmers(d_kmers, kmers.size()), SimulationError);
}

TEST(DeviceHashTableTest, InsertionCountsAtomics) {
  gpusim::Device device;
  std::vector<std::uint64_t> kmers(1000, 7);
  auto d_kmers = device.alloc<std::uint64_t>(kmers.size());
  device.copy_to_device<std::uint64_t>(kmers, d_kmers);
  DeviceHashTable table(device, 10, 2.0);
  const auto stats = table.count_kmers(d_kmers, kmers.size());
  // Per-occurrence inserts: each does a CAS + an atomic add.
  EXPECT_EQ(stats.counters.atomics, 2000u);
  EXPECT_EQ(stats.counters.smem_atomics, 0u);
  EXPECT_GT(stats.modeled_seconds, 0.0);
}

TEST(DeviceHashTableTest, EmptyInputIsFine) {
  gpusim::Device device;
  auto d_kmers = device.alloc<std::uint64_t>(1);
  DeviceHashTable table(device, 0);
  table.count_kmers(d_kmers, 0);
  EXPECT_EQ(table.unique(), 0u);
  EXPECT_EQ(table.total(), 0u);
  EXPECT_TRUE(read_out(table).empty());
}

TEST(DeviceHashTableTest, ReadoutOfAnEmptyTableCopiesNoEntries) {
  // The hash_reduce_unique launch sizes the output; its 8-byte result is
  // the only D2H.
  gpusim::Device device;
  DeviceHashTable table(device, 100);
  const gpusim::DeviceTimeline before = device.timeline();
  const std::uint64_t allocated = device.allocated_bytes();
  HostHashTable host;
  std::move(table).read_out(host);
  EXPECT_EQ(device.timeline().launches, before.launches + 1);
  EXPECT_EQ(device.timeline().d2h_bytes, before.d2h_bytes + 8);
  EXPECT_EQ(device.timeline().h2d_bytes, before.h2d_bytes);
  EXPECT_EQ(device.allocated_bytes(), allocated);
  EXPECT_EQ(host.unique(), 0u);
}

TEST(DeviceHashTableTest, ReadoutCopiesTwelveBytesPerKey) {
  std::vector<std::uint64_t> kmers;
  for (std::uint64_t i = 0; i < 300; ++i) kmers.push_back(i % 70);
  const gpusim::GpuCostModel cost(gpusim::DeviceProps::v100());
  {
    gpusim::Device device;
    DeviceHashTable table(device, 70);
    table.count_kmers(upload(device, kmers), kmers.size());
    const gpusim::DeviceTimeline before = device.timeline();
    const std::uint64_t allocated = device.allocated_bytes();
    HostHashTable host;
    std::move(table).read_out(host);
    // The reduction's 8-byte result, then one D2H of the 70 entries.
    EXPECT_EQ(device.timeline().launches, before.launches + 1);
    EXPECT_EQ(device.timeline().d2h_bytes, before.d2h_bytes + 8 + 70 * 12);
    EXPECT_EQ(device.timeline().d2h_seconds,
              before.d2h_seconds + cost.transfer_seconds(8) +
                  cost.transfer_seconds(70 * 12));
    EXPECT_EQ(device.allocated_bytes(), allocated);
    EXPECT_EQ(host.unique(), 70u);
    EXPECT_EQ(host.total(), 300u);
  }
  {
    // The copy's scratch is reserved: a device that holds the table, the
    // input and the reduction's result but not the 840 bytes beside the
    // first two fails the readout.
    gpusim::DeviceProps props = gpusim::DeviceProps::v100();
    props.memory_bytes = 256 * 12 + 300 * 8 + 70 * 12 - 1;
    gpusim::Device device(props);
    DeviceHashTable table(device, 70);
    ASSERT_EQ(table.capacity(), 256u);
    table.count_kmers(upload(device, kmers), kmers.size());
    HostHashTable host;
    EXPECT_THROW(std::move(table).read_out(host), SimulationError);
  }
}

TEST(DeviceHashTableTest, ReadoutHandsOverOrMerges) {
  // Two launches' tables read out into one rank table: the first moves
  // into it while it is empty, the second merges into it.
  Xoshiro256 rng(68);
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (int i = 0; i < 4'000; ++i) {
    const std::uint64_t key = rng.below(900);
    (i % 3 == 0 ? first : second).push_back(key);
    ++oracle[key];
  }
  gpusim::Device device;
  DeviceHashTable a(device, 900);
  a.count_kmers(upload(device, first), first.size());
  DeviceHashTable b(device, 900);
  b.count_kmers(upload(device, second), second.size());

  HostHashTable rank_table;
  std::move(a).read_out(rank_table);
  std::map<std::uint64_t, std::uint64_t> first_counts;
  for (const std::uint64_t key : first) ++first_counts[key];
  EXPECT_EQ(rank_table.unique(), first_counts.size());
  for (const auto& [key, count] : first_counts) {
    EXPECT_EQ(rank_table.count(key), count);
  }

  std::move(b).read_out(rank_table);
  EXPECT_EQ(rank_table.unique(), oracle.size());
  EXPECT_EQ(rank_table.total(), 4'000u);
  for (const auto& [key, count] : oracle) {
    EXPECT_EQ(rank_table.count(key), count);
  }
}

}  // namespace
}  // namespace dedukt::core
