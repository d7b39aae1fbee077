// Load-factor behavior of DeviceHashTable: near-full tables keep their
// probe charges bit-identical across pool sizes (the parking-function
// charging argument holds at any load factor), and a table that genuinely
// fills fails with a clean SimulationError on both the plain and the
// Bloom-filtered counting paths.
#include "dedukt/core/device_hash_table.hpp"

#include <gtest/gtest.h>

#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/util/rng.hpp"
#include "dedukt/util/thread_pool.hpp"

namespace dedukt::core {
namespace {

struct PoolGuard {
  ~PoolGuard() { util::ThreadPool::set_global_threads(1); }
};

// Keys drawn so the table lands near the requested load factor, with a
// duplicate-heavy tail to exercise both the claim and hit charge paths.
std::vector<std::uint64_t> near_full_keys(std::size_t unique,
                                          std::size_t duplicates,
                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(unique + duplicates);
  for (std::size_t i = 0; i < unique; ++i) {
    keys.push_back(rng() | 1);  // never kInvalidCode
  }
  for (std::size_t i = 0; i < duplicates; ++i) {
    keys.push_back(keys[rng.below(unique)]);
  }
  return keys;
}

gpusim::LaunchStats count_at(unsigned pool_threads,
                             const std::vector<std::uint64_t>& keys,
                             std::size_t expected_keys, double headroom) {
  util::ThreadPool::set_global_threads(pool_threads);
  gpusim::Device device;
  auto d_keys = device.alloc<std::uint64_t>(keys.size());
  device.copy_to_device<std::uint64_t>(keys, d_keys);
  DeviceHashTable table(device, expected_keys, headroom);
  return table.count_kmers(d_keys, keys.size());
}

TEST(HashLoadFactorTest, ProbeChargesInvariantAcrossPoolSizesNearCapacity) {
  PoolGuard guard;
  // 3900 unique keys into a capacity-4096 table (expected*1.05 = 4095
  // rounds up to the next power of two): ~95% load, long probe chains.
  const auto keys = near_full_keys(3900, 4000, 91);
  const auto base = count_at(1, keys, 3900, /*headroom=*/1.05);
  EXPECT_GT(base.counters.gmem_read_bytes, 0u);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "pool size " << threads);
    const auto stats = count_at(threads, keys, 3900, 1.05);
    EXPECT_EQ(stats.counters.gmem_read_bytes, base.counters.gmem_read_bytes);
    EXPECT_EQ(stats.counters.atomics, base.counters.atomics);
    EXPECT_EQ(stats.counters.ops, base.counters.ops);
    EXPECT_EQ(stats.modeled_seconds, base.modeled_seconds);
  }
}

TEST(HashLoadFactorTest, ChargesGrowWithLoadFactor) {
  // Same key multiset, shrinking headroom: the parking-function total
  // displacement (and so the probe charge) must be monotone in load.
  PoolGuard guard;
  util::ThreadPool::set_global_threads(1);
  const auto keys = near_full_keys(4000, 0, 92);
  std::uint64_t last_read_bytes = 0;
  // Capacities 16384 / 8192 / 4096: 24%, 49%, 98% load.
  for (const double headroom : {4.0, 2.0, 1.0}) {
    const auto stats = count_at(1, keys, 4000, headroom);
    EXPECT_GE(stats.counters.gmem_read_bytes, last_read_bytes)
        << "headroom " << headroom;
    last_read_bytes = stats.counters.gmem_read_bytes;
  }
}

TEST(HashLoadFactorTest, FullTableThrowsCleanlyOnBothPaths) {
  for (const bool filtered : {false, true}) {
    SCOPED_TRACE(testing::Message() << "filtered=" << filtered);
    gpusim::Device device;
    // Every key twice, so the filtered path inserts each one too.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 1; i <= 200; ++i) keys.push_back(i);
    for (std::uint64_t i = 1; i <= 200; ++i) keys.push_back(i);
    auto d_keys = device.alloc<std::uint64_t>(keys.size());
    device.copy_to_device<std::uint64_t>(keys, d_keys);
    DeviceBloomFilter bloom(device, keys.size());
    DeviceHashTable table(device, 16, 1.0);  // capacity 16 << 200
    EXPECT_THROW(
        table.count_kmers(d_keys, keys.size(), filtered ? &bloom : nullptr),
        SimulationError);
  }
}

}  // namespace
}  // namespace dedukt::core
