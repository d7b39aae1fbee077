// The count launches' table layout.
//
// Every count launch adds its occurrences to the held table through one
// bulk add (BasicHostHashTable::add_all). The read-out table must hold its
// slots exactly as a HostHashTable fed the same adds one by one would:
// each occurrence the Bloom filter lets through adds its count, and a
// filtered claim adds 1 more. The consolidation path and the rank tables
// read the slots in this order, so the layout is part of every output.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/core/device_hash_table.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/rng.hpp"
#include "support/kernel_runner.hpp"

namespace dedukt::core {
namespace {

using test_support::upload;
using Slots = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Slots slots_of(const HostHashTable& table) {
  Slots out;
  table.for_each([&](std::uint64_t key, std::uint64_t count) {
    out.emplace_back(key, count);
  });
  return out;
}

/// The launch table's slots, read out into an empty host table (which
/// takes the held table whole).
Slots read_out(DeviceHashTable& table) {
  HostHashTable host;
  std::move(table).read_out(host);
  return slots_of(host);
}

/// The slots of a HostHashTable fed `adds` one by one, through a Bloom
/// filter of its own sized for `filter_keys` when `filtered`.
Slots one_by_one(const Slots& adds, bool filtered, std::uint64_t filter_keys) {
  gpusim::Device device;
  std::optional<DeviceBloomFilter> bloom;
  if (filtered) bloom.emplace(device, filter_keys);
  HostHashTable table;
  device.launch_host("one_by_one", 1, 1, [&](gpusim::KernelCharges& charges) {
    for (const auto& [key, count] : adds) {
      if (bloom && !bloom->test_and_set(key, charges)) continue;
      if (table.add(key, count) && bloom) table.add(key, 1);
    }
  });
  return slots_of(table);
}

/// `unique` distinct keys, then `repeats` more drawn from them, shuffled.
std::vector<std::uint64_t> occurrences(std::size_t unique, std::size_t repeats,
                                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 1; i <= unique; ++i) {
    out.push_back(i * 0x9E3779B97F4A7C15ull);
  }
  for (std::size_t i = 0; i < repeats; ++i) {
    out.push_back(out[rng.below(unique)]);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

Slots each_once(const std::vector<std::uint64_t>& keys) {
  Slots adds;
  for (const std::uint64_t key : keys) adds.emplace_back(key, 1);
  return adds;
}

TEST(LaunchLayoutTest, CountKmers) {
  // 3000 distinct keys grow the held table from 128 slots to 8 Ki. The
  // launch takes them as one device buffer and as three runs, walked in
  // run order.
  const auto kmers = occurrences(3000, 4000, 11);
  const std::span<const std::uint64_t> all(kmers);
  const std::vector<std::span<const std::uint64_t>> runs = {
      all.first(2000), all.subspan(2000, 3000), all.subspan(5000)};
  for (const bool filtered : {false, true}) {
    for (const bool in_runs : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "filtered=" << filtered << " in_runs=" << in_runs);
      gpusim::Device device;
      DeviceBloomFilter bloom(device, kmers.size());
      DeviceBloomFilter* filter = filtered ? &bloom : nullptr;
      DeviceHashTable table(device, 3000);
      if (in_runs) {
        table.count_kmers(runs, filter);
      } else {
        table.count_kmers(upload(device, kmers), kmers.size(), filter);
      }
      EXPECT_EQ(read_out(table),
                one_by_one(each_once(kmers), filtered, kmers.size()));
    }
  }
}

TEST(LaunchLayoutTest, NarrowAndWideSupermers) {
  constexpr int kK = 11;
  Xoshiro256 rng(12);
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::vector<std::string> reads(60);
  for (std::string& read : reads) {
    for (int j = 0; j < 100; ++j) read.push_back(kBases[rng.below(4)]);
  }
  std::vector<std::uint64_t> narrow;
  std::vector<std::uint8_t> narrow_lens;
  std::vector<kmer::WideKey> wide;
  std::vector<std::uint8_t> wide_lens;
  Slots narrow_kmers;
  Slots wide_kmers;
  const auto add_to = [](Slots& out) {
    return [&out](kmer::KmerCode code) { out.emplace_back(code, 1); };
  };
  for (int i = 0; i < 800; ++i) {
    const std::string& read = reads[rng.below(reads.size())];
    const std::size_t narrow_len = kK + rng.below(31 - kK + 1);
    const std::size_t wide_len = kK + rng.below(63 - kK + 1);
    const kmer::PackedSupermer a{
        kmer::pack(read.substr(rng.below(read.size() - narrow_len + 1),
                               narrow_len),
                   io::BaseEncoding::kStandard),
        static_cast<std::uint8_t>(narrow_len)};
    const kmer::PackedWideSupermer b{
        kmer::to_key(kmer::wide_pack(
            read.substr(rng.below(read.size() - wide_len + 1), wide_len),
            io::BaseEncoding::kStandard)),
        static_cast<std::uint8_t>(wide_len)};
    narrow.push_back(a.bases);
    narrow_lens.push_back(a.len);
    wide.push_back(b.bases);
    wide_lens.push_back(b.len);
    kmer::for_each_kmer_in_supermer(a, kK, add_to(narrow_kmers));
    kmer::for_each_kmer_in_wide_supermer(b, kK, add_to(wide_kmers));
  }
  const std::uint64_t filter_keys = wide_kmers.size();
  for (const bool filtered : {false, true}) {
    SCOPED_TRACE(testing::Message() << "filtered=" << filtered);
    gpusim::Device device;
    DeviceBloomFilter narrow_bloom(device, filter_keys);
    DeviceBloomFilter wide_bloom(device, filter_keys);
    {
      SCOPED_TRACE("narrow");
      DeviceHashTable table(device, narrow_kmers.size());
      table.count_supermers(upload(device, narrow), upload(device, narrow_lens),
                            narrow.size(), kK,
                            filtered ? &narrow_bloom : nullptr);
      EXPECT_EQ(read_out(table),
                one_by_one(narrow_kmers, filtered, filter_keys));
    }
    {
      SCOPED_TRACE("wide");
      DeviceHashTable table(device, wide_kmers.size());
      table.count_supermers(upload(device, wide), upload(device, wide_lens),
                            wide.size(), kK, filtered ? &wide_bloom : nullptr);
      EXPECT_EQ(read_out(table), one_by_one(wide_kmers, filtered, filter_keys));
    }
  }
}

TEST(LaunchLayoutTest, AccumulatePairs) {
  Xoshiro256 rng(13);
  const auto keys = occurrences(2000, 1000, 14);
  std::vector<std::uint32_t> key_counts;
  Slots adds;
  for (const std::uint64_t key : keys) {
    key_counts.push_back(static_cast<std::uint32_t>(1 + rng.below(1000)));
    adds.emplace_back(key, key_counts.back());
  }
  gpusim::Device device;
  DeviceHashTable table(device, keys.size());
  table.accumulate_pairs(upload(device, keys), upload(device, key_counts),
                         keys.size());
  EXPECT_EQ(read_out(table), one_by_one(adds, /*filtered=*/false, 0));
}

TEST(LaunchLayoutTest, SentinelKeyIsRejected) {
  gpusim::Device device;
  const std::vector<std::uint64_t> kmers = {5, kmer::kInvalidCode, 7};
  DeviceHashTable table(device, kmers.size());
  EXPECT_THROW(table.count_kmers(upload(device, kmers), kmers.size()),
               PreconditionError);
}

TEST(LaunchLayoutTest, FullTableStopsAtTheFirstKeyPastCapacity) {
  // Every key twice, so the filtered path claims each one too.
  std::vector<std::uint64_t> kmers;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t key = 1; key <= 200; ++key) kmers.push_back(key);
  }
  for (const bool filtered : {false, true}) {
    SCOPED_TRACE(testing::Message() << "filtered=" << filtered);
    gpusim::Device device;
    DeviceBloomFilter bloom(device, kmers.size());
    DeviceHashTable table(device, 16, 1.0);
    EXPECT_THROW(table.count_kmers(upload(device, kmers), kmers.size(),
                                   filtered ? &bloom : nullptr),
                 SimulationError);
    EXPECT_EQ(table.unique(), table.capacity() + 1);
  }
}

}  // namespace
}  // namespace dedukt::core
