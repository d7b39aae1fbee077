// DeviceHashTable against the per-thread kernel it evaluates.
//
// The table stores only the keys it holds and prices each launch in closed
// form. The reference here is the paper's count kernel (§III-B3), run
// thread by thread on full-capacity device arrays: one thread per input
// element, an atomic CAS to claim a slot, an atomic add on its count, and
// linear probing. A claim is charged the probes it walked and a hit one
// probe. The reference runs thread by thread in the canonical block order
// (support/kernel_runner.hpp). In every case the two must agree on each
// LaunchCounters field of each launch and on the sorted (key, count) list.
// The suite runs at pool sizes 1, 4 and 16, which no launch may read.
#include "dedukt/core/device_hash_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/util/rng.hpp"
#include "dedukt/util/thread_pool.hpp"
#include "support/kernel_runner.hpp"

namespace dedukt::core {
namespace {

using Entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
using test_support::expect_same_launch;
using test_support::upload;

// --- The reference: the per-thread CAS kernel on full-capacity arrays ---

/// The full-capacity table the reference kernel inserts into.
struct SlotTable {
  std::uint64_t* keys;
  std::uint32_t* counts;
  std::size_t mask;
};

/// One probe sequence: claim-or-increment with device atomics. The thread
/// that claims the slot adds `claim_add`; later hits add `hit_add`. A
/// claim returns the probes it walked, a hit one probe. Throws if the
/// table is full.
std::size_t insert_with_atomics(const SlotTable& t, std::uint64_t key,
                                std::uint32_t claim_add,
                                std::uint32_t hit_add) {
  DEDUKT_CHECK_MSG(key != kmer::kInvalidCode,
                   "all-ones key is the empty-slot sentinel");
  std::size_t slot = hash::hash_u64(key, DeviceHashTable::kProbeSeed) & t.mask;
  for (std::size_t probes = 1; probes <= t.mask + 1; ++probes) {
    std::atomic_ref<std::uint64_t> key_ref(t.keys[slot]);
    std::uint64_t expected = kmer::kInvalidCode;
    const bool claimed = key_ref.compare_exchange_strong(
        expected, key, std::memory_order_relaxed);
    if (claimed || expected == key) {
      std::atomic_ref<std::uint32_t> count_ref(t.counts[slot]);
      count_ref.fetch_add(claimed ? claim_add : hit_add,
                          std::memory_order_relaxed);
      return claimed ? probes : 1;
    }
    slot = (slot + 1) & t.mask;
  }
  throw SimulationError("device hash table full");
}

/// One global insert of `count` occurrences with its traffic charges;
/// `bonus` is what a claim adds on top (1 on the filtered paths).
void insert_counted(gpusim::KernelCharges& charges, const SlotTable& t,
                    std::uint64_t key, std::uint32_t count,
                    std::uint32_t bonus) {
  const std::size_t probes =
      insert_with_atomics(t, key, /*claim_add=*/count + bonus,
                          /*hit_add=*/count);
  charges.count_gmem_read(probes * sizeof(std::uint64_t));
  charges.count_atomic(2);
  charges.count_ops(10 + probes * 4);
}

/// One thread per input element; `for_each_key(ctx, i, emit)` loads
/// element i and emits its k-mer occurrences, each one global insert after
/// the filter (if any).
template <typename ForEachKey>
gpusim::LaunchStats launch_count(gpusim::Device& device, std::size_t n,
                                 const SlotTable& t, DeviceBloomFilter* filter,
                                 ForEachKey for_each_key) {
  const std::uint32_t bonus = filter != nullptr ? 1 : 0;
  const auto shape = device.shape_for(n);
  return test_support::launch_per_thread(
      device, "reference_count", shape.grid_dim, shape.block_dim,
      [=](test_support::ThreadCtx& ctx) {
        const std::uint64_t i = ctx.global_id();
        if (i >= n) return;
        for_each_key(ctx, static_cast<std::size_t>(i),
                     [&](std::uint64_t key) {
                       if (filter != nullptr &&
                           !filter->test_and_set(key, ctx)) {
                         return;
                       }
                       insert_counted(ctx, t, key, /*count=*/1, bonus);
                     });
      });
}

auto kmer_keys(const std::uint64_t* in) {
  return [in](gpusim::KernelCharges& charges, std::size_t i, auto&& emit) {
    charges.count_gmem_read(sizeof(std::uint64_t));
    emit(in[i]);
  };
}

auto supermer_keys(const std::uint64_t* smers, const std::uint8_t* lens,
                   int k) {
  return [=](gpusim::KernelCharges& charges, std::size_t i, auto&& emit) {
    charges.count_gmem_read(sizeof(std::uint64_t) + sizeof(std::uint8_t));
    const kmer::PackedSupermer smer{smers[i], lens[i]};
    kmer::for_each_kmer_in_supermer(smer, k, [&](kmer::KmerCode code) {
      charges.count_ops(6);
      emit(code);
    });
  };
}

auto supermer_keys(const kmer::WideKey* smers, const std::uint8_t* lens,
                   int k) {
  return [=](gpusim::KernelCharges& charges, std::size_t i, auto&& emit) {
    charges.count_gmem_read(sizeof(kmer::WideKey) + sizeof(std::uint8_t));
    const kmer::PackedWideSupermer smer{smers[i], lens[i]};
    kmer::for_each_kmer_in_wide_supermer(smer, k, [&](kmer::KmerCode code) {
      charges.count_ops(8);
      emit(code);
    });
  };
}

// --- The harness ---

/// A DeviceHashTable and the reference, each on its own device with its
/// own Bloom filter (when filtered), fed the same launches.
class Twin {
 public:
  Twin(std::size_t expected_keys, double headroom, bool filtered,
       std::uint64_t filter_keys)
      : table_(device_, expected_keys, headroom),
        keys_(ref_device_.alloc<std::uint64_t>(table_.capacity(),
                                               kmer::kInvalidCode)),
        counts_(ref_device_.alloc<std::uint32_t>(table_.capacity(), 0u)) {
    if (filtered) {
      bloom_.emplace(device_, filter_keys);
      ref_bloom_.emplace(ref_device_, filter_keys);
    }
  }

  void count_kmers(const std::vector<std::uint64_t>& kmers) {
    const auto d_kmers = upload(device_, kmers);
    const auto r_kmers = upload(ref_device_, kmers);
    const auto stats = table_.count_kmers(d_kmers, kmers.size(), bloom());
    expect_same_launch(stats, launch_count(ref_device_, kmers.size(), slots(),
                                           ref_bloom(),
                                           kmer_keys(r_kmers.data())));
  }

  template <typename Word>
  void count_supermers(const std::vector<Word>& words,
                       const std::vector<std::uint8_t>& lens, int k) {
    const auto d_words = upload(device_, words);
    const auto d_lens = upload(device_, lens);
    const auto r_words = upload(ref_device_, words);
    const auto r_lens = upload(ref_device_, lens);
    const auto stats =
        table_.count_supermers(d_words, d_lens, words.size(), k, bloom());
    expect_same_launch(
        stats, launch_count(ref_device_, words.size(), slots(), ref_bloom(),
                            supermer_keys(r_words.data(), r_lens.data(), k)));
  }

  void accumulate_pairs(const std::vector<std::uint64_t>& keys,
                        const std::vector<std::uint32_t>& key_counts) {
    const auto stats = table_.accumulate_pairs(
        upload(device_, keys), upload(device_, key_counts), keys.size());
    const auto r_keys = upload(ref_device_, keys);
    const auto r_counts = upload(ref_device_, key_counts);
    const std::uint64_t* in_keys = r_keys.data();
    const std::uint32_t* in_counts = r_counts.data();
    const SlotTable t = slots();
    const std::size_t n = keys.size();
    const auto shape = ref_device_.shape_for(n);
    expect_same_launch(
        stats, test_support::launch_per_thread(
                   ref_device_, "reference_accumulate", shape.grid_dim,
                   shape.block_dim, [=](test_support::ThreadCtx& ctx) {
                     const std::uint64_t i = ctx.global_id();
                     if (i >= n) return;
                     ctx.count_gmem_read(sizeof(std::uint64_t) +
                                         sizeof(std::uint32_t));
                     insert_counted(ctx, t, in_keys[i], in_counts[i],
                                    /*bonus=*/0);
                   }));
  }

  /// The table's unique(), total() and (key, count) list against the
  /// reference's occupied slots. Reads the table out, so it comes last.
  void expect_same_entries() {
    Entries reference;
    std::uint64_t reference_total = 0;
    for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
      if (keys_[slot] == kmer::kInvalidCode) continue;
      reference.emplace_back(keys_[slot], counts_[slot]);
      reference_total += counts_[slot];
    }
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(table_.unique(), reference.size());
    EXPECT_EQ(table_.total(), reference_total);
    HostHashTable host;
    std::move(table_).read_out(host);
    Entries table;
    host.for_each([&](std::uint64_t key, std::uint64_t count) {
      table.emplace_back(key, count);
    });
    std::sort(table.begin(), table.end());
    EXPECT_EQ(table, reference);
  }

  [[nodiscard]] std::size_t capacity() const { return table_.capacity(); }

  /// Slot of `key` in the reference layout (capacity() when absent).
  [[nodiscard]] std::size_t reference_slot(std::uint64_t key) const {
    for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
      if (keys_[slot] == key) return slot;
    }
    return keys_.size();
  }

 private:
  DeviceBloomFilter* bloom() { return bloom_ ? &*bloom_ : nullptr; }
  DeviceBloomFilter* ref_bloom() { return ref_bloom_ ? &*ref_bloom_ : nullptr; }
  SlotTable slots() {
    return SlotTable{keys_.data(), counts_.data(), keys_.size() - 1};
  }

  gpusim::Device device_;
  DeviceHashTable table_;
  std::optional<DeviceBloomFilter> bloom_;
  gpusim::Device ref_device_;
  gpusim::DeviceBuffer<std::uint64_t> keys_;
  gpusim::DeviceBuffer<std::uint32_t> counts_;
  std::optional<DeviceBloomFilter> ref_bloom_;
};

std::uint64_t home_of(std::uint64_t key, std::size_t capacity) {
  return hash::hash_u64(key, DeviceHashTable::kProbeSeed) & (capacity - 1);
}

/// `unique` distinct keys (an odd multiplier is a bijection mod 2^64),
/// each once, then `repeats` more drawn from them, shuffled.
std::vector<std::uint64_t> occurrences(std::size_t unique, std::size_t repeats,
                                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 1; i <= unique; ++i) {
    out.push_back(i * 0x9E3779B97F4A7C15ull);
  }
  for (std::size_t i = 0; i < repeats; ++i) out.push_back(out[rng.below(unique)]);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

std::string random_bases(Xoshiro256& rng, std::size_t len) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string seq;
  for (std::size_t j = 0; j < len; ++j) seq.push_back(kBases[rng.below(4)]);
  return seq;
}

class DeviceHashTableOracleTest : public testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { util::ThreadPool::set_global_threads(GetParam()); }
  void TearDown() override { util::ThreadPool::set_global_threads(1); }
};

TEST_P(DeviceHashTableOracleTest, LoadFactors) {
  constexpr std::size_t kCapacity = 4096;
  // 1%, 50%, 95% and 100% of the slots hold a key.
  for (const std::size_t unique : {41u, 2048u, 3891u, 4096u}) {
    for (const bool filtered : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << unique << " keys, filtered=" << filtered);
      const auto kmers = occurrences(unique, unique + 300, unique);
      Twin twin(kCapacity, /*headroom=*/1.0, filtered, kmers.size());
      ASSERT_EQ(twin.capacity(), kCapacity);
      twin.count_kmers(kmers);
      twin.expect_same_entries();
    }
  }
}

TEST_P(DeviceHashTableOracleTest, PlacementsWrapAround) {
  // Keys homed in the last 4 of 256 slots, and keys homed in the first 8
  // that the wrapped ones push along.
  constexpr std::size_t kCapacity = 256;
  std::vector<std::uint64_t> tail;
  std::vector<std::uint64_t> head;
  for (std::uint64_t key = 1; tail.size() < 60 || head.size() < 20; ++key) {
    const std::uint64_t home = home_of(key, kCapacity);
    if (home >= kCapacity - 4 && tail.size() < 60) tail.push_back(key);
    if (home < 8 && head.size() < 20) head.push_back(key);
  }
  std::vector<std::uint64_t> kmers = tail;
  kmers.insert(kmers.end(), head.begin(), head.end());
  Xoshiro256 rng(7);
  const std::size_t distinct = kmers.size();
  for (std::size_t i = 0; i < 200; ++i) kmers.push_back(kmers[rng.below(distinct)]);

  for (const bool filtered : {false, true}) {
    SCOPED_TRACE(testing::Message() << "filtered=" << filtered);
    Twin twin(kCapacity / 2, /*headroom=*/2.0, filtered, kmers.size());
    ASSERT_EQ(twin.capacity(), kCapacity);
    twin.count_kmers(kmers);
    twin.expect_same_entries();
    if (!filtered) {
      // The case does what it says: all but 4 tail keys wrapped.
      std::size_t wrapped = 0;
      for (const std::uint64_t key : tail) {
        wrapped += twin.reference_slot(key) < kCapacity - 4 ? 1 : 0;
      }
      EXPECT_EQ(wrapped, tail.size() - 4);
    }
  }
}

TEST_P(DeviceHashTableOracleTest, NarrowAndWideSupermers) {
  Xoshiro256 rng(23);
  constexpr int kK = 11;
  std::vector<std::uint64_t> narrow;
  std::vector<std::uint8_t> narrow_lens;
  std::vector<kmer::WideKey> wide;
  std::vector<std::uint8_t> wide_lens;
  std::size_t narrow_kmers = 0;
  std::size_t wide_kmers = 0;
  // Short sequences over a small pool of reads, so k-mers repeat.
  std::vector<std::string> reads;
  for (int i = 0; i < 40; ++i) reads.push_back(random_bases(rng, 80));
  for (int i = 0; i < 700; ++i) {
    const std::string& read = reads[rng.below(reads.size())];
    const std::size_t narrow_len = kK + rng.below(31 - kK + 1);
    const std::size_t wide_len = kK + rng.below(63 - kK + 1);
    const std::string a =
        read.substr(rng.below(read.size() - narrow_len + 1), narrow_len);
    const std::string b =
        read.substr(rng.below(read.size() - wide_len + 1), wide_len);
    narrow.push_back(kmer::pack(a, io::BaseEncoding::kStandard));
    narrow_lens.push_back(static_cast<std::uint8_t>(narrow_len));
    wide.push_back(
        kmer::to_key(kmer::wide_pack(b, io::BaseEncoding::kStandard)));
    wide_lens.push_back(static_cast<std::uint8_t>(wide_len));
    narrow_kmers += narrow_len - kK + 1;
    wide_kmers += wide_len - kK + 1;
  }
  for (const bool filtered : {false, true}) {
    SCOPED_TRACE(testing::Message() << "filtered=" << filtered);
    {
      SCOPED_TRACE("narrow");
      // Sized by distinct k-mers (at most the 40 reads' 70 each), not by
      // occurrences, so the table runs near 70% load.
      Twin twin(40 * 70, /*headroom=*/1.0, filtered, narrow_kmers);
      twin.count_supermers(narrow, narrow_lens, kK);
      twin.expect_same_entries();
    }
    {
      SCOPED_TRACE("wide");
      Twin twin(wide_kmers, /*headroom=*/2.0, filtered, wide_kmers);
      twin.count_supermers(wide, wide_lens, kK);
      twin.expect_same_entries();
    }
  }
}

TEST_P(DeviceHashTableOracleTest, AccumulatePairs) {
  Xoshiro256 rng(31);
  // Received pairs from several sources: a key may arrive more than once.
  const auto keys = occurrences(1500, 900, 32);
  std::vector<std::uint32_t> key_counts;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    key_counts.push_back(static_cast<std::uint32_t>(1 + rng.below(1000)));
  }
  Twin twin(keys.size(), /*headroom=*/1.0, /*filtered=*/false, 0);
  twin.accumulate_pairs(keys, key_counts);
  twin.expect_same_entries();
}

TEST_P(DeviceHashTableOracleTest, TwoLaunchesOnOneTable) {
  // The second launch's claims probe past the first launch's keys.
  const auto kmers = occurrences(3000, 3000, 41);
  const std::vector<std::uint64_t> first(kmers.begin(),
                                         kmers.begin() + 2500);
  const std::vector<std::uint64_t> second(kmers.begin() + 2500, kmers.end());
  for (const bool filtered : {false, true}) {
    SCOPED_TRACE(testing::Message() << "filtered=" << filtered);
    Twin twin(4096, /*headroom=*/1.0, filtered, kmers.size());
    twin.count_kmers(first);
    twin.count_kmers(second);
    twin.expect_same_entries();
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, DeviceHashTableOracleTest,
                         testing::Values(1u, 4u, 16u));

}  // namespace
}  // namespace dedukt::core
