#include "dedukt/core/device_hash_table.hpp"

#include <atomic>
#include <bit>
#include <span>
#include <type_traits>

#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

namespace {

/// One probe sequence: claim-or-increment with device atomics. The thread
/// that claims the slot adds `claim_add`; later hits add `hit_add` (both 1
/// for plain counting; the Bloom-filtered path claims with 2 to compensate
/// for the absorbed first occurrence). Safe under block-parallel
/// execution: the CAS claims a slot exactly once and counts accumulate
/// with atomic adds, so the final (key, count) content is independent of
/// interleaving even though the slot *layout* may differ between thread
/// counts. Throws if the table is full.
///
/// Returns the probe charge for traffic accounting, which must be
/// deterministic across pool sizes:
///  - A claiming insert charges the probes it actually walked. That walk
///    always spans home slot -> final slot, and for order-independent
///    linear probing the occupied-slot multiset and total displacement are
///    insertion-order invariant (the classic parking-function property),
///    so the per-launch claim charge is identical for any interleaving.
///  - A hit charges a flat single probe. Its true walk length is the
///    key's displacement in whatever layout this run produced — an
///    interleaving-dependent quantity — so charging it would make modeled
///    time vary with DEDUKT_SIM_THREADS. See docs/performance-model.md.
std::size_t insert_with_atomics(std::uint64_t* keys, std::uint32_t* counts,
                                std::size_t mask, std::uint64_t key,
                                std::uint32_t claim_add,
                                std::uint32_t hit_add) {
  DEDUKT_CHECK_MSG(key != kmer::kInvalidCode,
                   "all-ones key is the empty-slot sentinel");
  std::size_t slot = hash::hash_u64(key, DeviceHashTable::kProbeSeed) & mask;
  for (std::size_t probes = 1; probes <= mask + 1; ++probes) {
    std::atomic_ref<std::uint64_t> key_ref(keys[slot]);
    std::uint64_t expected = kmer::kInvalidCode;
    // atomicCAS(keys + slot, EMPTY, key): claims an empty slot, or tells us
    // who owns it.
    const bool claimed = key_ref.compare_exchange_strong(
        expected, key, std::memory_order_relaxed);
    if (claimed || expected == key) {
      std::atomic_ref<std::uint32_t> count_ref(counts[slot]);
      count_ref.fetch_add(claimed ? claim_add : hit_add,
                          std::memory_order_relaxed);  // atomicAdd
      return claimed ? probes : 1;
    }
    slot = (slot + 1) & mask;  // linear probing (§III-B3)
  }
  throw SimulationError("device hash table full");
}

/// The global table a kernel inserts into, captured by value into lambdas.
struct GlobalTable {
  std::uint64_t* keys;
  std::uint32_t* counts;
  std::size_t mask;
};

/// One global insert of `count` occurrences of `key` with its traffic
/// charges: a per-occurrence insert (count 1) or a consolidated pair.
/// `bonus` is the Bloom-compensation increment a claiming insert adds on
/// top (1 on the filtered paths, 0 otherwise).
void insert_counted(gpusim::KernelCharges& charges, const GlobalTable& g,
                    std::uint64_t key, std::uint32_t count,
                    std::uint32_t bonus) {
  const std::size_t probes =
      insert_with_atomics(g.keys, g.counts, g.mask, key,
                          /*claim_add=*/count + bonus, /*hit_add=*/count);
  // Each probe reads a key slot; the terminal probe does CAS + add.
  charges.count_gmem_read(probes * sizeof(std::uint64_t));
  charges.count_atomic(2);
  charges.count_ops(10 + probes * 4);
}

/// Launch one of the count_* kernels, one thread per input element.
/// `for_each_key(ctx, i, emit)` loads input element i (charging its reads
/// and extraction) and calls emit(code) for every k-mer occurrence the
/// element yields; each occurrence is one global insert (§III-B3). A
/// non-null `filter` absorbs each key's first occurrence (claims add
/// 1 + bonus).
///
/// Filtered kernels run in the canonical block order: which occurrence the
/// filter absorbs — and so which insert claims a key, and which keys the
/// filter's false positives admit — would otherwise depend on how blocks
/// interleave.
template <typename ForEachKey>
gpusim::LaunchStats launch_count(gpusim::Device& device, const char* name,
                                 std::size_t n, const GlobalTable& g,
                                 DeviceBloomFilter* filter,
                                 ForEachKey for_each_key) {
  const std::uint32_t bonus = filter != nullptr ? 1 : 0;
  const auto shape = device.shape_for(n);
  auto kernel = [=](gpusim::ThreadCtx& ctx) {
    const std::uint64_t i = ctx.global_id();
    if (i >= n) return;
    for_each_key(ctx, static_cast<std::size_t>(i), [&](std::uint64_t key) {
      if (filter != nullptr && !filter->test_and_set(key, ctx)) return;
      insert_counted(ctx, g, key, /*count=*/1, bonus);
    });
  };
  return filter != nullptr
             ? device.launch_ordered(name, shape.grid_dim, shape.block_dim,
                                     kernel)
             : device.launch(name, shape.grid_dim, shape.block_dim, kernel);
}

/// Input loaders for launch_count: one packed k-mer per thread, or one
/// supermer per thread whose k-mers are extracted by shift+mask (§IV-B).
auto kmer_keys(const std::uint64_t* in) {
  return [in](gpusim::KernelCharges& charges, std::size_t i, auto&& emit) {
    charges.count_gmem_read(sizeof(std::uint64_t));  // load the k-mer
    emit(in[i]);
  };
}

auto supermer_keys(const std::uint64_t* smers, const std::uint8_t* lens,
                   int k) {
  return [=](gpusim::KernelCharges& charges, std::size_t i, auto&& emit) {
    charges.count_gmem_read(sizeof(std::uint64_t) + sizeof(std::uint8_t));
    const kmer::PackedSupermer smer{smers[i], lens[i]};
    kmer::for_each_kmer_in_supermer(smer, k, [&](kmer::KmerCode code) {
      charges.count_ops(6);  // shift+mask extraction (§IV-B)
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
      charges.count_ops(8);  // two-word shift+mask extraction
      emit(code);
    });
  };
}

}  // namespace

gpusim::LaunchStats DeviceHashTable::accumulate_pairs(
    const gpusim::DeviceBuffer<std::uint64_t>& keys_in,
    const gpusim::DeviceBuffer<std::uint32_t>& key_counts, std::size_t n) {
  DEDUKT_REQUIRE(n <= keys_in.size());
  DEDUKT_REQUIRE(n <= key_counts.size());
  const GlobalTable g{keys_.data(), counts_.data(), mask_};
  const std::uint64_t* in_keys = keys_in.data();
  const std::uint32_t* in_counts = key_counts.data();

  const auto shape = device_->shape_for(n);
  return device_->launch("hash_accumulate_pairs",
                         shape.grid_dim, shape.block_dim,
                         [=](gpusim::ThreadCtx& ctx) {
    const std::uint64_t i = ctx.global_id();
    if (i >= n) return;
    ctx.count_gmem_read(sizeof(std::uint64_t) + sizeof(std::uint32_t));
    insert_counted(ctx, g, in_keys[i], in_counts[i], /*bonus=*/0);
  });
}

DeviceHashTable::DeviceHashTable(gpusim::Device& device,
                                 std::size_t expected_keys, double headroom)
    : device_(&device) {
  DEDUKT_REQUIRE(headroom >= 1.0);
  const auto want = static_cast<std::size_t>(
      static_cast<double>(std::max<std::size_t>(expected_keys, 8)) *
      headroom);
  const std::size_t capacity = std::bit_ceil(want);
  keys_ = device.alloc<std::uint64_t>(capacity, kmer::kInvalidCode);
  counts_ = device.alloc<std::uint32_t>(capacity, 0u);
  mask_ = capacity - 1;
}

gpusim::LaunchStats DeviceHashTable::count_kmers(
    const gpusim::DeviceBuffer<std::uint64_t>& kmers, std::size_t n,
    DeviceBloomFilter* bloom) {
  DEDUKT_REQUIRE(n <= kmers.size());
  return launch_count(
      *device_, bloom != nullptr ? "hash_count_kmers_filtered"
                                 : "hash_count_kmers",
      n, GlobalTable{keys_.data(), counts_.data(), mask_}, bloom,
      kmer_keys(kmers.data()));
}

template <typename Word>
gpusim::LaunchStats DeviceHashTable::count_supermers(
    const gpusim::DeviceBuffer<Word>& supermers,
    const gpusim::DeviceBuffer<std::uint8_t>& lengths, std::size_t n, int k,
    DeviceBloomFilter* bloom) {
  DEDUKT_REQUIRE(n <= supermers.size());
  DEDUKT_REQUIRE(n <= lengths.size());
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  const char* name =
      bloom != nullptr ? (kWide ? "hash_count_wide_supermers_filtered"
                                : "hash_count_supermers_filtered")
                       : (kWide ? "hash_count_wide_supermers"
                                : "hash_count_supermers");
  return launch_count(*device_, name, n,
                      GlobalTable{keys_.data(), counts_.data(), mask_}, bloom,
                      supermer_keys(supermers.data(), lengths.data(), k));
}

template gpusim::LaunchStats DeviceHashTable::count_supermers<std::uint64_t>(
    const gpusim::DeviceBuffer<std::uint64_t>&,
    const gpusim::DeviceBuffer<std::uint8_t>&, std::size_t, int,
    DeviceBloomFilter*);
template gpusim::LaunchStats DeviceHashTable::count_supermers<kmer::WideKey>(
    const gpusim::DeviceBuffer<kmer::WideKey>&,
    const gpusim::DeviceBuffer<std::uint8_t>&, std::size_t, int,
    DeviceBloomFilter*);

namespace {

/// Launch the block reduction `name` over `n` device slots of
/// `elem_bytes` each and return its result, copied back with an 8-byte
/// D2H. The standard CUDA shape: each thread writes one partial to shared
/// memory, then thread 0 sums the block's partials and commits them with
/// one global atomic add. Its charges depend on the launch shape alone, so
/// each block states them in closed form — per block 8·block_dim B smem
/// write, 3·block_dim ops, 8·block_dim B smem read and 1 atomic, plus one
/// element read per in-range slot — and `block_sum(begin, end)` does only
/// the functional sum over the block's in-range slots.
template <typename BlockSum>
std::uint64_t reduce_slots(gpusim::Device& device, const char* name,
                           std::size_t n, std::uint64_t elem_bytes,
                           BlockSum block_sum) {
  auto result = device.alloc<std::uint64_t>(1);  // value-initialized to 0
  std::uint64_t* out = result.data();
  const auto shape = device.shape_for(n);
  const std::uint64_t partials_bytes =
      sizeof(std::uint64_t) * std::uint64_t{shape.block_dim};
  device.launch_blocks(name, shape.grid_dim, shape.block_dim, partials_bytes,
                       [=](gpusim::BlockCtx& block) {
    const std::uint64_t threads = block.block_dim();
    const std::uint32_t active = block.threads_below(n);
    block.count_smem_write(sizeof(std::uint64_t) * threads);
    block.count_gmem_read(elem_bytes * active);
    block.count_ops(3 * threads);
    block.count_smem_read(sizeof(std::uint64_t) * threads);
    block.count_atomic(1);
    const std::size_t first = block.first_global_id();
    const std::uint64_t sum = block_sum(first, first + active);
    std::atomic_ref<std::uint64_t>(out[0]).fetch_add(
        sum, std::memory_order_relaxed);
  });
  std::uint64_t host = 0;
  device.copy_to_host(result, std::span<std::uint64_t>(&host, 1));
  device.free(result);
  return host;
}

}  // namespace

std::size_t DeviceHashTable::unique() {
  const std::uint64_t* keys = keys_.data();
  return static_cast<std::size_t>(reduce_slots(
      *device_, "hash_reduce_unique", keys_.size(), sizeof(std::uint64_t),
      [keys](std::size_t begin, std::size_t end) {
        std::uint64_t occupied = 0;
        for (std::size_t i = begin; i < end; ++i) {
          occupied += keys[i] != kmer::kInvalidCode ? 1 : 0;
        }
        return occupied;
      }));
}

std::uint64_t DeviceHashTable::total() {
  const std::uint32_t* counts = counts_.data();
  return reduce_slots(*device_, "hash_reduce_total", counts_.size(),
                      sizeof(std::uint32_t),
                      [counts](std::size_t begin, std::size_t end) {
                        std::uint64_t sum = 0;
                        for (std::size_t i = begin; i < end; ++i) {
                          sum += counts[i];
                        }
                        return sum;
                      });
}

std::vector<std::pair<std::uint64_t, std::uint32_t>>
DeviceHashTable::to_host() {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] != kmer::kInvalidCode) out.emplace_back(keys_[i], counts_[i]);
  }
  // Price the readout as the device performs it: the hash_reduce_unique
  // launch that sizes the output (its charges are closed-form, so the scan
  // above already supplies its result), then a D2H transfer of the
  // occupied (key, count) pairs — 12 bytes per entry.
  reduce_slots(*device_, "hash_reduce_unique", keys_.size(),
               sizeof(std::uint64_t),
               [](std::size_t, std::size_t) { return std::uint64_t{0}; });
  if (!out.empty()) {
    const std::size_t bytes = out.size() * 12;
    std::vector<std::uint8_t> scratch(bytes);
    auto tmp = device_->alloc<std::uint8_t>(bytes);
    device_->copy_to_host(tmp, std::span<std::uint8_t>(scratch));
    device_->free(tmp);
  }
  return out;
}

}  // namespace dedukt::core
