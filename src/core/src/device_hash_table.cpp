#include "dedukt/core/device_hash_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

namespace {

/// Device bytes of one modeled slot: a 64-bit key and a 32-bit count.
constexpr std::uint64_t kSlotBytes =
    sizeof(std::uint64_t) + sizeof(std::uint32_t);

/// Sort `homes`, each below 2^`bits`, with an LSD radix sort: one
/// counting pass per 11-bit digit, scattering into one scratch vector that
/// swaps places with `homes` after each pass.
void radix_sort(std::vector<std::uint32_t>& homes, int bits) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  std::vector<std::uint32_t> scratch(homes.size());
  for (int shift = 0; shift < bits; shift += kDigitBits) {
    std::array<std::size_t, kBuckets> offsets{};
    for (const std::uint32_t home : homes) {
      ++offsets[(home >> shift) & (kBuckets - 1)];
    }
    std::size_t first = 0;
    for (std::size_t& offset : offsets) {
      first += std::exchange(offset, first);
    }
    for (const std::uint32_t home : homes) {
      scratch[offsets[(home >> shift) & (kBuckets - 1)]++] = home;
    }
    homes.swap(scratch);
  }
}

/// Launch the block reduction `name` over `n` device slots of
/// `elem_bytes` each, whose result is `value`, and copy that result back
/// with an 8-byte D2H. The standard CUDA shape: each thread writes one
/// partial to shared memory, then thread 0 sums the block's partials and
/// commits them with one global atomic add. Its charges depend on the
/// launch shape alone — per block 8·block_dim B smem write, 3·block_dim
/// ops, 8·block_dim B smem read and 1 atomic, plus one element read per
/// in-range slot — so the launch states them in closed form and the table
/// supplies the sum it holds.
std::uint64_t reduce_slots(gpusim::Device& device, const char* name,
                           std::size_t n, std::uint64_t elem_bytes,
                           std::uint64_t value) {
  auto result = device.alloc<std::uint64_t>(1);
  const auto shape = device.shape_for(n);
  const std::uint64_t threads =
      std::uint64_t{shape.grid_dim} * shape.block_dim;
  device.launch_host(name, shape.grid_dim, shape.block_dim,
                     [&](gpusim::KernelCharges& charges) {
    charges.count_smem_write(sizeof(std::uint64_t) * threads);
    charges.count_gmem_read(elem_bytes * n);
    charges.count_ops(3 * threads);
    charges.count_smem_read(sizeof(std::uint64_t) * threads);
    charges.count_atomic(shape.grid_dim);
    result[0] = value;
  });
  std::uint64_t host = 0;
  device.copy_to_host(result, std::span<std::uint64_t>(&host, 1));
  device.free(result);
  return host;
}

/// A count launch's claim past the modeled capacity, thrown out of the
/// launches' loops.
[[noreturn, gnu::noinline]] void table_full() {
  throw SimulationError("device hash table full");
}

}  // namespace

/// The total does not depend on insertion order (the parking-function
/// property), so the keys are placed in home-slot order: each takes the
/// first free slot at or after its home, counted past the last slot
/// instead of wrapping. The keys that land past the end occupy the
/// table's first `carry` slots, which the next lap starts behind. Two laps
/// reach the fixed point even for a full table: the carried keys' push
/// stops in the free slots before the run that wrapped, so the second lap
/// wraps as many keys as the first.
std::uint64_t detail::total_displacement(std::vector<std::uint32_t>& homes,
                                         std::uint64_t capacity) {
  radix_sort(homes, std::bit_width(capacity - 1));
  std::uint64_t total = 0;
  std::uint64_t carry = 0;
  for (int lap = 0; lap < 2; ++lap) {
    total = 0;
    std::uint64_t next = carry;  // first free slot, unwrapped
    for (const std::uint64_t home : homes) {
      const std::uint64_t slot = std::max(home, next);
      total += slot - home;
      next = slot + 1;
    }
    carry = next > capacity ? next - capacity : 0;
  }
  return total;
}

DeviceHashTable::DeviceHashTable(gpusim::Device& device,
                                 std::size_t expected_keys, double headroom)
    : device_(&device) {
  DEDUKT_REQUIRE(headroom >= 1.0);
  const auto want = static_cast<std::size_t>(
      static_cast<double>(std::max<std::size_t>(expected_keys, 8)) *
      headroom);
  capacity_ = std::bit_ceil(want);
  DEDUKT_REQUIRE_MSG(capacity_ <= detail::kMaxCapacity,
                     "device hash table of " << capacity_
                                             << " slots exceeds 2^32");
  device.reserve(capacity_ * kSlotBytes);
}

DeviceHashTable::~DeviceHashTable() {
  device_->release(capacity_ * kSlotBytes);
}

/// Evaluate one count launch over `n` input elements of `elem_bytes`
/// each. `body(charges, add)` walks the launch's input in the order the
/// canonical block order would, charges what it extracts, and calls
/// `add(key, count)` once per global insert of `count` occurrences of
/// `key`, all inside one bulk add on the held table. An insert that `bloom`
/// (when given) absorbs as the key's first occurrence is dropped, and a
/// filtered claim adds 1 more to make up for it. Each insert reads its
/// terminal slot and does a CAS and an add (14 ops); each unit of
/// displacement that the launch's claims add is one more slot read and 4
/// ops.
template <typename Body>
gpusim::LaunchStats DeviceHashTable::launch(const char* name, std::size_t n,
                                            std::uint64_t elem_bytes,
                                            DeviceBloomFilter* bloom,
                                            Body&& body) {
  const auto shape = device_->shape_for(n);
  return device_->launch_host(name, shape.grid_dim, shape.block_dim,
                              [&](gpusim::KernelCharges& charges) {
    charges.count_gmem_read(n * elem_bytes);  // load each input element
    std::uint64_t inserts = 0;
    const std::size_t held_before = held_.unique();
    // Each walk counts in its own locals, which its flattened loop keeps in
    // registers; the unfiltered walk is a bulk add of its own, with no
    // filter test in its loop.
    if (bloom == nullptr) {
      held_.add_all([&](auto& add_held) {
        std::uint64_t walk_inserts = 0;
        std::size_t held_keys = held_before;
        body(charges, [&](std::uint64_t key, std::uint64_t count) {
          ++walk_inserts;
          if (add_held(key, count) && ++held_keys > capacity_) table_full();
        });
        inserts = walk_inserts;
      });
    } else {
      held_.add_all([&](auto& add_held) {
        std::uint64_t walk_inserts = 0;
        std::size_t held_keys = held_before;
        body(charges, [&](std::uint64_t key, std::uint64_t count) {
          if (!bloom->test_and_set(key, charges)) return;
          ++walk_inserts;
          if (add_held(key, count)) {
            if (++held_keys > capacity_) table_full();
            add_held(key, 1);
          }
        });
        inserts = walk_inserts;
      });
    }
    const std::uint64_t walked = added_displacement();
    charges.count_gmem_read((inserts + walked) * sizeof(std::uint64_t));
    charges.count_atomic(2 * inserts);
    charges.count_ops(14 * inserts + 4 * walked);
  });
}

/// Re-derive the held keys' total displacement in the modeled table and
/// return what it grew by since the last launch.
std::uint64_t DeviceHashTable::added_displacement() {
  std::vector<std::uint32_t> homes;
  homes.reserve(held_.unique());
  const std::uint64_t mask = capacity_ - 1;
  held_.for_each([&](std::uint64_t key, std::uint64_t) {
    homes.push_back(
        static_cast<std::uint32_t>(hash::hash_u64(key, kProbeSeed) & mask));
  });
  const std::uint64_t total = detail::total_displacement(homes, capacity_);
  const std::uint64_t added = total - displacement_;
  displacement_ = total;
  return added;
}

gpusim::LaunchStats DeviceHashTable::count_kmers(
    const gpusim::DeviceBuffer<std::uint64_t>& kmers, std::size_t n,
    DeviceBloomFilter* bloom) {
  DEDUKT_REQUIRE(n <= kmers.size());
  const std::span<const std::uint64_t> run = kmers.span().first(n);
  return count_kmers({&run, 1}, bloom);
}

gpusim::LaunchStats DeviceHashTable::count_kmers(
    std::span<const std::span<const std::uint64_t>> runs,
    DeviceBloomFilter* bloom) {
  std::size_t n = 0;
  for (const auto run : runs) n += run.size();
  return launch(
      bloom != nullptr ? "hash_count_kmers_filtered" : "hash_count_kmers", n,
      sizeof(std::uint64_t), bloom,
      [&](gpusim::KernelCharges&, auto&& add) {
        for (const auto run : runs) {
          for (const std::uint64_t key : run) add(key, 1);
        }
      });
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
  const Word* words = supermers.data();
  const std::uint8_t* lens = lengths.data();
  return launch(name, n, sizeof(Word) + sizeof(std::uint8_t), bloom,
                [&](gpusim::KernelCharges& charges, auto&& add) {
    std::uint64_t kmers = 0;
    const auto count_kmer = [&](kmer::KmerCode code) {
      ++kmers;
      add(code, 1);
    };
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (kWide) {
        kmer::for_each_kmer_in_wide_supermer(
            kmer::PackedWideSupermer{words[i], lens[i]}, k, count_kmer);
      } else {
        kmer::for_each_kmer_in_supermer(
            kmer::PackedSupermer{words[i], lens[i]}, k, count_kmer);
      }
    }
    // Shift+mask extraction (§IV-B), two words in the wide form.
    charges.count_ops(kmers * (kWide ? 8 : 6));
  });
}

template gpusim::LaunchStats DeviceHashTable::count_supermers<std::uint64_t>(
    const gpusim::DeviceBuffer<std::uint64_t>&,
    const gpusim::DeviceBuffer<std::uint8_t>&, std::size_t, int,
    DeviceBloomFilter*);
template gpusim::LaunchStats DeviceHashTable::count_supermers<kmer::WideKey>(
    const gpusim::DeviceBuffer<kmer::WideKey>&,
    const gpusim::DeviceBuffer<std::uint8_t>&, std::size_t, int,
    DeviceBloomFilter*);

gpusim::LaunchStats DeviceHashTable::accumulate_pairs(
    const gpusim::DeviceBuffer<std::uint64_t>& keys_in,
    const gpusim::DeviceBuffer<std::uint32_t>& key_counts, std::size_t n) {
  DEDUKT_REQUIRE(n <= keys_in.size());
  DEDUKT_REQUIRE(n <= key_counts.size());
  const std::uint64_t* in_keys = keys_in.data();
  const std::uint32_t* in_counts = key_counts.data();
  return launch("hash_accumulate_pairs", n,
                sizeof(std::uint64_t) + sizeof(std::uint32_t),
                /*bloom=*/nullptr,
                [&](gpusim::KernelCharges&, auto&& add) {
    for (std::size_t i = 0; i < n; ++i) add(in_keys[i], in_counts[i]);
  });
}

std::size_t DeviceHashTable::unique() {
  return static_cast<std::size_t>(
      reduce_slots(*device_, "hash_reduce_unique", capacity_,
                   sizeof(std::uint64_t), held_.unique()));
}

std::uint64_t DeviceHashTable::total() {
  return reduce_slots(*device_, "hash_reduce_total", capacity_,
                      sizeof(std::uint32_t), held_.total());
}

void DeviceHashTable::read_out(HostHashTable& into) && {
  const std::uint64_t entries = held_.unique();
  reduce_slots(*device_, "hash_reduce_unique", capacity_,
               sizeof(std::uint64_t), entries);
  if (entries > 0) {
    const std::uint64_t bytes = entries * kSlotBytes;
    device_->reserve(bytes);
    device_->price_transfer(gpusim::Device::Link::kToHost, bytes);
    device_->release(bytes);
  }
  if (into.unique() == 0) {
    std::swap(into, held_);
  } else {
    into.merge(held_);
  }
  held_ = HostHashTable();
  displacement_ = 0;
}

}  // namespace dedukt::core
