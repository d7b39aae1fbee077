// Device-side k-mer counter (§III-B3).
//
// The paper counts in an open-addressing hash table in GPU global memory:
// one 64-bit key slot array (all-ones = empty) and one 32-bit count array.
// Its count kernel runs one thread per received k-mer, claims a slot with
// an atomic CAS, bumps the count with an atomic add and probes linearly on
// collision. A second kernel variant first extracts the k-mers of each
// received supermer, then counts them (§IV-B). Every occurrence is one
// insert into the global table.
//
// The simulation keeps that table's modeled capacity but stores only the
// keys it holds. The capacity is what the model sees: the device reserves
// 12 bytes per slot for the table's lifetime, the reductions are priced
// over every slot, and claims are charged the probes they walk in a table
// of that many slots. The (key, count) pairs live in a host table that grows with
// its keys. Each launch is evaluated on the host (Device::launch_host): it
// walks its input in index order and prices itself in closed form. Every
// insert is charged one probe, a CAS and an add. The claims are charged
// the linear-probing displacement they add. That total depends only on
// the multiset of the held keys' home slots (the parking-function
// property), so it comes from their sorted home slots, with no slot
// array. The per-thread CAS kernel that this evaluates is the hash
// battery's oracle (tests/core/device_hash_table_oracle_test.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/kmer/kmer.hpp"
#include "dedukt/kmer/wide.hpp"

namespace dedukt::core {

class DeviceBloomFilter;

class DeviceHashTable {
 public:
  /// Seed for the slot hash (shared with HostHashTable so both tables probe
  /// identically).
  static constexpr std::uint64_t kProbeSeed = 0x7AB1Eu;

  /// Build a table on `device` with capacity for `expected_keys` at the
  /// given headroom factor (capacity is rounded up to a power of two), and
  /// reserve its 12 bytes per slot of device memory until destruction.
  /// `device` must outlive the table.
  DeviceHashTable(gpusim::Device& device, std::size_t expected_keys,
                  double headroom = 2.0);
  ~DeviceHashTable();
  DeviceHashTable(const DeviceHashTable&) = delete;
  DeviceHashTable& operator=(const DeviceHashTable&) = delete;

  /// Count kernel: one thread per k-mer in `kmers` (device buffer holding
  /// `n` packed codes). Throws SimulationError if the table fills up.
  ///
  /// With a `bloom` filter (BFCounter-style singleton suppression, see
  /// bloom_filter.hpp) a k-mer enters the table only on its second
  /// observed occurrence; the claiming insert adds 2 so surviving counts
  /// equal the true multiplicity (modulo Bloom false positives, which at
  /// worst admit a singleton or add +1). Occurrences reach the filter in
  /// index order, so which occurrence the filter absorbs — and every
  /// count and charge — is that of the canonical block order.
  gpusim::LaunchStats count_kmers(
      const gpusim::DeviceBuffer<std::uint64_t>& kmers, std::size_t n,
      DeviceBloomFilter* bloom = nullptr);

  /// Supermer count kernel: one thread per supermer; each extracts its
  /// k-mers (Algorithm 2 COUNTKMER) and inserts them. `Word` is
  /// std::uint64_t for the paper's single-word supermers or kmer::WideKey
  /// for the two-word extension (k stays <= 31, so the extracted k-mers
  /// are narrow). `bloom` filters as in count_kmers.
  template <typename Word>
  gpusim::LaunchStats count_supermers(
      const gpusim::DeviceBuffer<Word>& supermers,
      const gpusim::DeviceBuffer<std::uint8_t>& lengths, std::size_t n, int k,
      DeviceBloomFilter* bloom = nullptr);

  /// Accumulation kernel for source-side consolidation (paper footnote 1):
  /// one thread per received (k-mer, local-count) pair; adds `counts[i]`
  /// occurrences of `keys[i]` in one atomic add.
  gpusim::LaunchStats accumulate_pairs(
      const gpusim::DeviceBuffer<std::uint64_t>& keys,
      const gpusim::DeviceBuffer<std::uint32_t>& key_counts, std::size_t n);

  /// Modeled slot count.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Distinct keys currently stored. Priced as a block-reduction kernel
  /// over the key slots plus an 8-byte D2H transfer of the result (hence
  /// non-const: it advances the device timeline).
  [[nodiscard]] std::size_t unique();

  /// Sum of all counts. Priced like unique(): reduction kernel + D2H.
  [[nodiscard]] std::uint64_t total();

  /// Copy all (key, count) pairs to the host. Priced like a device
  /// readout: the unique() reduction kernel sizing the output, then a D2H
  /// transfer of 12 bytes per entry.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint32_t>>
  to_host();

 private:
  template <typename Body>
  gpusim::LaunchStats launch(const char* name, std::size_t n,
                             std::uint64_t elem_bytes, Body&& body);
  bool insert(gpusim::KernelCharges& charges, std::uint64_t key,
              std::uint64_t count, DeviceBloomFilter* bloom);
  std::uint64_t added_displacement();

  gpusim::Device* device_ = nullptr;
  std::size_t capacity_ = 0;
  HostHashTable held_;
  /// Total linear-probing displacement of the held keys in the modeled
  /// table, as of the last launch.
  std::uint64_t displacement_ = 0;
};

}  // namespace dedukt::core
