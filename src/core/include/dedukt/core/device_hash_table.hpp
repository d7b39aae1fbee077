// Device-side k-mer counter (§III-B3).
//
// Open-addressing hash table in simulated GPU global memory: one 64-bit key
// slot array (all-ones = empty) and one 32-bit count array. Insertion is a
// GPU kernel — one thread per received k-mer — using an atomic CAS to claim
// a slot and an atomic add to bump the count, with linear probing on
// collision, exactly as the paper describes. A second kernel variant first
// extracts the k-mers of each received supermer, then counts them (§IV-B).
// Every occurrence is one insert into the global table.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

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
  /// given headroom factor (capacity is rounded up to a power of two).
  DeviceHashTable(gpusim::Device& device, std::size_t expected_keys,
                  double headroom = 2.0);

  /// Count kernel: one thread per k-mer in `kmers` (device buffer holding
  /// `n` packed codes). Throws SimulationError if the table fills up.
  ///
  /// With a `bloom` filter (BFCounter-style singleton suppression, see
  /// bloom_filter.hpp) a k-mer enters the table only on its second
  /// observed occurrence; the claiming insert adds 2 so surviving counts
  /// equal the true multiplicity (modulo Bloom false positives, which at
  /// worst admit a singleton or add +1). Filtered launches run in the
  /// canonical block order, so which occurrence the filter absorbs — and
  /// every count and charge — is the same at any DEDUKT_SIM_THREADS.
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

  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

  /// Distinct keys currently stored. Priced as a block-reduction kernel
  /// over the key slots plus an 8-byte D2H transfer of the result (hence
  /// non-const: it advances the device timeline).
  [[nodiscard]] std::size_t unique();

  /// Sum of all counts. Priced like unique(): reduction kernel + D2H.
  [[nodiscard]] std::uint64_t total();

  /// Copy all (key, count) pairs to the host with one host scan. Priced
  /// like a device readout: the unique() reduction kernel sizing the
  /// output, then a D2H transfer of 12 bytes per entry.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint32_t>>
  to_host();

 private:
  gpusim::Device* device_ = nullptr;
  gpusim::DeviceBuffer<std::uint64_t> keys_;
  gpusim::DeviceBuffer<std::uint32_t> counts_;
  std::size_t mask_ = 0;
};

}  // namespace dedukt::core
