// Device-resident Bloom filter for singleton k-mer suppression.
//
// The CPU baseline's ancestry (diBELLA / HipMer k-mer analysis, and
// Melsted & Pritchard's BFCounter, cited as [20]) uses Bloom filters so
// that k-mers seen only once — overwhelmingly sequencing errors in real
// data — never occupy hash-table slots. This is the same optimization on
// the simulated GPU, implemented as a *blocked* Bloom filter (Gerbil
// style): all kHashes bits of a key live in one 64-bit word, chosen by a
// first hash, with the in-word bit positions drawn from a second hash.
//
// Blocking is not just a cache/traffic optimization: on the GPU, testing
// and setting all of a key's bits is ONE atomicOr, so the "was this key
// seen before?" decision is totally ordered — of all concurrent
// occurrences of the same key, exactly one observes incomplete bits. The
// scattered multi-word variant could absorb two simultaneous first
// occurrences and silently undercount.
//
// Filtered counting semantics (DeviceHashTable::count_kmers with a filter):
// a k-mer enters the counting table on its second observed occurrence, and
// the claiming insert adds 2 to compensate for the absorbed first
// occurrence — so surviving k-mers carry their exact multiplicity, and
// false positives (rate configurable via bits_per_key) at worst admit a
// singleton or add +1.
#pragma once

#include <cstdint>

#include "dedukt/gpusim/device.hpp"

namespace dedukt::core {

class DeviceBloomFilter {
 public:
  /// Number of bits set/tested per key, all within one 64-bit block.
  static constexpr int kHashes = 4;

  /// Sized for `expected_keys` distinct keys at `bits_per_key` bits each
  /// (8 bits/key with 4 hashes gives a few percent false positives; 16
  /// gives well under 1%).
  DeviceBloomFilter(gpusim::Device& device, std::uint64_t expected_keys,
                    double bits_per_key = 12.0);

  /// Device-side test-and-set of a single key; returns true if all bits
  /// were already set (the key was — probably — seen before). Charged as
  /// one atomicOr on the key's block. Called by the filtered count
  /// launches (DeviceHashTable) for each occurrence, in index order.
  [[nodiscard]] bool test_and_set(std::uint64_t key,
                                  gpusim::KernelCharges& charges);

  /// Bits in the filter (power of two, >= 64).
  [[nodiscard]] std::uint64_t bits() const { return (word_mask_ + 1) * 64; }

  /// Expected false-positive rate for `keys` inserted distinct keys,
  /// using the classic unblocked estimate (1 - e^(-kh*keys/bits))^kh. The
  /// blocked layout's true rate is slightly higher (block loads vary),
  /// but this remains the headline approximation.
  [[nodiscard]] double expected_fp_rate(std::uint64_t keys) const;

 private:
  gpusim::Device* device_;
  gpusim::DeviceBuffer<std::uint64_t> words_;
  std::uint64_t word_mask_ = 0;  ///< word count - 1
};

}  // namespace dedukt::core
