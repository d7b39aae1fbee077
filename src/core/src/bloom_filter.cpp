#include "dedukt/core/bloom_filter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "dedukt/hash/murmur3.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

namespace {
constexpr std::uint64_t kBloomSeed1 = 0xB100Fu;
constexpr std::uint64_t kBloomSeed2 = 0xF117E2u;
}  // namespace

DeviceBloomFilter::DeviceBloomFilter(gpusim::Device& device,
                                     std::uint64_t expected_keys,
                                     double bits_per_key)
    : device_(&device) {
  DEDUKT_REQUIRE(bits_per_key >= 1.0);
  const auto want = static_cast<std::uint64_t>(
      static_cast<double>(std::max<std::uint64_t>(expected_keys, 64)) *
      bits_per_key);
  const std::uint64_t nbits = std::max<std::uint64_t>(std::bit_ceil(want), 64);
  words_ = device.alloc<std::uint64_t>(nbits / 64, std::uint64_t{0});
  word_mask_ = nbits / 64 - 1;
}

bool DeviceBloomFilter::test_and_set(std::uint64_t key,
                                     gpusim::KernelCharges& charges) {
  // Blocked filter: one hash picks the 64-bit block, a second supplies
  // kHashes in-block bit positions (6 bits each). The read-modify-write is
  // the device's single atomicOr.
  const std::uint64_t word = hash::hash_u64(key, kBloomSeed1) & word_mask_;
  const std::uint64_t h2 = hash::hash_u64(key, kBloomSeed2);
  std::uint64_t mask = 0;
  for (int i = 0; i < kHashes; ++i) {
    mask |= std::uint64_t{1} << ((h2 >> (6 * i)) & 63);
  }
  const std::uint64_t previous = words_[word];
  words_[word] = previous | mask;
  charges.count_atomic();
  charges.count_gmem_read(sizeof(std::uint64_t));
  charges.count_ops(4 + 2 * kHashes);
  return (previous & mask) == mask;
}

double DeviceBloomFilter::expected_fp_rate(std::uint64_t keys) const {
  const double fill =
      1.0 - std::exp(-static_cast<double>(kHashes) *
                     static_cast<double>(keys) /
                     static_cast<double>(bits()));
  return std::pow(fill, kHashes);
}

}  // namespace dedukt::core
