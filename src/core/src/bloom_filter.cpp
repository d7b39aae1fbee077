#include "dedukt/core/bloom_filter.hpp"

#include <algorithm>
#include <atomic>
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
  // kHashes in-block bit positions (6 bits each). The single fetch_or is
  // the simulated atomicOr and doubles as the linearization point — of
  // all concurrent test_and_sets of this key, exactly one observes the
  // block without its full mask, so exactly one first occurrence is
  // absorbed by the filtered-counting path no matter the interleaving.
  const std::uint64_t word = hash::hash_u64(key, kBloomSeed1) & word_mask_;
  const std::uint64_t h2 = hash::hash_u64(key, kBloomSeed2);
  std::uint64_t mask = 0;
  for (int i = 0; i < kHashes; ++i) {
    mask |= std::uint64_t{1} << ((h2 >> (6 * i)) & 63);
  }
  std::atomic_ref<std::uint64_t> block(words_[word]);
  const std::uint64_t previous =
      block.fetch_or(mask, std::memory_order_relaxed);
  charges.count_atomic();
  charges.count_gmem_read(sizeof(std::uint64_t));
  charges.count_ops(4 + 2 * kHashes);
  return (previous & mask) == mask;
}

gpusim::LaunchStats DeviceBloomFilter::test_and_insert(
    const gpusim::DeviceBuffer<std::uint64_t>& kmers, std::size_t n,
    gpusim::DeviceBuffer<std::uint8_t>& out_seen) {
  DEDUKT_REQUIRE(n <= kmers.size());
  DEDUKT_REQUIRE(n <= out_seen.size());
  const std::uint64_t* in = kmers.data();
  std::uint8_t* out = out_seen.data();

  const auto shape = device_->shape_for(n);
  return device_->launch("bloom_test_and_insert",
                         shape.grid_dim, shape.block_dim,
                         [=, this](gpusim::ThreadCtx& ctx) {
    const std::uint64_t i = ctx.global_id();
    if (i >= n) return;
    ctx.count_gmem_read(sizeof(std::uint64_t));
    out[i] = test_and_set(in[i], ctx) ? 1 : 0;
    ctx.count_gmem_write(1);
  });
}

double DeviceBloomFilter::expected_fp_rate(std::uint64_t keys) const {
  const double fill =
      1.0 - std::exp(-static_cast<double>(kHashes) *
                     static_cast<double>(keys) /
                     static_cast<double>(bits()));
  return std::pow(fill, kHashes);
}

}  // namespace dedukt::core
