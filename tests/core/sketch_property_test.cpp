// Count-min sketch property battery (ctest -L sketch).
//
// The sketch's guarantees are probabilistic, so these tests are
// property-based: seeded deterministic generators drive >= 1000 trials per
// claim and the claims are asserted exactly (the seeds are fixed, so a
// failure is reproducible, not flaky).
//
//  * one-sidedness: estimate >= true count, always, both disciplines;
//  * the classic (eps, delta) bound at three (width, depth) points:
//    estimate <= true + eps*N fails with rate <= delta = e^-depth for
//    eps = e/width over a stream of length N;
//  * conservative update <= vanilla, cell-for-cell;
//  * merge(A, B) of vanilla sketches is bit-identical to sketching the
//    concatenated stream;
//  * the device kernels match the host reference cell-for-cell (vanilla
//    via the commutative smem-aggregated kernel, conservative via the
//    order-pinned kernel) at any DEDUKT_SIM_THREADS pool size.
#include "dedukt/core/sketch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "dedukt/util/rng.hpp"
#include "dedukt/util/thread_pool.hpp"

namespace dedukt::core {
namespace {

struct PoolGuard {
  ~PoolGuard() { util::ThreadPool::set_global_threads(1); }
};

/// One random stream: `n` occurrences drawn from a `domain`-key universe.
std::vector<std::uint64_t> random_stream(Xoshiro256& rng, std::size_t n,
                                         std::uint64_t domain) {
  // A per-stream random base spreads the universe across u64 space so
  // different trials exercise different hash cells.
  const std::uint64_t base = rng();
  std::vector<std::uint64_t> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back(base + rng.below(domain) * 0x9E3779B97F4A7C15ull);
  }
  return stream;
}

std::map<std::uint64_t, std::uint64_t> true_counts(
    const std::vector<std::uint64_t>& stream) {
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const std::uint64_t key : stream) ++counts[key];
  return counts;
}

HostCountMinSketch sketch_stream(const std::vector<std::uint64_t>& stream,
                                 SketchParams params) {
  HostCountMinSketch sketch(params);
  for (const std::uint64_t key : stream) sketch.update(key);
  return sketch;
}

TEST(SketchPropertyTest, EstimateNeverUndercounts) {
  // 1200 trials, both disciplines, every distinct key checked. The
  // one-sided guarantee is absolute, not probabilistic: zero violations.
  Xoshiro256 rng(101);
  for (int trial = 0; trial < 1200; ++trial) {
    SketchParams params;
    params.width = 16u << rng.below(3);  // 16, 32 or 64: heavy collisions
    params.depth = 1 + static_cast<std::uint32_t>(rng.below(4));
    params.conservative = (trial % 2) == 1;
    const auto stream = random_stream(rng, 256, 128);
    const HostCountMinSketch sketch = sketch_stream(stream, params);
    for (const auto& [key, count] : true_counts(stream)) {
      ASSERT_GE(sketch.estimate(key), count)
          << "trial " << trial << " undercounted key " << key;
    }
  }
}

TEST(SketchPropertyTest, ErrorBoundHoldsAtThreeShapes) {
  // P[estimate > true + (e/width)*N] <= e^-depth. Fixed seeds make the
  // observed failure count deterministic; the bound is loose in practice,
  // so asserting <= delta * trials exactly is robust, not flaky.
  struct Shape {
    std::uint32_t width, depth;
  };
  const Shape shapes[] = {{64, 2}, {128, 3}, {256, 4}};
  constexpr int kTrials = 1200;
  constexpr std::size_t kStream = 1024;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(testing::Message()
                 << "width " << shape.width << " depth " << shape.depth);
    const double eps = std::exp(1.0) / shape.width;
    const double delta = std::exp(-static_cast<double>(shape.depth));
    const auto budget =
        static_cast<std::uint64_t>(eps * static_cast<double>(kStream));
    Xoshiro256 rng(2000 + shape.width);
    int failures = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      SketchParams params;
      params.width = shape.width;
      params.depth = shape.depth;
      const auto stream = random_stream(rng, kStream, 4096);
      const HostCountMinSketch sketch = sketch_stream(stream, params);
      // Query one random key from the stream (the bound is per-query).
      const std::uint64_t probe = stream[rng.below(stream.size())];
      const std::uint64_t truth = true_counts(stream).at(probe);
      if (sketch.estimate(probe) > truth + budget) ++failures;
    }
    EXPECT_LE(failures, static_cast<int>(delta * kTrials))
        << failures << " of " << kTrials << " trials broke the bound";
  }
}

TEST(SketchPropertyTest, ConservativeNeverExceedsVanilla) {
  // Conservative update raises only minimum cells, so by induction every
  // cell is <= its vanilla counterpart after any common stream.
  Xoshiro256 rng(303);
  for (int trial = 0; trial < 200; ++trial) {
    SketchParams vanilla_params;
    vanilla_params.width = 64;
    vanilla_params.depth = 3;
    SketchParams cu_params = vanilla_params;
    cu_params.conservative = true;
    const auto stream = random_stream(rng, 512, 256);
    const HostCountMinSketch vanilla = sketch_stream(stream, vanilla_params);
    const HostCountMinSketch cu = sketch_stream(stream, cu_params);
    for (std::size_t i = 0; i < vanilla.cells().size(); ++i) {
      ASSERT_LE(cu.cells()[i], vanilla.cells()[i])
          << "trial " << trial << " cell " << i;
    }
    // And the tighter estimates are still one-sided (checked en masse in
    // EstimateNeverUndercounts; spot-check the coupling here).
    for (const auto& [key, count] : true_counts(stream)) {
      ASSERT_GE(cu.estimate(key), count);
      ASSERT_LE(cu.estimate(key), vanilla.estimate(key));
    }
  }
}

TEST(SketchPropertyTest, MergeEqualsConcatenatedStream) {
  // Vanilla cells are a pure function of the input multiset, so cell-wise
  // summing per-part sketches must be BIT-identical to one sketch of the
  // whole stream — the property the distributed allreduce merge rests on.
  Xoshiro256 rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    SketchParams params;
    params.width = 128;
    params.depth = 4;
    const auto stream = random_stream(rng, 1024, 512);
    const std::size_t cut = rng.below(stream.size());
    const std::vector<std::uint64_t> left(stream.begin(),
                                          stream.begin() + cut);
    const std::vector<std::uint64_t> right(stream.begin() + cut,
                                           stream.end());
    HostCountMinSketch merged = sketch_stream(left, params);
    merged.merge(sketch_stream(right, params));
    const HostCountMinSketch whole = sketch_stream(stream, params);
    ASSERT_EQ(merged.cells(), whole.cells()) << "trial " << trial;
    ASSERT_EQ(merged.total_updates(), whole.total_updates());
  }
}

TEST(SketchPropertyTest, MergeRejectsShapeMismatch) {
  SketchParams a;
  a.width = 64;
  SketchParams b;
  b.width = 128;
  HostCountMinSketch left(a);
  EXPECT_THROW(left.merge(HostCountMinSketch(b)), PreconditionError);
}

TEST(SketchPropertyTest, ParamsValidateShape) {
  SketchParams params;
  params.width = 48;  // not a power of two
  EXPECT_THROW(params.validate(), PreconditionError);
  params.width = 8;  // too small
  EXPECT_THROW(params.validate(), PreconditionError);
  params.width = 64;
  params.depth = 0;
  EXPECT_THROW(params.validate(), PreconditionError);
  params.depth = 13;
  EXPECT_THROW(params.validate(), PreconditionError);
  params.depth = 4;
  EXPECT_NO_THROW(params.validate());
}

std::vector<std::uint32_t> device_update_cells(
    const std::vector<std::uint64_t>& stream, SketchParams params) {
  gpusim::Device device;
  auto d_keys = device.alloc<std::uint64_t>(stream.size());
  device.copy_to_device<std::uint64_t>(stream, d_keys);
  DeviceCountMinSketch sketch(device, params);
  sketch.update(d_keys, stream.size());
  device.free(d_keys);
  return sketch.to_host();
}

TEST(SketchPropertyTest, VanillaKernelMatchesHostCellForCell) {
  // The smem-aggregated kernel ends in commutative global adds, so its
  // cells must equal the host reference exactly — including streams that
  // overflow the shared table's probe bound.
  Xoshiro256 rng(505);
  for (int trial = 0; trial < 20; ++trial) {
    SketchParams params;
    params.width = 256;
    params.depth = 4;
    // Alternate skewed (few hot keys — smem aggregation dominant) and wide
    // (many keys — probe-overflow fallback exercised) streams.
    const std::uint64_t domain = (trial % 2) == 0 ? 16 : 40000;
    const auto stream = random_stream(rng, 8192, domain);
    EXPECT_EQ(device_update_cells(stream, params),
              sketch_stream(stream, params).cells())
        << "trial " << trial;
  }
}

TEST(SketchPropertyTest, ConservativeKernelMatchesHostCellForCell) {
  // The conservative kernel updates in input order, making it
  // bit-identical to the sequential host reference.
  Xoshiro256 rng(606);
  for (int trial = 0; trial < 10; ++trial) {
    SketchParams params;
    params.width = 128;
    params.depth = 3;
    params.conservative = true;
    const auto stream = random_stream(rng, 4096, 64);
    EXPECT_EQ(device_update_cells(stream, params),
              sketch_stream(stream, params).cells())
        << "trial " << trial;
  }
}

TEST(SketchPropertyTest, KernelsDeterministicAcrossPoolSizes) {
  // DEDUKT_SIM_THREADS must not change a single cell, for either kernel.
  PoolGuard guard;
  Xoshiro256 rng(707);
  const auto stream = random_stream(rng, 16384, 512);
  for (const bool conservative : {false, true}) {
    SketchParams params;
    params.width = 256;
    params.depth = 4;
    params.conservative = conservative;
    util::ThreadPool::set_global_threads(1);
    const auto sequential = device_update_cells(stream, params);
    util::ThreadPool::set_global_threads(4);
    EXPECT_EQ(device_update_cells(stream, params), sequential)
        << (conservative ? "conservative" : "vanilla");
  }
}

TEST(SketchPropertyTest, EstimateKernelMatchesHost) {
  Xoshiro256 rng(808);
  SketchParams params;
  params.width = 256;
  params.depth = 4;
  const auto stream = random_stream(rng, 8192, 1024);
  const HostCountMinSketch host = sketch_stream(stream, params);

  std::vector<std::uint64_t> queries = random_stream(rng, 1000, 2048);
  gpusim::Device device;
  auto d_keys = device.alloc<std::uint64_t>(queries.size());
  device.copy_to_device<std::uint64_t>(queries, d_keys);
  DeviceCountMinSketch sketch(device, params);
  sketch.load(host.cells());
  auto d_out = device.alloc<std::uint32_t>(queries.size());
  sketch.estimate(d_keys, queries.size(), d_out);
  std::vector<std::uint32_t> estimates(queries.size());
  device.copy_to_host(d_out, std::span<std::uint32_t>(estimates));
  device.free(d_keys);
  device.free(d_out);
  sketch.release();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(estimates[i], host.estimate(queries[i])) << "query " << i;
  }
}

}  // namespace
}  // namespace dedukt::core
