// Block-cooperative launches (Device::launch_blocks): a kernel run once per
// block must price, time and trace exactly like the same work run once per
// thread; its declared shared-memory footprint is checked against the
// device; and its counters must not depend on the host pool size. A
// host-evaluated launch (Device::launch_host) of the same work, its charges
// summed in closed form, must price, time and trace the same way too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "dedukt/gpusim/device.hpp"
#include "dedukt/trace/session.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/thread_pool.hpp"

namespace dedukt::gpusim {
namespace {

struct PoolGuard {
  ~PoolGuard() { util::ThreadPool::set_global_threads(1); }
};

constexpr std::uint32_t kGrid = 13;
constexpr std::uint32_t kBlock = 64;
constexpr std::size_t kN = kGrid * kBlock - 17;  // a partial last block
constexpr std::size_t kBins = 32;

std::vector<std::uint32_t> inputs() {
  std::vector<std::uint32_t> in(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    in[i] = static_cast<std::uint32_t>((i * 2654435761u) >> 7);
  }
  return in;
}

/// One in-range element's work, identical in both forms: a global read,
/// a shared-memory bin update and a content-dependent op charge.
void bin_value(KernelCharges& charges, std::uint32_t value,
               std::uint32_t* smem_bins) {
  charges.count_gmem_read(sizeof(std::uint32_t));
  smem_bins[value % kBins] += 1;
  charges.count_smem_atomic(1);
  charges.count_ops(1 + value % 3);
}

/// Per-thread form: every thread charges its share of the bin init and of
/// the bin scan; bins live in a block-indexed array standing in for
/// __shared__ memory.
LaunchStats per_thread_run(Device& device, const std::uint32_t* in,
                           std::vector<std::uint32_t>& bins) {
  return device.launch("block_form_probe", kGrid, kBlock,
                       [&](ThreadCtx& ctx) {
    ctx.count_smem_write(sizeof(std::uint32_t) * (kBins / kBlock + 1));
    ctx.count_smem_read(ctx.thread_idx() < kBins ? sizeof(std::uint32_t) : 0);
    const std::uint64_t i = ctx.global_id();
    if (i >= kN) return;
    bin_value(ctx, in[i], &bins[ctx.block_idx() * kBins]);
  });
}

/// Block form: the same work with the fixed costs in closed form.
LaunchStats block_run(Device& device, const std::uint32_t* in,
                      std::vector<std::uint32_t>& bins) {
  return device.launch_blocks(
      "block_form_probe", kGrid, kBlock, kBins * sizeof(std::uint32_t),
      [&](BlockCtx& block) {
        block.count_smem_write(std::uint64_t{kBlock} * sizeof(std::uint32_t) *
                               (kBins / kBlock + 1));
        block.count_smem_read(kBins * sizeof(std::uint32_t));
        const std::uint64_t first = block.first_global_id();
        for (std::uint32_t t = 0; t < block.threads_below(kN); ++t) {
          bin_value(block, in[first + t], &bins[block.block_idx() * kBins]);
        }
      });
}

/// Host form: the whole grid as one loop, the fixed costs summed over all
/// threads and blocks.
LaunchStats host_run(Device& device, const std::uint32_t* in,
                     std::vector<std::uint32_t>& bins) {
  return device.launch_host(
      "block_form_probe", kGrid, kBlock, [&](KernelCharges& charges) {
        charges.count_smem_write(std::uint64_t{kGrid} * kBlock *
                                 sizeof(std::uint32_t) * (kBins / kBlock + 1));
        charges.count_smem_read(std::uint64_t{kGrid} * kBins *
                                sizeof(std::uint32_t));
        for (std::size_t i = 0; i < kN; ++i) {
          bin_value(charges, in[i], &bins[(i / kBlock) * kBins]);
        }
      });
}

void expect_same_counters(const LaunchCounters& a, const LaunchCounters& b) {
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.gmem_read_bytes, b.gmem_read_bytes);
  EXPECT_EQ(a.gmem_write_bytes, b.gmem_write_bytes);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.smem_read_bytes, b.smem_read_bytes);
  EXPECT_EQ(a.smem_write_bytes, b.smem_write_bytes);
  EXPECT_EQ(a.smem_atomics, b.smem_atomics);
}

/// Run `form` (block_run or host_run) and per_thread_run, each on its own
/// device with tracing on, and check that the form's result, price,
/// timeline and span equal the per-thread form's.
template <typename Form>
void expect_same_as_per_thread(Form&& form) {
  const std::vector<std::uint32_t> in = inputs();
  trace::TraceSession& session = trace::TraceSession::instance();
  session.enable("");

  session.reset();
  Device per_thread_device;
  std::vector<std::uint32_t> per_thread_bins(kGrid * kBins, 0u);
  const LaunchStats per_thread =
      per_thread_run(per_thread_device, in.data(), per_thread_bins);
  const auto per_thread_spans =
      session.recorder(trace::SpanRecorder::kMainRank).spans_snapshot();

  session.reset();
  Device block_device;
  std::vector<std::uint32_t> block_bins(kGrid * kBins, 0u);
  const LaunchStats block = form(block_device, in.data(), block_bins);
  const auto block_spans =
      session.recorder(trace::SpanRecorder::kMainRank).spans_snapshot();
  session.disable();

  EXPECT_EQ(block_bins, per_thread_bins);
  EXPECT_GT(block.counters.smem_read_bytes, 0u);
  expect_same_counters(block.counters, per_thread.counters);
  EXPECT_EQ(block.modeled_seconds, per_thread.modeled_seconds);
  EXPECT_EQ(block_device.timeline().kernel_seconds,
            per_thread_device.timeline().kernel_seconds);
  EXPECT_EQ(block_device.timeline().volume_seconds,
            per_thread_device.timeline().volume_seconds);
  EXPECT_EQ(block_device.timeline().launches, 1u);

  ASSERT_EQ(block_spans.size(), 1u);
  ASSERT_EQ(per_thread_spans.size(), 1u);
  const trace::SpanRecord& b = block_spans[0];
  const trace::SpanRecord& p = per_thread_spans[0];
  EXPECT_EQ(b.name, p.name);
  EXPECT_EQ(b.track, p.track);
  EXPECT_EQ(b.modeled_seconds, p.modeled_seconds);
  EXPECT_EQ(b.modeled_volume_seconds, p.modeled_volume_seconds);
  EXPECT_EQ(b.smem_read_bytes, p.smem_read_bytes);
  EXPECT_EQ(b.smem_write_bytes, p.smem_write_bytes);
  EXPECT_EQ(b.smem_atomics, p.smem_atomics);
  ASSERT_EQ(b.args.size(), p.args.size());
  for (std::size_t i = 0; i < b.args.size(); ++i) {
    EXPECT_EQ(b.args[i].key, p.args[i].key);
    EXPECT_EQ(b.args[i].json, p.args[i].json);
  }
}

TEST(BlockLaunchTest, MatchesTheSameWorkRunPerThread) {
  expect_same_as_per_thread(block_run);
}

TEST(HostLaunchTest, MatchesTheSameWorkRunPerThread) {
  expect_same_as_per_thread(host_run);
}

TEST(BlockLaunchTest, BodyRunsOncePerBlock) {
  Device device;
  std::vector<std::uint32_t> calls(kGrid, 0u);
  const LaunchStats stats = device.launch_blocks(
      "once_per_block", kGrid, kBlock, /*smem_bytes=*/0,
      [&](BlockCtx& block) {
        EXPECT_EQ(block.block_dim(), kBlock);
        EXPECT_EQ(block.grid_dim(), kGrid);
        EXPECT_EQ(block.first_global_id(),
                  std::uint64_t{block.block_idx()} * kBlock);
        ++calls[block.block_idx()];
      });
  EXPECT_EQ(calls, std::vector<std::uint32_t>(kGrid, 1u));
  EXPECT_EQ(stats.counters.threads, std::uint64_t{kGrid} * kBlock);
}

TEST(BlockLaunchTest, ThreadsBelowCountsTheInRangeThreads) {
  Device device;
  std::vector<std::uint32_t> active(kGrid, 0u);
  device.launch_blocks("threads_below", kGrid, kBlock, 0,
                       [&](BlockCtx& block) {
    active[block.block_idx()] = block.threads_below(kN);
  });
  for (std::uint32_t b = 0; b + 1 < kGrid; ++b) EXPECT_EQ(active[b], kBlock);
  EXPECT_EQ(active[kGrid - 1], kBlock - 17);
  device.launch_blocks("threads_below", 2, kBlock, 0, [&](BlockCtx& block) {
    if (block.block_idx() == 1) {
      EXPECT_EQ(block.threads_below(kBlock), 0u);
    }
  });
}

TEST(BlockLaunchTest, CountersIdenticalAcrossPoolSizes) {
  // A block kernel whose charges depend on shared-memory contents must
  // report identical counters for every pool size, including sizes above
  // the host's core count: blocks run whole on one worker and merge
  // deterministically.
  PoolGuard guard;
  const std::vector<std::uint32_t> in = inputs();
  struct Run {
    LaunchStats stats;
    std::vector<std::uint32_t> bins;
  };
  auto run = [&](unsigned pool_threads) {
    util::ThreadPool::set_global_threads(pool_threads);
    Device device;
    Run r{LaunchStats{}, std::vector<std::uint32_t>(kGrid * kBins, 0u)};
    r.stats = block_run(device, in.data(), r.bins);
    return r;
  };
  const Run base = run(1);
  for (const unsigned threads : {2u, 4u, 8u, 16u}) {
    SCOPED_TRACE(testing::Message() << "pool size " << threads);
    const Run r = run(threads);
    EXPECT_EQ(r.bins, base.bins);
    expect_same_counters(r.stats.counters, base.stats.counters);
    EXPECT_EQ(r.stats.modeled_seconds, base.stats.modeled_seconds);
  }
}

TEST(SharedMemoryTest, ChargesFlowIntoCountersAndRoofline) {
  Device device;
  const auto stats = device.launch_blocks(
      "smem_traffic", 4, 64, /*smem_bytes=*/64, [](BlockCtx& block) {
        block.count_smem_write(64 * 64);
        block.count_smem_read(64 * 128);
        block.count_smem_atomic(64 * 3);
      });
  const std::uint64_t threads = 4ull * 64;
  EXPECT_EQ(stats.counters.smem_write_bytes, threads * 64);
  EXPECT_EQ(stats.counters.smem_read_bytes, threads * 128);
  EXPECT_EQ(stats.counters.smem_atomics, threads * 3);

  // The launch does nothing else, so the smem-atomic roofline term must be
  // the binding one: atomics / smem_atomic_throughput (plus launch
  // overhead).
  const double expected =
      device.props().launch_overhead +
      static_cast<double>(threads * 3) / device.props().smem_atomic_throughput;
  EXPECT_NEAR(stats.modeled_seconds, expected, expected * 1e-9);
}

TEST(SharedMemoryTest, ExhaustingBlockBudgetThrows) {
  Device device;
  const std::uint64_t budget = device.props().smem_bytes_per_block;
  ASSERT_EQ(budget, 96u << 10);
  bool ran = false;
  EXPECT_THROW(device.launch_blocks("smem_overflow", 1, 1, budget + 1,
                                    [&](BlockCtx&) { ran = true; }),
               SimulationError);
  EXPECT_FALSE(ran);
  EXPECT_EQ(device.timeline().launches, 0u);
  // Exactly the budget fits.
  device.launch_blocks("smem_full", 1, 1, budget, [&](BlockCtx&) {
    ran = true;
  });
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace dedukt::gpusim
