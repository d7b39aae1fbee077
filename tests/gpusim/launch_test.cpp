// Device::launch_host, the one launch form, and the sequential per-thread
// runner the oracle tests run their reference kernels through
// (support/kernel_runner.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dedukt/gpusim/device.hpp"
#include "dedukt/util/error.hpp"
#include "support/kernel_runner.hpp"

namespace dedukt::gpusim {
namespace {

using test_support::launch_per_thread;
using test_support::ThreadCtx;

TEST(LaunchTest, EveryThreadRunsOnce) {
  Device device;
  auto flags = device.alloc<std::uint32_t>(1024, 0u);
  auto* data = flags.data();
  launch_per_thread(device, "every_thread", 4, 256,
                    [=](ThreadCtx& ctx) { data[ctx.global_id()] += 1; });
  for (std::size_t i = 0; i < 1024; ++i) EXPECT_EQ(flags[i], 1u);
}

TEST(LaunchTest, ThreadIdsAreConsistent) {
  // Threads run in the canonical block order: global ids ascend.
  Device device;
  std::vector<std::uint64_t> order;
  launch_per_thread(device, "thread_ids", 3, 64, [&](ThreadCtx& ctx) {
    EXPECT_LT(ctx.block_idx(), 3u);
    EXPECT_LT(ctx.thread_idx(), 64u);
    EXPECT_EQ(ctx.block_dim(), 64u);
    EXPECT_EQ(ctx.grid_dim(), 3u);
    EXPECT_EQ(ctx.global_id(),
              static_cast<std::uint64_t>(ctx.block_idx()) * 64 +
                  ctx.thread_idx());
    EXPECT_EQ(ctx.global_size(), 192u);
    order.push_back(ctx.global_id());
  });
  ASSERT_EQ(order.size(), 192u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(LaunchTest, CountersAggregateAcrossThreads) {
  Device device;
  const auto stats = launch_per_thread(device, "counters", 2, 32,
                                       [](ThreadCtx& ctx) {
                                         ctx.count_gmem_read(8);
                                         ctx.count_gmem_write(4);
                                         ctx.count_atomic();
                                         ctx.count_ops(3);
                                       });
  EXPECT_EQ(stats.counters.threads, 64u);
  EXPECT_EQ(stats.counters.gmem_read_bytes, 64u * 8);
  EXPECT_EQ(stats.counters.gmem_write_bytes, 64u * 4);
  EXPECT_EQ(stats.counters.atomics, 64u);
  EXPECT_EQ(stats.counters.ops, 64u * 3);
}

TEST(LaunchTest, ModeledTimeAccumulatesOnTimeline) {
  Device device;
  const double before = device.timeline().kernel_seconds;
  const auto stats = device.launch_host(
      "ops", 1, 32, [](KernelCharges& charges) { charges.count_ops(1000); });
  EXPECT_GT(device.timeline().kernel_seconds, before);
  EXPECT_EQ(device.timeline().kernel_seconds, stats.modeled_seconds);
  EXPECT_EQ(device.timeline().launches, 1u);
  EXPECT_EQ(stats.counters.threads, 32u);
  EXPECT_EQ(stats.counters.ops, 1000u);
}

TEST(LaunchTest, RejectsBadConfigurations) {
  Device device;
  bool ran = false;
  const auto body = [&](KernelCharges&) { ran = true; };
  EXPECT_THROW(device.launch_host("bad", 0, 32, body), PreconditionError);
  EXPECT_THROW(device.launch_host("bad", 1, 0, body), PreconditionError);
  EXPECT_THROW(device.launch_host("bad", 1, 2048, body), PreconditionError);
  EXPECT_FALSE(ran);
  EXPECT_EQ(device.timeline().launches, 0u);
}

TEST(LaunchTest, LaunchStatsIncludeWallTime) {
  Device device;
  const auto stats = device.launch_host("empty", 1, 1, [](KernelCharges&) {});
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.modeled_seconds, 0.0);  // at least launch overhead
}

}  // namespace
}  // namespace dedukt::gpusim
