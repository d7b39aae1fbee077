#include "dedukt/mpisim/network_model.hpp"

#include <gtest/gtest.h>

namespace dedukt::mpisim {
namespace {

TEST(NetworkModelTest, SingleRankIsFree) {
  const NetworkModel m = NetworkModel::summit();
  EXPECT_DOUBLE_EQ(m.alltoallv_seconds(1 << 20, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.collective_latency_seconds(1), 0.0);
}

TEST(NetworkModelTest, TimeGrowsWithBytes) {
  const NetworkModel m = NetworkModel::summit();
  const double small = m.alltoallv_seconds(1 << 20, 8);
  const double large = m.alltoallv_seconds(1 << 30, 8);
  EXPECT_GT(large, small);
}

TEST(NetworkModelTest, BandwidthTermScalesLinearly) {
  NetworkModel m = NetworkModel::summit();
  m.latency_s = 0;  // isolate the beta term
  const double t1 = m.alltoallv_seconds(1'000'000, 4);
  const double t2 = m.alltoallv_seconds(2'000'000, 4);
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);
}

TEST(NetworkModelTest, PerRankBandwidthSharesNodeInjection) {
  NetworkModel gpu = NetworkModel::summit();  // 6 ranks/node
  NetworkModel cpu = NetworkModel::summit();
  cpu.ranks_per_node = 42;
  EXPECT_NEAR(gpu.per_rank_bandwidth() / cpu.per_rank_bandwidth(),
              42.0 / 6.0, 1e-9);
}

TEST(NetworkModelTest, EqualPerNodeVolumeGivesEqualTime) {
  // The paper observes CPU and GPU runs have "roughly the same" exchange
  // time (Fig. 3): same per-node volume, same node bandwidth.
  NetworkModel gpu = NetworkModel::summit();  // 6 ranks/node
  NetworkModel cpu = NetworkModel::summit();
  cpu.ranks_per_node = 42;
  gpu.latency_s = cpu.latency_s = 0;
  const std::uint64_t node_bytes = 1ull << 30;
  const double t_gpu = gpu.alltoallv_seconds(node_bytes / 6, 384);
  const double t_cpu = cpu.alltoallv_seconds(node_bytes / 42, 2688);
  EXPECT_NEAR(t_gpu, t_cpu, t_gpu * 1e-6);
}

TEST(NetworkModelTest, LatencyTermGrowsWithRanks) {
  NetworkModel m = NetworkModel::summit();
  const double t8 = m.alltoallv_seconds(0, 8);
  const double t64 = m.alltoallv_seconds(0, 64);
  EXPECT_GT(t64, t8);
}

TEST(NetworkModelTest, CollectiveLatencyIsLogarithmic) {
  NetworkModel m;
  m.latency_s = 1.0;
  EXPECT_DOUBLE_EQ(m.collective_latency_seconds(2), 1.0);
  EXPECT_DOUBLE_EQ(m.collective_latency_seconds(8), 3.0);
  EXPECT_DOUBLE_EQ(m.collective_latency_seconds(9), 4.0);
}

TEST(NetworkModelTest, LocalModelIsCheap) {
  const NetworkModel local = NetworkModel::local();
  const NetworkModel summit = NetworkModel::summit();
  EXPECT_LT(local.alltoallv_seconds(1 << 20, 8),
            summit.alltoallv_seconds(1 << 20, 8));
}

}  // namespace
}  // namespace dedukt::mpisim
