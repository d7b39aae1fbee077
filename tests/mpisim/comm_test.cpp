#include "dedukt/mpisim/comm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/util/rng.hpp"

namespace dedukt::mpisim {
namespace {

TEST(CommTest, RankAndSize) {
  Runtime runtime(5);
  std::vector<int> seen(5, -1);
  runtime.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    seen[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 5; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

TEST(CommTest, AlltoallvDeliversToCorrectRank) {
  constexpr int kRanks = 4;
  Runtime runtime(kRanks);
  runtime.run([&](Comm& comm) {
    // Rank r sends value 100*r + dst to each dst, dst+1 copies of it.
    std::vector<std::vector<std::uint32_t>> send(kRanks);
    for (int dst = 0; dst < kRanks; ++dst) {
      send[static_cast<std::size_t>(dst)].assign(
          static_cast<std::size_t>(dst + 1),
          static_cast<std::uint32_t>(100 * comm.rank() + dst));
    }
    const auto result = comm.alltoallv(send);
    // This rank receives rank()+1 elements from each source.
    for (int src = 0; src < kRanks; ++src) {
      const auto slice = result.from(src);
      ASSERT_EQ(slice.size(), static_cast<std::size_t>(comm.rank() + 1));
      for (const std::uint32_t v : slice) {
        EXPECT_EQ(v, static_cast<std::uint32_t>(100 * src + comm.rank()));
      }
    }
  });
}

TEST(CommTest, AlltoallvOffsetsPrecomputedForAllSources) {
  constexpr int kRanks = 16;
  Runtime runtime(kRanks);
  runtime.run([&](Comm& comm) {
    const int rank = comm.rank();
    // Rank r sends (r + dst) % 5 elements to dst.
    std::vector<std::vector<std::uint64_t>> send(kRanks);
    for (int dst = 0; dst < kRanks; ++dst) {
      auto& bucket = send[static_cast<std::size_t>(dst)];
      bucket.resize(static_cast<std::size_t>((rank + dst) % 5));
      for (std::size_t j = 0; j < bucket.size(); ++j) {
        bucket[j] = static_cast<std::uint64_t>(rank) * 1000 +
                    static_cast<std::uint64_t>(dst) * 10 + j;
      }
    }
    const auto result = comm.alltoallv(send);

    // `offsets` is stored at assembly as the exclusive prefix sum of
    // `counts`, so from() never re-sums the prefix.
    ASSERT_EQ(result.counts.size(), static_cast<std::size_t>(kRanks));
    ASSERT_EQ(result.offsets.size(), static_cast<std::size_t>(kRanks));
    std::uint64_t running = 0;
    for (int src = 0; src < kRanks; ++src) {
      EXPECT_EQ(result.offsets[static_cast<std::size_t>(src)], running);
      running += result.counts[static_cast<std::size_t>(src)];
      const auto slice = result.from(src);
      ASSERT_EQ(slice.size(), static_cast<std::size_t>((src + rank) % 5));
      for (std::size_t j = 0; j < slice.size(); ++j) {
        EXPECT_EQ(slice[j], static_cast<std::uint64_t>(src) * 1000 +
                                static_cast<std::uint64_t>(rank) * 10 + j);
      }
    }
    EXPECT_EQ(running, result.data.size());
  });
}

TEST(CommTest, AlltoallvEmptyBuffers) {
  Runtime runtime(3);
  runtime.run([&](Comm& comm) {
    std::vector<std::vector<std::uint64_t>> send(3);
    const auto result = comm.alltoallv(send);
    EXPECT_TRUE(result.data.empty());
    for (const auto c : result.counts) EXPECT_EQ(c, 0u);
  });
}

TEST(CommTest, AlltoallvRandomizedMultisetPreserved) {
  constexpr int kRanks = 6;
  Runtime runtime(kRanks);
  std::vector<std::uint64_t> sent_sum(kRanks, 0);
  std::vector<std::uint64_t> recv_sum(kRanks, 0);
  runtime.run([&](Comm& comm) {
    Xoshiro256 rng(static_cast<std::uint64_t>(comm.rank()) + 1);
    std::vector<std::vector<std::uint64_t>> send(kRanks);
    std::uint64_t my_sent = 0;
    for (int dst = 0; dst < kRanks; ++dst) {
      const std::size_t n = rng.below(50);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = rng.below(1'000'000);
        send[static_cast<std::size_t>(dst)].push_back(v);
        my_sent += v;
      }
    }
    sent_sum[static_cast<std::size_t>(comm.rank())] = my_sent;
    const auto result = comm.alltoallv(send);
    recv_sum[static_cast<std::size_t>(comm.rank())] = std::accumulate(
        result.data.begin(), result.data.end(), std::uint64_t{0});
  });
  // Conservation: total payload sent == total payload received.
  EXPECT_EQ(std::accumulate(sent_sum.begin(), sent_sum.end(), 0ull),
            std::accumulate(recv_sum.begin(), recv_sum.end(), 0ull));
}

TEST(CommTest, AlltoallFixedCounts) {
  constexpr int kRanks = 4;
  Runtime runtime(kRanks);
  runtime.run([&](Comm& comm) {
    std::vector<int> send(kRanks);
    for (int dst = 0; dst < kRanks; ++dst) {
      send[static_cast<std::size_t>(dst)] = comm.rank() * 10 + dst;
    }
    const auto recv = comm.alltoall(send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(kRanks));
    for (int src = 0; src < kRanks; ++src) {
      EXPECT_EQ(recv[static_cast<std::size_t>(src)],
                src * 10 + comm.rank());
    }
  });
}

TEST(CommTest, AllreduceSum) {
  Runtime runtime(7);
  runtime.run([&](Comm& comm) {
    const int total =
        comm.allreduce(comm.rank() + 1, ReduceOp::kSum);
    EXPECT_EQ(total, 28);  // 1+2+...+7
  });
}

TEST(CommTest, AllreduceMinMax) {
  Runtime runtime(5);
  runtime.run([&](Comm& comm) {
    EXPECT_EQ(comm.allreduce(comm.rank(), ReduceOp::kMin), 0);
    EXPECT_EQ(comm.allreduce(comm.rank(), ReduceOp::kMax), 4);
  });
}

TEST(CommTest, AllreduceDouble) {
  Runtime runtime(4);
  runtime.run([&](Comm& comm) {
    const double sum = comm.allreduce(0.5, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 2.0);
  });
}

TEST(CommTest, Allgather) {
  Runtime runtime(6);
  runtime.run([&](Comm& comm) {
    const auto all = comm.allgather(comm.rank() * comm.rank());
    ASSERT_EQ(all.size(), 6u);
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * r);
    }
  });
}

TEST(CommTest, GathervCollectsAtRootOnly) {
  Runtime runtime(4);
  runtime.run([&](Comm& comm) {
    std::vector<std::uint8_t> mine(
        static_cast<std::size_t>(comm.rank()),
        static_cast<std::uint8_t>(comm.rank()));
    const auto gathered = comm.gatherv(mine, /*root=*/2);
    if (comm.rank() == 2) {
      ASSERT_EQ(gathered.size(), 4u);
      for (int src = 0; src < 4; ++src) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(src)].size(),
                  static_cast<std::size_t>(src));
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST(CommTest, Bcast) {
  Runtime runtime(5);
  runtime.run([&](Comm& comm) {
    const std::uint64_t value = comm.rank() == 3 ? 0xDEADBEEFull : 0;
    EXPECT_EQ(comm.bcast(value, /*root=*/3), 0xDEADBEEFull);
  });
}

TEST(CommTest, BcastVectorDeliversRootContents) {
  Runtime runtime(5);
  runtime.run([&](Comm& comm) {
    std::vector<std::uint32_t> mine;
    if (comm.rank() == 2) mine = {10, 20, 30, 40};
    const auto result = comm.bcast_vector(mine, /*root=*/2);
    EXPECT_EQ(result, (std::vector<std::uint32_t>{10, 20, 30, 40}));
  });
}

TEST(CommTest, BcastVectorEmptyIsFine) {
  Runtime runtime(3);
  runtime.run([&](Comm& comm) {
    const auto result =
        comm.bcast_vector(std::vector<std::uint64_t>{}, 0);
    EXPECT_TRUE(result.empty());
  });
}

TEST(CommTest, BcastVectorAccumulatesVolumeModel) {
  Runtime runtime(4, NetworkModel::summit());
  runtime.run([&](Comm& comm) {
    std::vector<std::uint64_t> mine;
    if (comm.rank() == 0) mine.assign(100'000, 7);
    (void)comm.bcast_vector(mine, 0);
    if (comm.rank() != 0) {
      EXPECT_GT(comm.stats().bytes_received, 0u);
      EXPECT_GT(comm.stats().modeled_volume_seconds, 0.0);
    }
  });
}

TEST(CommTest, VolumeShareNeverExceedsTotalModeled) {
  Runtime runtime(3, NetworkModel::summit());
  runtime.run([&](Comm& comm) {
    std::vector<std::vector<std::uint64_t>> send(
        3, std::vector<std::uint64_t>(500, 1));
    (void)comm.alltoallv(send);
    comm.barrier();
    const auto& stats = comm.stats();
    EXPECT_GT(stats.modeled_volume_seconds, 0.0);
    EXPECT_LE(stats.modeled_volume_seconds, stats.modeled_seconds);
  });
}

TEST(CommTest, BarrierCountsAsCollective) {
  Runtime runtime(3);
  runtime.run([&](Comm& comm) {
    comm.barrier();
    comm.barrier();
    EXPECT_EQ(comm.stats().collective_calls, 2u);
  });
}

TEST(CommTest, StatsCountOffRankBytesOnly) {
  constexpr int kRanks = 3;
  Runtime runtime(kRanks);
  runtime.run([&](Comm& comm) {
    // Everyone sends 10 u64 to every rank including itself.
    std::vector<std::vector<std::uint64_t>> send(
        kRanks, std::vector<std::uint64_t>(10, 1));
    (void)comm.alltoallv(send);
    // Self-delivery is not network traffic.
    EXPECT_EQ(comm.stats().bytes_sent, 2u * 10u * 8u);
    EXPECT_EQ(comm.stats().bytes_received, 2u * 10u * 8u);
    EXPECT_EQ(comm.stats().alltoallv_calls, 1u);
  });
}

TEST(CommTest, ModeledTimeAccumulates) {
  Runtime runtime(4, NetworkModel::summit());
  runtime.run([&](Comm& comm) {
    std::vector<std::vector<std::uint64_t>> send(
        4, std::vector<std::uint64_t>(1000, 7));
    (void)comm.alltoallv(send);
    const double after_one = comm.stats().modeled_seconds;
    EXPECT_GT(after_one, 0.0);
    (void)comm.alltoallv(send);
    EXPECT_GT(comm.stats().modeled_seconds, after_one);
  });
}

TEST(CommTest, ModeledTimeAgreesAcrossRanks) {
  constexpr int kRanks = 4;
  Runtime runtime(kRanks, NetworkModel::summit());
  runtime.run([&](Comm& comm) {
    // Skewed volumes: rank 0 sends far more than the others.
    const std::size_t n = comm.rank() == 0 ? 10'000 : 10;
    std::vector<std::vector<std::uint64_t>> send(
        kRanks, std::vector<std::uint64_t>(n, 1));
    (void)comm.alltoallv(send);
  });
  // Bulk-synchronous: everyone pays the busiest rank's exchange time.
  const auto& stats = runtime.stats();
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_DOUBLE_EQ(stats[static_cast<std::size_t>(r)].modeled_seconds,
                     stats[0].modeled_seconds);
  }
}

TEST(CommTest, MismatchedCollectiveTypesThrow) {
  Runtime runtime(2);
  EXPECT_THROW(runtime.run([&](Comm& comm) {
                 if (comm.rank() == 0) {
                   (void)comm.allreduce(1, ReduceOp::kSum);
                 } else {
                   (void)comm.allreduce(1.0, ReduceOp::kSum);
                 }
               }),
               SimulationError);
}

TEST(CommTest, AlltoallvWrongBufferCountThrows) {
  Runtime runtime(3);
  EXPECT_THROW(runtime.run([&](Comm& comm) {
                 std::vector<std::vector<int>> send(2);  // should be 3
                 (void)comm.alltoallv(send);
               }),
               Error);
}

class CommRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CommRankSweep, AlltoallvIdentityPermutation) {
  const int nranks = GetParam();
  Runtime runtime(nranks);
  runtime.run([&](Comm& comm) {
    // Ring shift: rank r sends its rank to (r+1) % n only.
    std::vector<std::vector<int>> send(static_cast<std::size_t>(nranks));
    send[static_cast<std::size_t>((comm.rank() + 1) % nranks)] = {
        comm.rank()};
    const auto result = comm.alltoallv(send);
    ASSERT_EQ(result.data.size(), 1u);
    EXPECT_EQ(result.data[0], (comm.rank() + nranks - 1) % nranks);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CommRankSweep,
                         ::testing::Values(1, 2, 3, 8, 16, 33));

}  // namespace
}  // namespace dedukt::mpisim
