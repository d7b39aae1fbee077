// Randomized collective sequences: every rank executes the same randomly
// generated program of collectives; each operation is self-verifying
// against a sequentially computed oracle. Catches ordering, reuse, and
// synchronization bugs that single-collective tests cannot.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/util/rng.hpp"

namespace dedukt::mpisim {
namespace {

class CollectiveFuzz
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CollectiveFuzz, RandomProgramSelfVerifies) {
  const auto [nranks, seed] = GetParam();

  // Generate the program once; all ranks replay it identically.
  struct Op {
    int kind;            // 0 gatherv, 1 allreduce, 2 alltoallv,
                         // 3 allreduce_vector, 4 bcast_vector
    std::uint64_t arg;   // op-specific parameter
  };
  std::vector<Op> program;
  {
    Xoshiro256 rng(seed);
    const int length = 8 + static_cast<int>(rng.below(12));
    for (int i = 0; i < length; ++i) {
      program.push_back({static_cast<int>(rng.below(5)), rng.below(1000)});
    }
  }

  Runtime runtime(nranks);
  runtime.run([&](Comm& comm) {
    const int rank = comm.rank();
    const int size = comm.size();
    for (std::size_t step = 0; step < program.size(); ++step) {
      const Op& op = program[step];
      switch (op.kind) {
        case 0: {
          // Rank r sends (r + arg) % 5 values r * 1000 + arg + j to a
          // random root, which checks every rank's slice.
          const int root = static_cast<int>(op.arg) % size;
          const auto slice_len = [&](int r) {
            return static_cast<std::size_t>(
                (static_cast<std::uint64_t>(r) + op.arg) % 5);
          };
          std::vector<std::uint64_t> mine(slice_len(rank));
          for (std::size_t j = 0; j < mine.size(); ++j) {
            mine[j] = static_cast<std::uint64_t>(rank) * 1000 + op.arg + j;
          }
          const auto gathered = comm.gatherv(mine, root);
          if (rank != root) {
            ASSERT_TRUE(gathered.empty()) << "step " << step;
            break;
          }
          ASSERT_EQ(gathered.size(), static_cast<std::size_t>(size));
          for (int src = 0; src < size; ++src) {
            const auto& got = gathered[static_cast<std::size_t>(src)];
            ASSERT_EQ(got.size(), slice_len(src)) << "step " << step;
            for (std::size_t j = 0; j < got.size(); ++j) {
              ASSERT_EQ(got[j],
                        static_cast<std::uint64_t>(src) * 1000 + op.arg + j)
                  << "step " << step;
            }
          }
          break;
        }
        case 1: {
          // sum over ranks of (rank * (arg+1)).
          const std::uint64_t value =
              static_cast<std::uint64_t>(rank) * (op.arg + 1);
          const std::uint64_t total =
              comm.allreduce(value, ReduceOp::kSum);
          std::uint64_t expected = 0;
          for (int r = 0; r < size; ++r) {
            expected += static_cast<std::uint64_t>(r) * (op.arg + 1);
          }
          ASSERT_EQ(total, expected) << "step " << step;
          break;
        }
        case 2: {
          // Rank r sends (r*size + dst + arg) exactly (dst % 3 + 1) times.
          std::vector<std::vector<std::uint64_t>> send(
              static_cast<std::size_t>(size));
          for (int dst = 0; dst < size; ++dst) {
            send[static_cast<std::size_t>(dst)].assign(
                static_cast<std::size_t>(dst % 3 + 1),
                static_cast<std::uint64_t>(rank) * size + dst + op.arg);
          }
          const auto result = comm.alltoallv(send);
          for (int src = 0; src < size; ++src) {
            const auto slice = result.from(src);
            ASSERT_EQ(slice.size(),
                      static_cast<std::size_t>(rank % 3 + 1));
            for (const auto v : slice) {
              ASSERT_EQ(v, static_cast<std::uint64_t>(src) * size + rank +
                               op.arg)
                  << "step " << step;
            }
          }
          break;
        }
        case 3: {
          // Element i of rank r is r * (i+1) + arg; every rank receives
          // the element-wise sums.
          const std::size_t len = op.arg % 9 + 1;
          std::vector<std::uint64_t> mine(len);
          for (std::size_t i = 0; i < len; ++i) {
            mine[i] = static_cast<std::uint64_t>(rank) * (i + 1) + op.arg;
          }
          const auto sums = comm.allreduce_vector(mine, ReduceOp::kSum);
          ASSERT_EQ(sums.size(), len) << "step " << step;
          for (std::size_t i = 0; i < len; ++i) {
            std::uint64_t expected = 0;
            for (int r = 0; r < size; ++r) {
              expected += static_cast<std::uint64_t>(r) * (i + 1) + op.arg;
            }
            ASSERT_EQ(sums[i], expected) << "step " << step;
          }
          break;
        }
        case 4: {
          const int root = static_cast<int>(op.arg) % size;
          std::vector<std::uint32_t> mine;
          if (rank == root) {
            mine.resize(op.arg % 17 + 1);
            std::iota(mine.begin(), mine.end(),
                      static_cast<std::uint32_t>(op.arg));
          }
          const auto result = comm.bcast_vector(mine, root);
          ASSERT_EQ(result.size(), op.arg % 17 + 1);
          ASSERT_EQ(result.front(), static_cast<std::uint32_t>(op.arg));
          break;
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndSeeds, CollectiveFuzz,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 16),
                       ::testing::Values(1u, 2u, 3u, 4u)));

}  // namespace
}  // namespace dedukt::mpisim
