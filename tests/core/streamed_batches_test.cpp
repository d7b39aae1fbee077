// §III-A rounds as bounded batches: when the input exceeds the memory
// bound (--batch-reads / --batch-bytes), the driver pulls it in batches and
// every batch is one lock-stepped parse/exchange/count round on every rank,
// against the ranks' persistent tables. Counts must be identical to a
// one-batch run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/synthetic.hpp"

namespace dedukt::core {
namespace {

io::ReadBatch test_reads() {
  io::GenomeSpec gspec;
  gspec.length = 7'000;
  gspec.seed = 61;
  io::ReadSpec rspec;
  rspec.coverage = 4.0;
  rspec.mean_read_length = 400;
  rspec.min_read_length = 60;
  return io::generate_dataset(gspec, rspec);
}

std::map<std::uint64_t, std::uint64_t> as_map(const CountResult& result) {
  return {result.global_counts.begin(), result.global_counts.end()};
}

class MultiRoundSweep
    : public ::testing::TestWithParam<std::tuple<PipelineKind, int>> {};

TEST_P(MultiRoundSweep, CountsIdenticalToSingleRound) {
  const auto [kind, nranks] = GetParam();
  const io::ReadBatch reads = test_reads();

  DriverOptions single;
  single.pipeline.kind = kind;
  single.nranks = nranks;
  const CountResult one = run_distributed_count(reads, single);

  DriverOptions multi = single;
  // Force several rounds: the input holds far more reads than this.
  multi.batch.max_reads = 10;
  const CountResult many = run_distributed_count(reads, multi);

  EXPECT_EQ(as_map(one), as_map(many));
  EXPECT_EQ(one.totals().kmers_parsed, many.totals().kmers_parsed);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndRanks, MultiRoundSweep,
    ::testing::Combine(::testing::Values(PipelineKind::kCpu,
                                         PipelineKind::kGpuKmer,
                                         PipelineKind::kGpuSupermer),
                       ::testing::Values(1, 4, 7)));

TEST(MultiRoundTest, MoreAlltoallvCallsWithRounds) {
  const io::ReadBatch reads = test_reads();
  DriverOptions multi;
  multi.pipeline.kind = PipelineKind::kGpuKmer;
  multi.batch.max_reads = 8;
  multi.nranks = 4;
  multi.collect_counts = false;
  const CountResult result = run_distributed_count(reads, multi);
  // Batches of 8 reads make several rounds over 4 ranks; every round moves
  // data (some bytes in every round).
  const auto totals = result.totals();
  EXPECT_GT(totals.bytes_sent, 0u);
  EXPECT_EQ(totals.kmers_parsed, reads.total_kmers(17));
}

TEST(MultiRoundTest, UnevenRanksStayInLockstep) {
  // Batches of 3 reads over 5 ranks: at least two ranks hold nothing in
  // every round and must still join every exchange, without deadlock and
  // with exact results.
  io::ReadBatch reads = test_reads();
  // Longest reads first, so the early rounds are the heaviest.
  std::sort(reads.reads.begin(), reads.reads.end(),
            [](const io::Read& a, const io::Read& b) {
              return a.bases.size() > b.bases.size();
            });
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.batch.max_reads = 3;
  options.nranks = 5;
  const CountResult result = run_distributed_count(reads, options);

  std::map<std::uint64_t, std::uint64_t> expected;
  reference_count(reads, options.pipeline)
      .for_each([&](std::uint64_t key, std::uint64_t count) {
        expected[key] = count;
      });
  EXPECT_EQ(as_map(result), expected);
}

TEST(MultiRoundTest, FrequencyBalancedSurvivesRounds) {
  const io::ReadBatch reads = test_reads();
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.pipeline.partition = PartitionScheme::kFrequencyBalanced;
  options.batch.max_reads = 12;
  options.nranks = 4;
  const CountResult result = run_distributed_count(reads, options);

  std::map<std::uint64_t, std::uint64_t> expected;
  reference_count(reads, options.pipeline)
      .for_each([&](std::uint64_t key, std::uint64_t count) {
        expected[key] = count;
      });
  EXPECT_EQ(as_map(result), expected);
  // The routing table is sampled once, so every key lives on one rank.
  EXPECT_EQ(result.total_unique(), result.global_counts.size());
}

TEST(MultiRoundTest, LimitLargerThanInputIsOneRound) {
  const io::ReadBatch reads = test_reads();
  DriverOptions a, b;
  a.batch.max_reads = 0;
  b.batch.max_reads = 1ull << 40;
  a.nranks = b.nranks = 3;
  const CountResult ra = run_distributed_count(reads, a);
  const CountResult rb = run_distributed_count(reads, b);
  EXPECT_EQ(as_map(ra), as_map(rb));
  // Same number of exchanges implies the same modeled network time.
  EXPECT_DOUBLE_EQ(ra.modeled_breakdown().get(kPhaseExchange),
                   rb.modeled_breakdown().get(kPhaseExchange));
}

}  // namespace
}  // namespace dedukt::core
