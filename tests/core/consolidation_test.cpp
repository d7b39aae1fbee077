// Source-side consolidation (paper footnote 1): exchange (k-mer, count)
// pairs after counting locally. Results must be exact; volume behaviour
// must show Georganas' crossover (wins at few ranks, loses at many).
#include <gtest/gtest.h>

#include <map>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/synthetic.hpp"

namespace dedukt::core {
namespace {

io::ReadBatch high_coverage_reads() {
  io::GenomeSpec gspec;
  gspec.length = 3'000;
  gspec.seed = 51;
  io::ReadSpec rspec;
  rspec.coverage = 20.0;  // strong per-rank duplication at small P
  rspec.mean_read_length = 400;
  rspec.min_read_length = 80;
  return io::generate_dataset(gspec, rspec);
}

std::map<std::uint64_t, std::uint64_t> as_map(const CountResult& result) {
  return {result.global_counts.begin(), result.global_counts.end()};
}

class ConsolidationSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConsolidationSweep, CountsMatchReference) {
  const int nranks = GetParam();
  const io::ReadBatch reads = high_coverage_reads();

  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuKmer;
  options.pipeline.source_consolidation = true;
  options.nranks = nranks;
  const CountResult result = run_distributed_count(reads, options);

  std::map<std::uint64_t, std::uint64_t> expected;
  reference_count(reads, options.pipeline)
      .for_each([&](std::uint64_t key, std::uint64_t count) {
        expected[key] = count;
      });
  EXPECT_EQ(as_map(result), expected);
  // Work conservation still holds at the instance level.
  EXPECT_EQ(result.totals().kmers_received,
            result.totals().kmers_parsed);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ConsolidationSweep,
                         ::testing::Values(1, 2, 6, 12));

TEST(ConsolidationTest, WinsAtFewRanksLosesAtMany) {
  // Georganas' destination- vs source-side analysis: with 20x coverage on
  // 2 ranks each rank holds ~10 copies of each k-mer, so pairs (12 B per
  // distinct) beat occurrences (8 B each). At 48 ranks per-rank
  // multiplicity approaches 1 and the 12-vs-8 byte overhead flips the
  // verdict — which is why the paper consolidates at the destination.
  const io::ReadBatch reads = high_coverage_reads();

  auto bytes = [&](int nranks, bool consolidate) {
    DriverOptions options;
    options.pipeline.kind = PipelineKind::kGpuKmer;
    options.pipeline.source_consolidation = consolidate;
    options.nranks = nranks;
    options.collect_counts = false;
    return run_distributed_count(reads, options).total_bytes_exchanged();
  };

  EXPECT_LT(bytes(2, true), bytes(2, false));
  EXPECT_GT(bytes(48, true), bytes(48, false));
}

TEST(ConsolidationTest, RejectsUnsupportedCombos) {
  PipelineConfig config;
  config.source_consolidation = true;
  config.kind = PipelineKind::kGpuSupermer;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.kind = PipelineKind::kGpuKmer;
  config.filter_singletons = true;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.filter_singletons = false;
  EXPECT_NO_THROW(config.validate());
}

TEST(ConsolidationTest, ComposesWithMultiRound) {
  const io::ReadBatch reads = high_coverage_reads();
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuKmer;
  options.pipeline.source_consolidation = true;
  options.batch.max_reads = 40;
  options.nranks = 4;
  const CountResult multi = run_distributed_count(reads, options);

  options.batch.max_reads = 0;
  const CountResult single = run_distributed_count(reads, options);
  EXPECT_EQ(as_map(multi), as_map(single));
}

}  // namespace
}  // namespace dedukt::core
