// End-to-end tests of the wide-supermer GPU pipeline (two-word packing).
#include <gtest/gtest.h>

#include <map>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/synthetic.hpp"

namespace dedukt::core {
namespace {

io::ReadBatch test_reads(std::uint64_t seed = 3) {
  io::GenomeSpec gspec;
  gspec.length = 7'000;
  gspec.seed = seed;
  io::ReadSpec rspec;
  rspec.coverage = 4.0;
  rspec.mean_read_length = 500;
  rspec.min_read_length = 80;
  rspec.seed = seed + 1;
  return io::generate_dataset(gspec, rspec);
}

std::map<std::uint64_t, std::uint64_t> as_map(const CountResult& result) {
  return {result.global_counts.begin(), result.global_counts.end()};
}

class WideSupermerPipelineSweep : public ::testing::TestWithParam<int> {};

TEST_P(WideSupermerPipelineSweep, CountsMatchReferenceAcrossWindows) {
  const int window = GetParam();
  const io::ReadBatch reads = test_reads();

  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.pipeline.wide_supermers = true;
  options.pipeline.window = window;
  options.nranks = 5;
  const CountResult result = run_distributed_count(reads, options);

  std::map<std::uint64_t, std::uint64_t> expected;
  reference_count(reads, options.pipeline)
      .for_each([&](std::uint64_t key, std::uint64_t count) {
        expected[key] = count;
      });
  EXPECT_EQ(as_map(result), expected);
}

INSTANTIATE_TEST_SUITE_P(Windows, WideSupermerPipelineSweep,
                         ::testing::Values(15, 25, 47));

TEST(WideSupermerPipelineTest, LargerWindowShipsFewerBytes) {
  const io::ReadBatch reads = test_reads(11);
  DriverOptions narrow;
  narrow.pipeline.kind = PipelineKind::kGpuSupermer;
  narrow.pipeline.window = 15;
  narrow.nranks = 6;
  narrow.collect_counts = false;

  DriverOptions wide = narrow;
  wide.pipeline.wide_supermers = true;
  wide.pipeline.window = 47;

  const auto n = run_distributed_count(reads, narrow);
  const auto w = run_distributed_count(reads, wide);
  // Fewer supermers with the longer window...
  EXPECT_LT(w.total_supermers(), n.total_supermers());
  // ...but each wide supermer ships 17 bytes vs 9; whether total bytes
  // shrink depends on the compression gained. At minimum the average
  // supermer must be longer.
  const double avg_narrow =
      static_cast<double>(n.totals().supermer_bases) /
      static_cast<double>(n.total_supermers());
  const double avg_wide =
      static_cast<double>(w.totals().supermer_bases) /
      static_cast<double>(w.total_supermers());
  EXPECT_GT(avg_wide, avg_narrow);
}

TEST(WideSupermerPipelineTest, ComposesWithBloomFilter) {
  const io::ReadBatch reads = test_reads(21);
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.pipeline.wide_supermers = true;
  options.pipeline.window = 40;
  options.pipeline.filter_singletons = true;
  options.nranks = 4;
  const CountResult filtered = run_distributed_count(reads, options);

  DriverOptions plain = options;
  plain.pipeline.filter_singletons = false;
  const CountResult truth = run_distributed_count(reads, plain);

  const auto truth_map = as_map(truth);
  for (const auto& [key, count] : as_map(filtered)) {
    const auto it = truth_map.find(key);
    ASSERT_NE(it, truth_map.end());
    EXPECT_GE(count, it->second);
    EXPECT_LE(count, it->second + 1);
  }
  EXPECT_LE(filtered.total_unique(), truth.total_unique());
}

TEST(WideSupermerPipelineTest, ComposesWithFrequencyBalancedRouting) {
  const io::ReadBatch reads = test_reads(31);
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.pipeline.wide_supermers = true;
  options.pipeline.window = 33;
  options.pipeline.partition = PartitionScheme::kFrequencyBalanced;
  options.nranks = 5;
  const CountResult result = run_distributed_count(reads, options);

  std::map<std::uint64_t, std::uint64_t> expected;
  reference_count(reads, options.pipeline)
      .for_each([&](std::uint64_t key, std::uint64_t count) {
        expected[key] = count;
      });
  EXPECT_EQ(as_map(result), expected);
}

TEST(WideSupermerPipelineTest, ComposesWithMultiRound) {
  const io::ReadBatch reads = test_reads(41);
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.pipeline.wide_supermers = true;
  options.pipeline.window = 47;
  options.batch.max_reads = 16;
  options.nranks = 4;
  const CountResult multi = run_distributed_count(reads, options);

  options.batch.max_reads = 0;
  const CountResult single = run_distributed_count(reads, options);
  EXPECT_EQ(as_map(multi), as_map(single));
}

TEST(WideSupermerPipelineTest, ValidateRejectsBigWindowWithoutWideFlag) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.pipeline.window = 47;  // needs wide_supermers
  EXPECT_THROW(run_distributed_count(test_reads(), options),
               PreconditionError);
}

}  // namespace
}  // namespace dedukt::core
