// Seeded fuzz: random datasets x random pipeline configurations, all
// verified bit-exact against the serial reference. This is the broad net
// behind the targeted property tests.
#include <gtest/gtest.h>

#include <map>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/util/rng.hpp"

namespace dedukt::core {
namespace {

std::map<std::uint64_t, std::uint64_t> as_map(const CountResult& result) {
  return {result.global_counts.begin(), result.global_counts.end()};
}

class FuzzEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEquivalence, RandomConfigMatchesReference) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);

  // Random dataset shape.
  io::GenomeSpec gspec;
  gspec.length = 2'000 + rng.below(8'000);
  gspec.replicons = 1 + static_cast<int>(rng.below(3));
  gspec.gc_content = 0.3 + rng.uniform() * 0.4;
  gspec.repeat_fraction = rng.uniform() * 0.2;
  gspec.repeat_unit = 200 + rng.below(800);
  gspec.seed = seed * 3 + 1;
  io::ReadSpec rspec;
  rspec.coverage = 2.0 + rng.uniform() * 4.0;
  rspec.mean_read_length = 200 + static_cast<double>(rng.below(600));
  rspec.min_read_length = 50;
  rspec.error_rate = rng.uniform() * 0.01;
  rspec.seed = seed * 3 + 2;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);

  // Random pipeline configuration (always a valid one).
  DriverOptions options;
  const std::uint64_t kind_draw = rng.below(3);
  options.pipeline.kind = kind_draw == 0   ? PipelineKind::kCpu
                          : kind_draw == 1 ? PipelineKind::kGpuKmer
                                           : PipelineKind::kGpuSupermer;
  options.pipeline.k = 5 + static_cast<int>(rng.below(27));  // 5..31
  options.pipeline.m =
      1 + static_cast<int>(rng.below(
              static_cast<std::uint64_t>(options.pipeline.k - 1)));
  if (options.pipeline.kind == PipelineKind::kGpuSupermer) {
    options.pipeline.wide_supermers = rng.below(2) == 1;
    const int cap = (options.pipeline.wide_supermers ? 63 : 31) -
                    options.pipeline.k + 1;
    options.pipeline.window = 1 + static_cast<int>(rng.below(
                                      static_cast<std::uint64_t>(cap)));
    options.pipeline.partition = rng.below(2) == 1
                                     ? PartitionScheme::kFrequencyBalanced
                                     : PartitionScheme::kMinimizerHash;
  }
  const std::uint64_t order_draw = rng.below(3);
  options.pipeline.order =
      order_draw == 0   ? kmer::MinimizerOrder::kLexicographic
      : order_draw == 1 ? kmer::MinimizerOrder::kKmc2
                        : kmer::MinimizerOrder::kRandomized;
  if (options.pipeline.order == kmer::MinimizerOrder::kKmc2) {
    options.pipeline.m = std::max(options.pipeline.m, 3);
    options.pipeline.k = std::max(options.pipeline.k,
                                  options.pipeline.m + 1);
  }
  options.pipeline.canonical =
      options.pipeline.kind == PipelineKind::kCpu && rng.below(2) == 1;
  if (rng.below(3) == 0) {
    options.batch.max_reads = 1 + rng.below(30);
  }
  options.nranks = 1 + static_cast<int>(rng.below(9));
  options.pipeline.exchange = rng.below(2) == 1
                                  ? ExchangeMode::kGpuDirect
                                  : ExchangeMode::kStaged;

  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " kind=" + to_string(options.pipeline.kind) +
               " k=" + std::to_string(options.pipeline.k) +
               " m=" + std::to_string(options.pipeline.m) +
               " window=" + std::to_string(options.pipeline.window) +
               " wide=" + std::to_string(options.pipeline.wide_supermers) +
               " ranks=" + std::to_string(options.nranks));

  const CountResult result = run_distributed_count(reads, options);

  std::map<std::uint64_t, std::uint64_t> expected;
  reference_count(reads, options.pipeline)
      .for_each([&](std::uint64_t key, std::uint64_t count) {
        expected[key] = count;
      });
  ASSERT_EQ(as_map(result), expected);

  // Conservation invariants hold regardless of configuration.
  const RankMetrics totals = result.totals();
  EXPECT_EQ(totals.kmers_parsed, reads.total_kmers(options.pipeline.k));
  EXPECT_EQ(totals.bytes_sent, totals.bytes_received);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

class WideFuzzEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WideFuzzEquivalence, RandomWideConfigMatchesReference) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 7 + 1);

  io::GenomeSpec gspec;
  gspec.length = 3'000 + rng.below(6'000);
  gspec.gc_content = 0.35 + rng.uniform() * 0.3;
  gspec.seed = seed * 5 + 3;
  io::ReadSpec rspec;
  rspec.coverage = 2.0 + rng.uniform() * 3.0;
  rspec.mean_read_length = 300 + static_cast<double>(rng.below(500));
  rspec.min_read_length = 100;
  rspec.seed = seed * 5 + 4;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);

  DriverOptions options;
  options.pipeline.kind = PipelineKind::kCpu;
  options.pipeline.k = 32 + static_cast<int>(rng.below(32));  // 32..63
  options.pipeline.m = 5 + static_cast<int>(rng.below(20));
  options.pipeline.canonical = rng.below(2) == 1;
  options.nranks = 1 + static_cast<int>(rng.below(7));
  if (rng.below(2) == 0) {
    options.batch.max_reads = 1 + rng.below(20);
  }

  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " k=" + std::to_string(options.pipeline.k) +
               " ranks=" + std::to_string(options.nranks));

  const WideCountResult result =
      run_distributed_count_wide(reads, options);
  std::map<kmer::WideKey, std::uint64_t> expected;
  reference_count_wide(reads, options.pipeline)
      .for_each([&](const kmer::WideKey& key, std::uint64_t count) {
        expected[key] = count;
      });
  const std::map<kmer::WideKey, std::uint64_t> actual(
      result.global_counts.begin(), result.global_counts.end());
  ASSERT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideFuzzEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  io::GenomeSpec gspec;
  gspec.length = 6'000;
  gspec.seed = 101;
  io::ReadSpec rspec;
  rspec.coverage = 4.0;
  rspec.mean_read_length = 400;
  rspec.min_read_length = 80;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);

  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 6;
  const CountResult a = run_distributed_count(reads, options);
  const CountResult b = run_distributed_count(reads, options);

  EXPECT_EQ(a.global_counts, b.global_counts);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    // Work counts, traffic, and modeled times are all deterministic even
    // though the ranks are scheduled by the OS.
    EXPECT_EQ(a.ranks[r].kmers_parsed, b.ranks[r].kmers_parsed);
    EXPECT_EQ(a.ranks[r].supermers_built, b.ranks[r].supermers_built);
    EXPECT_EQ(a.ranks[r].bytes_sent, b.ranks[r].bytes_sent);
    EXPECT_EQ(a.ranks[r].counted_kmers, b.ranks[r].counted_kmers);
    EXPECT_DOUBLE_EQ(a.ranks[r].modeled.total(),
                     b.ranks[r].modeled.total());
  }
}

}  // namespace
}  // namespace dedukt::core
