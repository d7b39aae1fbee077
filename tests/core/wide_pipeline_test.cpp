#include <gtest/gtest.h>

#include <map>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/synthetic.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::core {
namespace {

io::ReadBatch test_reads() {
  io::GenomeSpec gspec;
  gspec.length = 9'000;
  gspec.seed = 71;
  io::ReadSpec rspec;
  rspec.coverage = 3.0;
  rspec.mean_read_length = 500;
  rspec.min_read_length = 120;
  return io::generate_dataset(gspec, rspec);
}

std::map<kmer::WideKey, std::uint64_t> reference_map(
    const io::ReadBatch& reads, const PipelineConfig& config) {
  std::map<kmer::WideKey, std::uint64_t> out;
  reference_count_wide(reads, config)
      .for_each([&](const kmer::WideKey& key, std::uint64_t count) {
        out[key] = count;
      });
  return out;
}

class WidePipelineSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(WidePipelineSweep, CountsMatchWideReference) {
  const auto [k, nranks] = GetParam();
  const io::ReadBatch reads = test_reads();

  DriverOptions options;
  options.pipeline.kind = PipelineKind::kCpu;
  options.pipeline.k = k;
  const int safe_m = 15;
  options.pipeline.m = safe_m;
  options.nranks = nranks;
  const WideCountResult result = run_distributed_count_wide(reads, options);

  const std::map<kmer::WideKey, std::uint64_t> actual(
      result.global_counts.begin(), result.global_counts.end());
  EXPECT_EQ(actual, reference_map(reads, options.pipeline));
  EXPECT_EQ(result.base.totals().kmers_parsed, reads.total_kmers(k));
}

INSTANTIATE_TEST_SUITE_P(KAndRanks, WidePipelineSweep,
                         ::testing::Combine(::testing::Values(33, 41, 63),
                                            ::testing::Values(1, 5)));

TEST(WidePipelineTest, CanonicalWideCounting) {
  const io::ReadBatch reads = test_reads();
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kCpu;
  options.pipeline.k = 41;
  options.pipeline.m = 15;
  options.pipeline.canonical = true;
  options.nranks = 4;
  const WideCountResult result = run_distributed_count_wide(reads, options);
  const std::map<kmer::WideKey, std::uint64_t> actual(
      result.global_counts.begin(), result.global_counts.end());
  EXPECT_EQ(actual, reference_map(reads, options.pipeline));
}

TEST(WidePipelineTest, MultiRoundWideCounting) {
  const io::ReadBatch reads = test_reads();
  DriverOptions single, multi;
  single.pipeline.kind = multi.pipeline.kind = PipelineKind::kCpu;
  single.pipeline.k = multi.pipeline.k = 47;
  single.pipeline.m = multi.pipeline.m = 15;
  single.nranks = multi.nranks = 4;
  multi.batch.max_reads = 10;
  const auto a = run_distributed_count_wide(reads, single);
  const auto b = run_distributed_count_wide(reads, multi);
  EXPECT_EQ(a.global_counts, b.global_counts);
}

TEST(WidePipelineTest, WideBytesDoubleNarrowBytes) {
  // Wide keys ship 16 bytes per k-mer vs 8 — a structural check of the
  // exchange accounting. The narrow run uses k=31, the wide run k=33, so
  // the parsed k-mer totals are within ~1% of each other.
  const io::ReadBatch reads = test_reads();
  DriverOptions narrow;
  narrow.pipeline.kind = PipelineKind::kCpu;
  narrow.pipeline.k = 31;
  narrow.pipeline.m = 7;
  narrow.nranks = 4;
  narrow.collect_counts = false;
  DriverOptions wide = narrow;
  wide.pipeline.k = 33;
  wide.pipeline.m = 15;

  const auto n = run_distributed_count(reads, narrow);
  const auto w = run_distributed_count_wide(reads, wide);
  const double bytes_per_kmer_narrow =
      static_cast<double>(n.totals().bytes_sent) /
      static_cast<double>(n.totals().kmers_parsed);
  const double bytes_per_kmer_wide =
      static_cast<double>(w.base.totals().bytes_sent) /
      static_cast<double>(w.base.totals().kmers_parsed);
  EXPECT_NEAR(bytes_per_kmer_wide / bytes_per_kmer_narrow, 2.0, 0.05);
}

TEST(WidePipelineTest, RejectsNarrowKAndGpuKinds) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kCpu;
  options.pipeline.k = 17;  // narrow k must use the narrow entry point
  EXPECT_THROW(run_distributed_count_wide(test_reads(), options), Error);

  // The rule holds in every mode, out of core included.
  DriverOptions ooc = options;
  ooc.ooc.spill_root = test_support::temp_path("wide-rejects-narrow-k");
  EXPECT_THROW(run_distributed_count_wide(test_reads(), ooc),
               PreconditionError);

  options.pipeline.k = 41;
  options.pipeline.kind = PipelineKind::kGpuKmer;
  EXPECT_THROW(run_distributed_count_wide(test_reads(), options),
               PreconditionError);

  // The sketch backend has no wide keys; it must not fall back to an
  // exact count.
  DriverOptions sketch;
  sketch.pipeline.kind = PipelineKind::kCpu;
  sketch.pipeline.k = 41;
  sketch.pipeline.sketch = true;
  EXPECT_THROW(run_distributed_count_wide(test_reads(), sketch),
               PreconditionError);
  sketch.pipeline.heavy_threshold = 2;
  EXPECT_THROW(run_distributed_count_wide(test_reads(), sketch),
               PreconditionError);
}

TEST(WidePipelineTest, NarrowDriverRejectsWideK) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.pipeline.k = 41;
  EXPECT_THROW(run_distributed_count(test_reads(), options),
               PreconditionError);

  // One-word keys hold at most 31 bases; the CPU pipeline must not keep
  // only the last 32 bases of a 33-mer.
  options.pipeline.kind = PipelineKind::kCpu;
  options.pipeline.k = 33;
  EXPECT_THROW(run_distributed_count(test_reads(), options),
               PreconditionError);
  options.pipeline.canonical = true;
  EXPECT_THROW(run_distributed_count(test_reads(), options),
               PreconditionError);
}

}  // namespace
}  // namespace dedukt::core
