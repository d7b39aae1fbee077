#include "dedukt/core/driver.hpp"

#include <gtest/gtest.h>

#include "dedukt/io/datasets.hpp"
#include "dedukt/io/synthetic.hpp"

namespace dedukt::core {
namespace {

io::ReadBatch preset_reads() {
  // A strongly down-scaled E. coli 30X (fast enough for unit tests).
  return io::make_dataset(*io::find_preset("ecoli30x"), /*scale=*/2000,
                          /*seed=*/5);
}

TEST(DriverTest, MetricsArePopulatedPerRank) {
  DriverOptions options;
  options.nranks = 6;
  const CountResult result = run_distributed_count(preset_reads(), options);
  ASSERT_EQ(result.ranks.size(), 6u);
  for (const auto& rank : result.ranks) {
    EXPECT_GT(rank.bases, 0u);
    EXPECT_GT(rank.kmers_parsed, 0u);
    EXPECT_GT(rank.supermers_built, 0u);
    EXPECT_GT(rank.measured.get(kPhaseParse), 0.0);
    EXPECT_GT(rank.modeled.get(kPhaseParse), 0.0);
    EXPECT_GT(rank.modeled.get(kPhaseExchange), 0.0);
    EXPECT_GT(rank.modeled.get(kPhaseCount), 0.0);
  }
}

TEST(DriverTest, ModeledBreakdownIsPerPhaseMax) {
  DriverOptions options;
  options.nranks = 4;
  const CountResult result = run_distributed_count(preset_reads(), options);
  const PhaseTimes breakdown = result.modeled_breakdown();
  for (const char* phase : {kPhaseParse, kPhaseExchange, kPhaseCount}) {
    double max_seen = 0;
    for (const auto& rank : result.ranks) {
      max_seen = std::max(max_seen, rank.modeled.get(phase));
    }
    EXPECT_DOUBLE_EQ(breakdown.get(phase), max_seen) << phase;
  }
  EXPECT_DOUBLE_EQ(result.modeled_total_seconds(), breakdown.total());
}

TEST(DriverTest, SupermerBasesAndCountsConsistent) {
  DriverOptions options;
  options.nranks = 5;
  const CountResult result = run_distributed_count(preset_reads(), options);
  const auto totals = result.totals();
  // Structural identity: sum(len) = kmers + (k-1) * supermers.
  EXPECT_EQ(totals.supermer_bases,
            totals.kmers_parsed +
                static_cast<std::uint64_t>(options.pipeline.k - 1) *
                    totals.supermers_built);
}

TEST(DriverTest, BytesSentMatchBytesReceivedGlobally) {
  DriverOptions options;
  options.nranks = 6;
  const CountResult result = run_distributed_count(preset_reads(), options);
  const auto totals = result.totals();
  EXPECT_EQ(totals.bytes_sent, totals.bytes_received);
  EXPECT_GT(totals.bytes_sent, 0u);
}

TEST(DriverTest, CollectCountsOffSkipsGlobalTable) {
  DriverOptions options;
  options.nranks = 3;
  options.collect_counts = false;
  const CountResult result = run_distributed_count(preset_reads(), options);
  EXPECT_TRUE(result.global_counts.empty());
  EXPECT_GT(result.totals().counted_kmers, 0u);
}

TEST(DriverTest, UniqueKmersMatchGlobalTableSize) {
  DriverOptions options;
  options.nranks = 4;
  const CountResult result = run_distributed_count(preset_reads(), options);
  EXPECT_EQ(result.total_unique(), result.global_counts.size());
}

TEST(DriverTest, SpectrumSumsToUnique) {
  DriverOptions options;
  options.nranks = 4;
  const CountResult result = run_distributed_count(preset_reads(), options);
  std::uint64_t spectrum_total = 0;
  for (const auto& [multiplicity, count] : result.spectrum()) {
    EXPECT_GE(multiplicity, 1u);
    spectrum_total += count;
  }
  EXPECT_EQ(spectrum_total, result.total_unique());
}

TEST(DriverTest, CoverageShowsUpInSpectrum) {
  // A 30X dataset's spectrum should have substantial mass well above
  // multiplicity 1 (k-mers from coverage overlap).
  DriverOptions options;
  options.nranks = 4;
  const CountResult result = run_distributed_count(preset_reads(), options);
  const auto spectrum = result.spectrum();
  std::uint64_t multi = 0, total = 0;
  for (const auto& [multiplicity, count] : spectrum) {
    total += count;
    if (multiplicity >= 5) multi += count;
  }
  EXPECT_GT(multi, total / 4);
}

TEST(DriverTest, LoadImbalanceReasonableForKmerPartitioning) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuKmer;
  options.nranks = 8;
  const CountResult result = run_distributed_count(preset_reads(), options);
  // Table III: hash partitioning of k-mers is near-balanced (paper: 1.13).
  EXPECT_LT(result.load_imbalance(), 1.3);
  const auto [lo, hi] = result.min_max_load();
  EXPECT_GT(lo, 0u);
  EXPECT_GE(hi, lo);
}

TEST(DriverTest, SupermerImbalanceAtLeastKmerImbalance) {
  // Table III: minimizer partitioning introduces skew (1.16-2.37 vs 1.13).
  DriverOptions kmer_opts;
  kmer_opts.pipeline.kind = PipelineKind::kGpuKmer;
  kmer_opts.nranks = 8;
  DriverOptions smer_opts = kmer_opts;
  smer_opts.pipeline.kind = PipelineKind::kGpuSupermer;
  const io::ReadBatch reads = preset_reads();
  const double kmer_imb =
      run_distributed_count(reads, kmer_opts).load_imbalance();
  const double smer_imb =
      run_distributed_count(reads, smer_opts).load_imbalance();
  EXPECT_GE(smer_imb, kmer_imb * 0.95);  // allow statistical noise
}

TEST(DriverTest, RanksPerNodeDefaultsFollowPipelineKind) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kCpu;
  EXPECT_EQ(options.effective_ranks_per_node(), summit::kCoresPerNode);
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  EXPECT_EQ(options.effective_ranks_per_node(), summit::kGpusPerNode);
}

TEST(DriverTest, GpuModeledTimeFarBelowCpuModeledTime) {
  // Fig. 3 / Fig. 6: the GPU pipelines beat the CPU baseline by orders of
  // magnitude on modeled Summit time.
  const io::ReadBatch reads = preset_reads();
  DriverOptions cpu;
  cpu.pipeline.kind = PipelineKind::kCpu;
  cpu.nranks = 8;
  DriverOptions gpu;
  gpu.pipeline.kind = PipelineKind::kGpuKmer;
  gpu.nranks = 8;
  // Compare at a projected full-size volume (x2000) so the GPU pipelines'
  // fixed per-phase overheads — which dominate on unit-test-sized inputs,
  // exactly as in Fig. 6a — do not mask the asymptotic gap.
  const double cpu_time = run_distributed_count(reads, cpu)
                              .projected_breakdown(2000.0)
                              .total();
  const double gpu_time = run_distributed_count(reads, gpu)
                              .projected_breakdown(2000.0)
                              .total();
  EXPECT_GT(cpu_time / gpu_time, 10.0);
}

TEST(DriverTest, InvalidOptionsThrow) {
  DriverOptions options;
  options.nranks = 0;
  EXPECT_THROW(run_distributed_count(io::ReadBatch{}, options),
               PreconditionError);
}

}  // namespace
}  // namespace dedukt::core
