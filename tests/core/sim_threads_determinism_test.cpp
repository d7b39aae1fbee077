// End-to-end determinism across DEDUKT_SIM_THREADS: the full k-mer and
// supermer pipelines must produce bit-identical spectra, work counts, and
// modeled times whether the simulated kernels run sequentially or on a
// pool of host workers. The Bloom-filtered pipelines are held to the same
// contract: their count kernels run in the canonical block order, so the
// filter fills in the same order at every pool size (see
// docs/performance-model.md). Pool sizes are set in-process, so the
// contract is checked beyond the core count of the machine running it.
#include "dedukt/core/driver.hpp"

#include <gtest/gtest.h>

#include <string>

#include "dedukt/io/datasets.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/thread_pool.hpp"

namespace dedukt::core {
namespace {

struct PoolGuard {
  ~PoolGuard() { util::ThreadPool::set_global_threads(1); }
};

io::ReadBatch preset_reads() {
  return io::make_dataset(*io::find_preset("ecoli30x"), /*scale=*/2000,
                          /*seed=*/7);
}

CountResult run_at(unsigned threads, PipelineKind kind,
                   const io::ReadBatch& reads) {
  util::ThreadPool::set_global_threads(threads);
  DriverOptions options;
  options.pipeline.kind = kind;
  options.nranks = 4;
  return run_distributed_count(reads, options);
}

void expect_identical(const CountResult& a, const CountResult& b,
                      unsigned threads) {
  SCOPED_TRACE(testing::Message() << "pool size " << threads);
  // Exact spectra: same (k-mer, count) pairs in the same sorted order.
  EXPECT_EQ(a.global_counts, b.global_counts);
  EXPECT_EQ(a.spectrum(), b.spectrum());

  const RankMetrics ta = a.totals();
  const RankMetrics tb = b.totals();
  EXPECT_EQ(ta.kmers_parsed, tb.kmers_parsed);
  EXPECT_EQ(ta.supermers_built, tb.supermers_built);
  EXPECT_EQ(ta.kmers_received, tb.kmers_received);
  EXPECT_EQ(ta.bytes_sent, tb.bytes_sent);
  EXPECT_EQ(ta.bytes_received, tb.bytes_received);
  EXPECT_EQ(ta.unique_kmers, tb.unique_kmers);
  EXPECT_EQ(ta.counted_kmers, tb.counted_kmers);

  // Modeled Summit time is priced from launch counters and comm bytes, so
  // it must be *bit*-identical — exact double equality, per rank and phase.
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "rank " << r);
    EXPECT_EQ(a.ranks[r].modeled.phases(), b.ranks[r].modeled.phases());
    EXPECT_EQ(a.ranks[r].modeled_alltoallv_seconds,
              b.ranks[r].modeled_alltoallv_seconds);
  }
  EXPECT_EQ(a.modeled_total_seconds(), b.modeled_total_seconds());
}

TEST(SimThreadsDeterminismTest, KmerPipelineIdenticalAcrossPoolSizes) {
  PoolGuard guard;
  const io::ReadBatch reads = preset_reads();
  const CountResult sequential = run_at(1, PipelineKind::kGpuKmer, reads);
  EXPECT_GT(sequential.global_counts.size(), 0u);
  for (const unsigned threads : {2u, 8u}) {
    expect_identical(run_at(threads, PipelineKind::kGpuKmer, reads),
                     sequential, threads);
  }
}

TEST(SimThreadsDeterminismTest, SupermerPipelineIdenticalAcrossPoolSizes) {
  PoolGuard guard;
  const io::ReadBatch reads = preset_reads();
  const CountResult sequential =
      run_at(1, PipelineKind::kGpuSupermer, reads);
  EXPECT_GT(sequential.global_counts.size(), 0u);
  for (const unsigned threads : {2u, 8u}) {
    expect_identical(run_at(threads, PipelineKind::kGpuSupermer, reads),
                     sequential, threads);
  }
}

TEST(SimThreadsDeterminismTest, Kmc2OrderAlsoDeterministic) {
  // A second configuration axis (KMC2 minimizer order, odd rank count) to
  // guard against order-sensitivity hiding in a non-default path.
  PoolGuard guard;
  const io::ReadBatch reads = preset_reads();
  auto run = [&](unsigned threads) {
    util::ThreadPool::set_global_threads(threads);
    DriverOptions options;
    options.pipeline.kind = PipelineKind::kGpuSupermer;
    options.pipeline.order = kmer::MinimizerOrder::kKmc2;
    options.nranks = 3;
    return run_distributed_count(reads, options);
  };
  const CountResult sequential = run(1);
  expect_identical(run(8), sequential, 8);
}

/// A Bloom-filtered run plus its trace metrics on the modeled clock, which
/// carry every kernel's traffic counters (shared-memory bytes included), so
/// a drift that leaves modeled seconds unchanged still fails.
struct FilteredRun {
  CountResult result;
  std::string kernel_metrics;
};

FilteredRun run_filtered_at(unsigned threads, PipelineKind kind,
                            const io::ReadBatch& reads) {
  util::ThreadPool::set_global_threads(threads);
  DriverOptions options;
  options.pipeline.kind = kind;
  options.pipeline.filter_singletons = true;
  options.nranks = 4;
  auto& session = trace::TraceSession::instance();
  session.reset();
  session.enable("");
  FilteredRun run{run_distributed_count(reads, options), ""};
  run.kernel_metrics = session.metrics().to_json(/*include_wall=*/false);
  session.disable();
  return run;
}

void expect_filtered_identical_across_pool_sizes(PipelineKind kind) {
  PoolGuard guard;
  const io::ReadBatch reads = preset_reads();
  const FilteredRun sequential = run_filtered_at(1, kind, reads);
  EXPECT_GT(sequential.result.global_counts.size(), 0u);
  for (const unsigned threads : {2u, 4u, 8u, 16u}) {
    const FilteredRun pooled = run_filtered_at(threads, kind, reads);
    expect_identical(pooled.result, sequential.result, threads);
    EXPECT_EQ(pooled.kernel_metrics, sequential.kernel_metrics);
  }
}

TEST(SimThreadsDeterminismTest, FilteredKmerPipelineIdenticalAcrossPoolSizes) {
  expect_filtered_identical_across_pool_sizes(PipelineKind::kGpuKmer);
}

TEST(SimThreadsDeterminismTest,
     FilteredSupermerPipelineIdenticalAcrossPoolSizes) {
  expect_filtered_identical_across_pool_sizes(PipelineKind::kGpuSupermer);
}

}  // namespace
}  // namespace dedukt::core
