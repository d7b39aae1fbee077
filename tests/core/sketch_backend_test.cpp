// Driver-level sketch backend battery (ctest -L sketch): the --sketch
// counting path end to end — rank/pipeline/pool invariance of the merged
// vanilla cells, the allreduce_vector merge itself, the config gate, the
// stream-total bookkeeping, and the bounded-footprint claim under
// --batch-reads composition.
#include "dedukt/core/driver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dedukt/core/sketch.hpp"
#include "dedukt/io/datasets.hpp"
#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/util/rng.hpp"
#include "dedukt/util/thread_pool.hpp"

namespace dedukt::core {
namespace {

struct PoolGuard {
  ~PoolGuard() { util::ThreadPool::set_global_threads(1); }
};

io::ReadBatch preset_reads() {
  return io::make_dataset(*io::find_preset("ecoli30x"), /*scale=*/4000,
                          /*seed=*/11);
}

DriverOptions sketch_options(PipelineKind kind, int nranks,
                             bool conservative = false) {
  DriverOptions options;
  options.pipeline.kind = kind;
  options.pipeline.sketch = true;
  options.pipeline.sketch_width = 1u << 12;
  options.pipeline.sketch_depth = 4;
  options.pipeline.sketch_conservative = conservative;
  options.nranks = nranks;
  return options;
}

TEST(SketchBackendTest, VanillaCellsInvariantAcrossRankCounts) {
  // Vanilla cells are a function of the global input multiset alone, so
  // any rank partitioning must merge to bit-identical global cells.
  const io::ReadBatch reads = preset_reads();
  const CountResult one =
      run_distributed_count(reads, sketch_options(PipelineKind::kCpu, 1));
  ASSERT_TRUE(one.sketch.enabled);
  ASSERT_FALSE(one.sketch.cells.empty());
  for (const int nranks : {2, 3}) {
    const CountResult many = run_distributed_count(
        reads, sketch_options(PipelineKind::kCpu, nranks));
    EXPECT_EQ(many.sketch.cells, one.sketch.cells) << nranks << " ranks";
    EXPECT_EQ(many.sketch.sketched_kmers, one.sketch.sketched_kmers);
  }
}

TEST(SketchBackendTest, VanillaCellsInvariantAcrossPipelineKinds) {
  // The CPU path updates the host sketch, the GPU kinds run the priced
  // kernels — same multiset, so bit-identical merged cells.
  const io::ReadBatch reads = preset_reads();
  const CountResult cpu =
      run_distributed_count(reads, sketch_options(PipelineKind::kCpu, 3));
  for (const PipelineKind kind :
       {PipelineKind::kGpuKmer, PipelineKind::kGpuSupermer}) {
    const CountResult gpu =
        run_distributed_count(reads, sketch_options(kind, 3));
    EXPECT_EQ(gpu.sketch.cells, cpu.sketch.cells) << to_string(kind);
    EXPECT_EQ(gpu.sketch.sketched_kmers, cpu.sketch.sketched_kmers);
  }
}

TEST(SketchBackendTest, DeterministicAcrossPoolSizes) {
  // Bit-identical cells AND modeled times at any DEDUKT_SIM_THREADS, for
  // both disciplines (vanilla by commutativity, conservative by the
  // order-pinned kernel).
  PoolGuard guard;
  const io::ReadBatch reads = preset_reads();
  for (const bool conservative : {false, true}) {
    SCOPED_TRACE(conservative ? "conservative" : "vanilla");
    util::ThreadPool::set_global_threads(1);
    const CountResult sequential = run_distributed_count(
        reads, sketch_options(PipelineKind::kGpuKmer, 2, conservative));
    util::ThreadPool::set_global_threads(4);
    const CountResult pooled = run_distributed_count(
        reads, sketch_options(PipelineKind::kGpuKmer, 2, conservative));
    EXPECT_EQ(pooled.sketch.cells, sequential.sketch.cells);
    EXPECT_EQ(pooled.modeled_total_seconds(),
              sequential.modeled_total_seconds());
  }
}

TEST(SketchBackendTest, SketchedTotalEqualsExactCountedTotal) {
  // The sketch absorbs exactly the occurrences the exact backend counts.
  const io::ReadBatch reads = preset_reads();
  DriverOptions exact;
  exact.pipeline.kind = PipelineKind::kCpu;
  exact.nranks = 2;
  const CountResult exact_result = run_distributed_count(reads, exact);
  const CountResult sketched =
      run_distributed_count(reads, sketch_options(PipelineKind::kCpu, 2));
  EXPECT_EQ(sketched.sketch.sketched_kmers,
            exact_result.totals().counted_kmers);
  // And one-sidedness against the exact spectrum, through the driver.
  for (const auto& [key, count] : exact_result.global_counts) {
    ASSERT_GE(sketched.sketch.estimate(key), count);
  }
  // No exact table was gathered.
  EXPECT_TRUE(sketched.global_counts.empty());
}

TEST(SketchBackendTest, ConservativeEstimatesStillOneSided) {
  const io::ReadBatch reads = preset_reads();
  DriverOptions exact;
  exact.pipeline.kind = PipelineKind::kCpu;
  exact.nranks = 2;
  const CountResult exact_result = run_distributed_count(reads, exact);
  const CountResult sketched = run_distributed_count(
      reads, sketch_options(PipelineKind::kCpu, 2, /*conservative=*/true));
  for (const auto& [key, count] : exact_result.global_counts) {
    ASSERT_GE(sketched.sketch.estimate(key), count);
  }
}

TEST(SketchBackendTest, ConfigGateRejectsMeaninglessCompositions) {
  PipelineConfig config;
  config.sketch = true;
  config.sketch_width = 100;  // not a power of two
  EXPECT_THROW(config.validate(), PreconditionError);
  config.sketch_width = 1u << 12;
  config.sketch_depth = 0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.sketch_depth = 4;
  EXPECT_NO_THROW(config.validate());

  config.filter_singletons = true;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.filter_singletons = false;

  config.wide_supermers = true;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.wide_supermers = false;

  PipelineConfig no_sketch;
  no_sketch.heavy_threshold = 10;  // threshold without --sketch
  EXPECT_THROW(no_sketch.validate(), PreconditionError);
}

TEST(SketchBackendTest, RejectsOocComposition) {
  DriverOptions options = sketch_options(PipelineKind::kCpu, 2);
  options.ooc.spill_root = "/tmp/nonexistent-sketch-ooc";
  const io::ReadBatch reads = preset_reads();
  EXPECT_THROW(run_distributed_count(reads, options), PreconditionError);
}

/// Uniform synthetic reads: fixed-width names and equal lengths so every
/// --batch-reads window has the same resident size.
io::ReadBatch uniform_reads(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  io::ReadBatch batch;
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (std::size_t i = 0; i < count; ++i) {
    std::string read(100, 'A');
    for (char& base : read) base = bases[rng.below(4)];
    std::string name = "read" + std::to_string(i);
    name.resize(12, '_');
    batch.reads.push_back({name, read, ""});
  }
  return batch;
}

TEST(SketchBackendTest, FootprintConstantAsInputGrows) {
  // Satellite: --sketch composed with --batch-reads is a bounded-memory
  // streaming counter. 4x the input, same peak resident bytes — the batch
  // window and the sketch are the whole footprint.
  DriverOptions options = sketch_options(PipelineKind::kCpu, 2);
  options.batch.max_reads = 64;
  const CountResult small =
      run_distributed_count(uniform_reads(256, 21), options);
  const CountResult large =
      run_distributed_count(uniform_reads(1024, 22), options);
  const std::uint64_t small_peak = small.totals().peak_resident_bytes;
  const std::uint64_t large_peak = large.totals().peak_resident_bytes;
  ASSERT_GT(small_peak, 0u);
  EXPECT_EQ(large_peak, small_peak);
  // The sketch itself is part of the reported footprint.
  EXPECT_GE(small_peak, small.sketch.sketch_bytes);
}

TEST(SketchBackendTest, MergeChargesExchangePhaseAndWire) {
  // Multi-rank sketch runs pay the allreduce on the wire and in the
  // exchange phase; single-rank runs don't.
  const io::ReadBatch reads = preset_reads();
  const CountResult solo =
      run_distributed_count(reads, sketch_options(PipelineKind::kCpu, 1));
  const CountResult trio =
      run_distributed_count(reads, sketch_options(PipelineKind::kCpu, 3));
  EXPECT_EQ(solo.totals().bytes_sent, 0u);
  EXPECT_GT(trio.totals().bytes_sent, 0u);
  EXPECT_GT(trio.modeled_breakdown().get(kPhaseExchange), 0.0);
}

TEST(SketchBackendTest, AllreduceVectorSumsElementwise) {
  // The collective the merge rides on, in isolation.
  mpisim::Runtime runtime(4, mpisim::NetworkModel::local());
  std::vector<std::vector<std::uint32_t>> results(4);
  runtime.run([&](mpisim::Comm& comm) {
    const auto r = static_cast<std::uint32_t>(comm.rank());
    const std::vector<std::uint32_t> mine = {r, 10u + r, 100u};
    results[r] = comm.allreduce_vector(mine, mpisim::ReduceOp::kSum);
  });
  const std::vector<std::uint32_t> expected = {0 + 1 + 2 + 3,
                                               40 + 0 + 1 + 2 + 3, 400};
  for (const auto& result : results) EXPECT_EQ(result, expected);
}

TEST(SketchBackendTest, AllreduceVectorRejectsLengthMismatch) {
  mpisim::Runtime runtime(2, mpisim::NetworkModel::local());
  EXPECT_THROW(runtime.run([&](mpisim::Comm& comm) {
    std::vector<std::uint64_t> mine(comm.rank() == 0 ? 3 : 4, 1);
    (void)comm.allreduce_vector(mine, mpisim::ReduceOp::kSum);
  }),
               Error);
}

}  // namespace
}  // namespace dedukt::core
