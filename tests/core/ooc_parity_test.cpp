// Out-of-core / streamed-ingest parity battery (`ctest -L ooc`).
//
// The streaming refactor's contract: a single-batch stream IS the
// historical in-memory run (bit-identical CountResult, spectra, and trace
// metrics), and every other ingest shape — bounded batches, batch-of-one,
// disk-spilled two-pass — must agree with it on the counting *results*
// (spectra, global counts, and for hash routing the per-rank tallies),
// while only modeled times, footprint ledgers, and the new disk phases may
// differ. The battery drives every pipeline variant through
// {1 batch, bounded batches, batch=1 read} x {spill off, spill on} and
// checks those invariants, plus the out-of-core bookkeeping: spill volume
// symmetry, bounded peak-resident accounting, scratch cleanup, and the
// config validation walls.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/gpusim/cost_model.hpp"
#include "dedukt/gpusim/device_props.hpp"
#include "dedukt/io/datasets.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/thread_pool.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::core {
namespace {

namespace fs = std::filesystem;

io::ReadBatch parity_reads() {
  io::GenomeSpec gspec;
  gspec.length = 4'000;
  gspec.seed = 271;
  io::ReadSpec rspec;
  rspec.coverage = 4.0;
  rspec.mean_read_length = 250;
  rspec.min_read_length = 80;
  rspec.seed = 272;
  return io::generate_dataset(gspec, rspec);
}

std::string spill_root() {
  return test_support::temp_path("dedukt-ooc-parity");
}

// --- deterministic identity rendering ----------------------------------

void append_spectrum(std::ostringstream& out,
                     const std::map<std::uint64_t, std::uint64_t>& spectrum) {
  out << "spectrum:";
  for (const auto& [multiplicity, distinct] : spectrum) {
    out << " " << multiplicity << ":" << distinct;
  }
  out << "\n";
}

/// The global counting outcome: spectrum plus the full (key, count) table.
std::string global_identity(const CountResult& result) {
  std::ostringstream out;
  append_spectrum(out, result.spectrum());
  for (const auto& [key, count] : result.global_counts) {
    out << key << ":" << count << "\n";
  }
  return out.str();
}

std::string global_identity_wide(const WideCountResult& result) {
  std::ostringstream out;
  std::map<std::uint64_t, std::uint64_t> spectrum;
  for (const auto& [key, count] : result.global_counts) spectrum[count] += 1;
  append_spectrum(out, spectrum);
  for (const auto& [key, count] : result.global_counts) {
    out << key.hi << "." << key.lo << ":" << count << "\n";
  }
  return out.str();
}

/// Per-rank table tallies — stable whenever the destination function is a
/// pure hash of the key/minimizer.
std::string rank_identity(const CountResult& result) {
  std::ostringstream out;
  for (int r = 0; r < result.nranks; ++r) {
    const RankMetrics& m = result.ranks[static_cast<std::size_t>(r)];
    out << "rank " << r << ": unique=" << m.unique_kmers
        << " counted=" << m.counted_kmers << "\n";
  }
  return out.str();
}

// --- the scenario matrix ------------------------------------------------

struct Scenario {
  const char* name;
  /// Destinations are a pure key/minimizer hash: per-rank tallies must be
  /// invariant across every ingest shape. Frequency-balanced schemes sample
  /// their routing once, from the first batch, and the first batch differs
  /// by shape, so only the global outcome is pinned for them.
  bool hash_routing;
  void (*configure)(DriverOptions&);
};

constexpr Scenario kScenarios[] = {
    {"cpu", true,
     [](DriverOptions& o) { o.pipeline.kind = PipelineKind::kCpu; }},
    {"cpu_canonical", true,
     [](DriverOptions& o) {
       o.pipeline.kind = PipelineKind::kCpu;
       o.pipeline.canonical = true;
     }},
    {"gpu_kmer", true,
     [](DriverOptions& o) { o.pipeline.kind = PipelineKind::kGpuKmer; }},
    {"gpu_supermer", true,
     [](DriverOptions& o) { o.pipeline.kind = PipelineKind::kGpuSupermer; }},
    {"gpu_supermer_wide", true,
     [](DriverOptions& o) {
       o.pipeline.kind = PipelineKind::kGpuSupermer;
       o.pipeline.wide_supermers = true;
       o.pipeline.window = 40;
     }},
    {"gpu_supermer_freq", false,
     [](DriverOptions& o) {
       o.pipeline.kind = PipelineKind::kGpuSupermer;
       o.pipeline.partition = PartitionScheme::kFrequencyBalanced;
     }},
};

struct IngestShape {
  const char* name;
  std::uint64_t max_reads;  ///< 0 = unbounded (one batch)
  bool spill;
};

constexpr IngestShape kShapes[] = {
    {"one_batch", 0, false},
    {"bounded_batches", 40, false},
    {"batch_of_one", 1, false},
    {"one_batch_spill", 0, true},
    {"bounded_batches_spill", 40, true},
    {"batch_of_one_spill", 1, true},
};

DriverOptions scenario_options(const Scenario& scenario) {
  DriverOptions options;
  scenario.configure(options);
  options.nranks = 4;
  return options;
}

CountResult run_shape(const Scenario& scenario, const IngestShape& shape) {
  DriverOptions options = scenario_options(scenario);
  options.batch.max_reads = shape.max_reads;
  if (shape.spill) {
    options.ooc.spill_root = spill_root();
    options.ooc.bins = 3;
  }
  return run_distributed_count(parity_reads(), options);
}

class OocParity : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OocParity, EveryIngestShapeMatchesTheInMemoryRun) {
  const auto [scenario_index, shape_index] = GetParam();
  const Scenario& scenario = kScenarios[scenario_index];
  const IngestShape& shape = kShapes[shape_index];

  const CountResult baseline =
      run_shape(scenario, IngestShape{"baseline", 0, false});
  const CountResult shaped = run_shape(scenario, shape);

  EXPECT_EQ(global_identity(baseline), global_identity(shaped))
      << scenario.name << " / " << shape.name;
  // Every key lives on exactly one rank: routing holds for the whole job.
  EXPECT_EQ(shaped.total_unique(), shaped.global_counts.size())
      << scenario.name << " / " << shape.name;
  if (scenario.hash_routing) {
    EXPECT_EQ(rank_identity(baseline), rank_identity(shaped))
        << scenario.name << " / " << shape.name;
  }

  if (shape.spill) {
    const RankMetrics totals = shaped.totals();
    // Spilled bytes come back exactly once.
    EXPECT_GT(totals.spill_bytes_written, 0u) << scenario.name;
    EXPECT_EQ(totals.spill_bytes_written, totals.spill_bytes_read)
        << scenario.name;
    EXPECT_GT(totals.peak_resident_bytes, 0u) << scenario.name;
    // The two disk phases are priced; the in-memory run never records them.
    EXPECT_GT(shaped.modeled_breakdown().get(kPhaseSpill), 0.0);
    EXPECT_GT(shaped.modeled_breakdown().get(kPhaseReload), 0.0);
    EXPECT_DOUBLE_EQ(baseline.modeled_breakdown().get(kPhaseSpill), 0.0);
    EXPECT_DOUBLE_EQ(baseline.modeled_breakdown().get(kPhaseReload), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScenariosAndShapes, OocParity,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 6)));

// --- pass 1 is the pipeline's own parse ---------------------------------

/// Pass 1 runs each batch through the pipeline's own parse phase (the GPU
/// kinds' launches and §VII routing setup on a device of the batch's own),
/// so rank by rank a spilled run's parse ledger is the in-memory run's with
/// the same batch bounds: modeled and volume seconds bit for bit, and the
/// parse work counters.
TEST(OocParity, SpilledParseMatchesTheInMemoryParseRankByRank) {
  for (const Scenario& scenario : kScenarios) {
    for (const std::uint64_t max_reads : {std::uint64_t{0}, std::uint64_t{40}}) {
      SCOPED_TRACE(testing::Message()
                   << scenario.name << ", max_reads=" << max_reads);
      const CountResult in_memory =
          run_shape(scenario, IngestShape{"in_memory", max_reads, false});
      const CountResult spilled =
          run_shape(scenario, IngestShape{"spilled", max_reads, true});
      ASSERT_EQ(in_memory.ranks.size(), spilled.ranks.size());
      for (std::size_t r = 0; r < in_memory.ranks.size(); ++r) {
        SCOPED_TRACE(testing::Message() << "rank " << r);
        const RankMetrics& a = in_memory.ranks[r];
        const RankMetrics& b = spilled.ranks[r];
        EXPECT_EQ(a.modeled.get(kPhaseParse), b.modeled.get(kPhaseParse));
        EXPECT_EQ(a.modeled_volume.get(kPhaseParse),
                  b.modeled_volume.get(kPhaseParse));
        EXPECT_EQ(a.kmers_parsed, b.kmers_parsed);
        EXPECT_EQ(a.supermers_built, b.supermers_built);
        EXPECT_EQ(a.supermer_bases, b.supermer_bases);
      }
    }
  }
}

// --- pass 2 is the pipeline's own exchange phase -----------------------

/// With one batch and one bin, the bin holds each destination's run as
/// the parse left it, so pass 2 exchanges and counts exactly what the
/// in-memory round does. Rank by rank, its exchange and count ledgers are
/// the in-memory round's, bit for bit where the ledgers allow, except that
/// a staged in-memory exchange also stages the parse's buffers off the
/// device, which pass 1 spills unpriced.
TEST(OocParity, OneBinReplayExchangesLikeTheInMemoryRoundRankByRank) {
  struct Variant {
    const char* name;
    PipelineKind kind;
    bool wide_supermers;
    PartitionScheme partition;
  };
  constexpr Variant kVariants[] = {
      {"cpu", PipelineKind::kCpu, false, PartitionScheme::kMinimizerHash},
      {"gpu_kmer", PipelineKind::kGpuKmer, false,
       PartitionScheme::kMinimizerHash},
      {"gpu_supermer", PipelineKind::kGpuSupermer, false,
       PartitionScheme::kMinimizerHash},
      {"gpu_supermer_freq", PipelineKind::kGpuSupermer, false,
       PartitionScheme::kFrequencyBalanced},
      {"gpu_supermer_wide", PipelineKind::kGpuSupermer, true,
       PartitionScheme::kMinimizerHash},
      {"gpu_supermer_wide_freq", PipelineKind::kGpuSupermer, true,
       PartitionScheme::kFrequencyBalanced},
  };
  const gpusim::GpuCostModel cost(gpusim::DeviceProps::v100());
  const io::ReadBatch reads = parity_reads();
  for (const Variant& variant : kVariants) {
    for (const ExchangeMode mode :
         {ExchangeMode::kStaged, ExchangeMode::kGpuDirect}) {
      SCOPED_TRACE(testing::Message() << variant.name << ", "
                                      << to_string(mode));
      DriverOptions options;
      options.pipeline.kind = variant.kind;
      options.pipeline.wide_supermers = variant.wide_supermers;
      if (variant.wide_supermers) options.pipeline.window = 40;
      options.pipeline.partition = variant.partition;
      options.pipeline.exchange = mode;
      options.nranks = 4;
      const CountResult in_memory = run_distributed_count(reads, options);
      options.ooc.spill_root = spill_root();
      options.ooc.bins = 1;
      const CountResult spilled = run_distributed_count(reads, options);
      EXPECT_EQ(global_identity(in_memory), global_identity(spilled));

      ASSERT_EQ(in_memory.ranks.size(), spilled.ranks.size());
      for (std::size_t r = 0; r < in_memory.ranks.size(); ++r) {
        SCOPED_TRACE(testing::Message() << "rank " << r);
        const RankMetrics& a = in_memory.ranks[r];
        const RankMetrics& b = spilled.ranks[r];
        EXPECT_EQ(a.bytes_sent, b.bytes_sent);
        EXPECT_EQ(a.bytes_received, b.bytes_received);
        EXPECT_EQ(a.modeled_alltoallv_seconds, b.modeled_alltoallv_seconds);
        EXPECT_EQ(a.modeled_alltoallv_volume_seconds,
                  b.modeled_alltoallv_volume_seconds);
        EXPECT_EQ(a.kmers_received, b.kmers_received);
        EXPECT_EQ(a.supermers_received, b.supermers_received);
        EXPECT_EQ(a.modeled.get(kPhaseCount), b.modeled.get(kPhaseCount));
        EXPECT_EQ(a.modeled_volume.get(kPhaseCount),
                  b.modeled_volume.get(kPhaseCount));

        // The in-memory round's stage-out: the parse's word buffer and,
        // for supermers, its length buffer.
        double stage_out = 0.0;
        double stage_out_volume = 0.0;
        if (variant.kind != PipelineKind::kCpu &&
            mode == ExchangeMode::kStaged) {
          const bool supermers = variant.kind == PipelineKind::kGpuSupermer;
          const std::uint64_t items =
              supermers ? a.supermers_built : a.kmers_parsed;
          const std::uint64_t word_bytes =
              variant.wide_supermers ? 2 * sizeof(std::uint64_t)
                                     : sizeof(std::uint64_t);
          stage_out = cost.transfer_seconds(items * word_bytes);
          stage_out_volume = cost.transfer_volume_seconds(items * word_bytes);
          if (supermers) {
            stage_out += cost.transfer_seconds(items);
            stage_out_volume += cost.transfer_volume_seconds(items);
          }
        }
        if (stage_out == 0.0) {
          EXPECT_EQ(a.modeled.get(kPhaseExchange),
                    b.modeled.get(kPhaseExchange));
          EXPECT_EQ(a.modeled_volume.get(kPhaseExchange),
                    b.modeled_volume.get(kPhaseExchange));
        } else {
          // The staging seconds are differences of device timelines that
          // hold different earlier work (the in-memory round's parse, or
          // nothing), so the two charges round apart in the last bits.
          EXPECT_DOUBLE_EQ(a.modeled.get(kPhaseExchange) - stage_out,
                           b.modeled.get(kPhaseExchange));
          EXPECT_DOUBLE_EQ(
              a.modeled_volume.get(kPhaseExchange) - stage_out_volume,
              b.modeled_volume.get(kPhaseExchange));
        }
      }
    }
  }
}

// --- wide-k parity ------------------------------------------------------

TEST(OocWideParity, StreamedAndSpilledWideRunsMatchInMemory) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kCpu;
  options.pipeline.k = 33;
  options.pipeline.canonical = true;
  options.nranks = 4;

  const io::ReadBatch reads = parity_reads();
  const WideCountResult baseline = run_distributed_count_wide(reads, options);
  const std::string baseline_identity = global_identity_wide(baseline);
  ASSERT_FALSE(baseline.global_counts.empty());

  options.batch.max_reads = 40;
  const WideCountResult streamed = run_distributed_count_wide(reads, options);
  EXPECT_EQ(baseline_identity, global_identity_wide(streamed));
  EXPECT_EQ(rank_identity(baseline.base), rank_identity(streamed.base));

  options.ooc.spill_root = spill_root();
  options.ooc.bins = 3;
  const WideCountResult spilled = run_distributed_count_wide(reads, options);
  EXPECT_EQ(baseline_identity, global_identity_wide(spilled));
  EXPECT_EQ(rank_identity(baseline.base), rank_identity(spilled.base));
  const RankMetrics totals = spilled.base.totals();
  EXPECT_EQ(totals.spill_bytes_written, totals.spill_bytes_read);
  EXPECT_GT(totals.spill_bytes_written, 0u);
}

// --- single-batch bit-identity ------------------------------------------

TEST(OocBitIdentity, UnboundedStreamIsTheInMemoryRunBitForBit) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 4;
  const io::ReadBatch reads = parity_reads();

  auto& session = trace::TraceSession::instance();
  session.reset();
  session.enable("");
  const CountResult via_reads = run_distributed_count(reads, options);
  const std::string json_reads =
      session.metrics().to_json(/*include_wall=*/false);
  session.reset();

  io::VectorBatchStream stream(reads);
  const CountResult via_stream = run_distributed_count(stream, options);
  const std::string json_stream =
      session.metrics().to_json(/*include_wall=*/false);
  session.disable();

  EXPECT_EQ(global_identity(via_reads), global_identity(via_stream));
  EXPECT_EQ(rank_identity(via_reads), rank_identity(via_stream));
  // Full metrics JSON, unscrubbed: modeled times, phase structure, byte
  // counters — a single-batch stream leaves no trace of the streaming
  // machinery (and records no footprint counter).
  EXPECT_EQ(json_reads, json_stream);
  EXPECT_EQ(json_reads.find("peak_resident_bytes"), std::string::npos);
  for (std::size_t i = 0; i < via_reads.ranks.size(); ++i) {
    EXPECT_EQ(via_reads.ranks[i].peak_resident_bytes, 0u);
    EXPECT_DOUBLE_EQ(via_reads.ranks[i].modeled.total(),
                     via_stream.ranks[i].modeled.total());
  }
}

// --- footprint accounting -----------------------------------------------

TEST(OocFootprint, StreamedRunsReportAPeakBoundedByBatchSize) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 4;
  const io::ReadBatch reads = parity_reads();

  options.batch.max_reads = 4;
  const CountResult small = run_distributed_count(reads, options);
  options.batch.max_reads = 32;
  const CountResult large = run_distributed_count(reads, options);

  const std::uint64_t small_peak = small.totals().peak_resident_bytes;
  const std::uint64_t large_peak = large.totals().peak_resident_bytes;
  EXPECT_GT(small_peak, 0u);
  EXPECT_GT(large_peak, 0u);
  // Peak residency grows with the batch bound — the knob the out-of-core
  // mode turns to fit a dataset in memory.
  EXPECT_LT(small_peak, large_peak);
}

TEST(OocFootprint, SpillCountersSurfaceInTraceMetrics) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 4;
  options.batch.max_reads = 40;
  options.ooc.spill_root = spill_root();
  options.ooc.bins = 3;

  auto& session = trace::TraceSession::instance();
  session.reset();
  session.enable("");
  const CountResult result = run_distributed_count(parity_reads(), options);
  const std::string json = session.metrics().to_json(/*include_wall=*/false);
  session.disable();

  EXPECT_NE(json.find("\"spill_bytes_written\":"), std::string::npos);
  EXPECT_NE(json.find("\"spill_bytes_read\":"), std::string::npos);
  EXPECT_NE(json.find("\"peak_resident_bytes\":"), std::string::npos);
  EXPECT_GT(result.totals().spill_bytes_written, 0u);
}

TEST(OocFootprint, ScratchDirectoryIsRemovedAfterTheRun) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kCpu;
  options.nranks = 2;
  options.ooc.spill_root = spill_root();
  (void)run_distributed_count(parity_reads(), options);
  // The root may remain; every per-run scratch subdirectory must be gone.
  if (fs::exists(options.ooc.spill_root)) {
    EXPECT_TRUE(fs::is_empty(options.ooc.spill_root));
  }
}

TEST(OocFootprint, SpilledBinsFitADeviceTheInMemoryRunOverflows) {
  // Pass 2 counts every bin on the rank's one device, and each bin's
  // table returns its device memory when the bin is done, so the spilled
  // run needs room for one bin's table, not for all of them together.
  const std::optional<io::DatasetPreset> preset = io::find_preset("ecoli30x");
  ASSERT_TRUE(preset.has_value());
  const io::ReadBatch reads = io::make_dataset(*preset, /*scale=*/200);
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 4;
  const CountResult in_memory = run_distributed_count(reads, options);
  ASSERT_FALSE(in_memory.global_counts.empty());

  options.device.memory_bytes = std::uint64_t{8} << 20;
  EXPECT_THROW((void)run_distributed_count(reads, options), SimulationError);

  options.ooc.spill_root = spill_root();
  options.ooc.bins = 8;
  const CountResult spilled = run_distributed_count(reads, options);
  EXPECT_EQ(global_identity(in_memory), global_identity(spilled));
}

// --- degenerate inputs and validation -----------------------------------

TEST(OocDegenerate, EmptyInputCountsNothingInEveryMode) {
  const io::ReadBatch empty;
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 3;

  CountResult result = run_distributed_count(empty, options);
  EXPECT_TRUE(result.global_counts.empty());

  options.batch.max_reads = 8;
  result = run_distributed_count(empty, options);
  EXPECT_TRUE(result.global_counts.empty());

  options.ooc.spill_root = spill_root();
  result = run_distributed_count(empty, options);
  EXPECT_TRUE(result.global_counts.empty());
  EXPECT_EQ(result.totals().spill_bytes_written, 0u);
}

TEST(OocDegenerate, SingleRankSpillMatchesInMemory) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 1;
  const io::ReadBatch reads = parity_reads();
  const CountResult baseline = run_distributed_count(reads, options);
  options.ooc.spill_root = spill_root();
  options.batch.max_reads = 25;
  const CountResult spilled = run_distributed_count(reads, options);
  EXPECT_EQ(global_identity(baseline), global_identity(spilled));
}

TEST(OocValidation, IncompatibleConfigsAreRejected) {
  const io::ReadBatch reads = parity_reads();
  DriverOptions base;
  base.pipeline.kind = PipelineKind::kGpuSupermer;
  base.nranks = 2;
  base.ooc.spill_root = spill_root();

  DriverOptions options = base;
  options.ooc.bins = 0;
  EXPECT_THROW(run_distributed_count(reads, options), PreconditionError);

  options = base;
  options.pipeline.filter_singletons = true;
  EXPECT_THROW(run_distributed_count(reads, options), PreconditionError);

  options = base;
  options.pipeline.kind = PipelineKind::kGpuKmer;
  options.pipeline.source_consolidation = true;
  EXPECT_THROW(run_distributed_count(reads, options), PreconditionError);
}

TEST(OocValidation, BloomFilterRejectsASecondBatch) {
  // The filter lives in one count phase, so a filtered run takes its input
  // as one batch; a stream that yields a second fails before any rank
  // parses, whatever built the stream.
  const io::ReadBatch reads = parity_reads();
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuKmer;
  options.pipeline.filter_singletons = true;
  options.nranks = 2;
  io::BatchBounds halves;
  halves.max_reads = reads.size() / 2 + 1;
  io::VectorBatchStream two_batches(reads, halves);
  EXPECT_THROW(run_distributed_count(two_batches, options),
               PreconditionError);

  io::VectorBatchStream one_batch(reads);
  EXPECT_EQ(run_distributed_count(one_batch, options).totals().reads,
            reads.size());
}

// --- host-thread invariance ---------------------------------------------

TEST(OocDeterminism, ResultsAreInvariantAcrossSimThreadCounts) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 4;
  options.batch.max_reads = 30;
  options.ooc.spill_root = spill_root();
  options.ooc.bins = 3;

  util::ThreadPool::set_global_threads(1);
  const CountResult serial = run_distributed_count(parity_reads(), options);
  util::ThreadPool::set_global_threads(4);
  const CountResult threaded = run_distributed_count(parity_reads(), options);
  util::ThreadPool::set_global_threads(0);  // back to the default

  EXPECT_EQ(global_identity(serial), global_identity(threaded));
  EXPECT_EQ(rank_identity(serial), rank_identity(threaded));
  EXPECT_EQ(serial.totals().spill_bytes_written,
            threaded.totals().spill_bytes_written);
  for (std::size_t r = 0; r < serial.ranks.size(); ++r) {
    EXPECT_DOUBLE_EQ(serial.ranks[r].modeled.total(),
                     threaded.ranks[r].modeled.total());
  }
}

}  // namespace
}  // namespace dedukt::core
