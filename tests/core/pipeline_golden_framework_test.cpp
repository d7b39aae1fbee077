// Pre/post-refactor golden check for the staged pipeline framework.
//
// Runs every pipeline (CPU narrow/wide, GPU k-mer, GPU supermer) across the
// exchange modes, routing schemes, filters and ingest shapes (one batch,
// bounded batches, out-of-core, sketch), and serializes everything the
// framework is required to keep bit-identical: the k-mer spectrum, the
// deterministic fields of every RankMetrics (doubles rendered as
// hexfloats, so a one-ULP drift fails), and the trace metrics JSON on
// the modeled clock. The golden files were captured from the hand-rolled
// pipelines before the staged-phase refactor (PhaseScope and one exchange
// phase), or when their case was added; any change to modeled charges,
// exchange accounting or span structure shows up as a byte diff.
//
// Regenerate (only when a change to observable accounting is intended):
//   DEDUKT_UPDATE_GOLDEN=1 ./dedukt_core_tests
//     --gtest_filter='PipelineFrameworkGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/trace/trace.hpp"
#include "support/temp_dir.hpp"

#ifndef DEDUKT_TEST_DATA_DIR
#define DEDUKT_TEST_DATA_DIR "."
#endif

namespace dedukt::core {
namespace {

io::ReadBatch golden_reads() {
  io::GenomeSpec gspec;
  gspec.length = 5'000;
  gspec.seed = 42;
  io::ReadSpec rspec;
  rspec.coverage = 4.0;
  rspec.mean_read_length = 400;
  rspec.min_read_length = 80;
  rspec.seed = 43;
  return io::generate_dataset(gspec, rspec);
}

/// Exact, deterministic rendering of a double: hexfloat, so that any
/// change in rounding or evaluation order changes the byte stream.
std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void append_phase_times(std::ostringstream& out, const char* label,
                        const PhaseTimes& times) {
  out << "  " << label << ":";
  for (const auto& [phase, seconds] : times.phases()) {
    out << " " << phase << "=" << hex(seconds);
  }
  out << "\n";
}

void append_rank(std::ostringstream& out, const RankMetrics& m) {
  out << "  reads=" << m.reads << " bases=" << m.bases
      << " kmers_parsed=" << m.kmers_parsed
      << " supermers_built=" << m.supermers_built
      << " supermer_bases=" << m.supermer_bases
      << " kmers_received=" << m.kmers_received
      << " supermers_received=" << m.supermers_received
      << " bytes_sent=" << m.bytes_sent
      << " bytes_received=" << m.bytes_received
      << " unique=" << m.unique_kmers << " counted=" << m.counted_kmers
      << "\n";
  append_phase_times(out, "modeled", m.modeled);
  append_phase_times(out, "modeled_volume", m.modeled_volume);
  out << "  alltoallv=" << hex(m.modeled_alltoallv_seconds)
      << " alltoallv_volume=" << hex(m.modeled_alltoallv_volume_seconds)
      << "\n";
}

void append_spectrum(std::ostringstream& out,
                     const std::map<std::uint64_t, std::uint64_t>& spectrum) {
  out << "spectrum:";
  for (const auto& [multiplicity, distinct] : spectrum) {
    out << " " << multiplicity << ":" << distinct;
  }
  out << "\n";
}

/// 64-bit FNV-1a over the bytes of `values`.
template <typename T>
std::uint64_t digest(const std::vector<T>& values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

/// The ledgers the streamed, out-of-core and sketch cases pin on top of
/// append_rank's fields.
void append_extras(std::ostringstream& out, const CountResult& result) {
  for (int r = 0; r < result.nranks; ++r) {
    const RankMetrics& m = result.ranks[static_cast<std::size_t>(r)];
    out << "rank " << r << " extras: peak_resident=" << m.peak_resident_bytes
        << " spill_written=" << m.spill_bytes_written
        << " spill_read=" << m.spill_bytes_read << "\n";
  }
  const SketchSummary& sketch = result.sketch;
  if (sketch.enabled) {
    out << "sketch: sketched=" << sketch.sketched_kmers
        << " cells=" << sketch.cells.size()
        << " cells_digest=" << digest(sketch.cells)
        << " heavy=" << sketch.heavy_hitters.size()
        << " heavy_digest=" << digest(sketch.heavy_hitters) << "\n";
  }
}

void render(std::ostringstream& out,
            const std::map<std::uint64_t, std::uint64_t>& spectrum,
            const CountResult& result, const std::string& metrics_json,
            bool extras) {
  append_spectrum(out, spectrum);
  for (int r = 0; r < result.nranks; ++r) {
    out << "rank " << r << ":\n";
    append_rank(out, result.ranks[static_cast<std::size_t>(r)]);
  }
  if (extras) append_extras(out, result);
  out << "trace_metrics: " << metrics_json << "\n";
}

/// Run one narrow-pipeline scenario under an in-memory trace session and
/// render everything deterministic about it.
std::string capture(const DriverOptions& options, bool extras = false) {
  auto& session = trace::TraceSession::instance();
  session.reset();
  session.enable("");
  const CountResult result = run_distributed_count(golden_reads(), options);
  const std::string metrics_json =
      session.metrics().to_json(/*include_wall=*/false);
  session.disable();

  std::ostringstream out;
  render(out, result.spectrum(), result, metrics_json, extras);
  return out.str();
}

std::string capture_wide(const DriverOptions& options, bool extras = false) {
  auto& session = trace::TraceSession::instance();
  session.reset();
  session.enable("");
  const WideCountResult result =
      run_distributed_count_wide(golden_reads(), options);
  const std::string metrics_json =
      session.metrics().to_json(/*include_wall=*/false);
  session.disable();

  std::map<std::uint64_t, std::uint64_t> spectrum;
  for (const auto& [key, count] : result.global_counts) {
    spectrum[count] += 1;
  }
  std::ostringstream out;
  render(out, spectrum, result.base, metrics_json, extras);
  return out.str();
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path =
      std::string(DEDUKT_TEST_DATA_DIR) + "/golden_" + name + ".txt";
  if (std::getenv("DEDUKT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with DEDUKT_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual) << "byte diff against seed golden "
                                    << path;
}

DriverOptions base_options(PipelineKind kind) {
  DriverOptions options;
  options.pipeline.kind = kind;
  options.pipeline.k = 17;
  options.nranks = 4;
  return options;
}

/// base_options pulled in 20-read batches.
DriverOptions streamed_options(PipelineKind kind) {
  DriverOptions options = base_options(kind);
  options.batch.max_reads = 20;
  return options;
}

/// streamed_options spilled to out-of-core bins.
DriverOptions ooc_options(PipelineKind kind) {
  DriverOptions options = streamed_options(kind);
  options.ooc.spill_root = test_support::temp_path("golden-spill");
  return options;
}

DriverOptions sketch_options(PipelineKind kind) {
  DriverOptions options = base_options(kind);
  options.pipeline.sketch = true;
  options.pipeline.sketch_width = 1u << 12;
  return options;
}

TEST(PipelineFrameworkGolden, Cpu) {
  check_golden("cpu", capture(base_options(PipelineKind::kCpu)));
}

TEST(PipelineFrameworkGolden, CpuWide) {
  DriverOptions options = base_options(PipelineKind::kCpu);
  options.pipeline.k = 33;
  options.nranks = 3;
  check_golden("cpu_wide", capture_wide(options));
}

TEST(PipelineFrameworkGolden, GpuKmerStaged) {
  check_golden("gpu_kmer_staged", capture(base_options(PipelineKind::kGpuKmer)));
}

TEST(PipelineFrameworkGolden, GpuKmerDirect) {
  DriverOptions options = base_options(PipelineKind::kGpuKmer);
  options.pipeline.exchange = ExchangeMode::kGpuDirect;
  check_golden("gpu_kmer_direct", capture(options));
}

TEST(PipelineFrameworkGolden, GpuKmerConsolidated) {
  DriverOptions options = base_options(PipelineKind::kGpuKmer);
  options.pipeline.source_consolidation = true;
  check_golden("gpu_kmer_consolidated", capture(options));
}

TEST(PipelineFrameworkGolden, GpuKmerFiltered) {
  DriverOptions options = base_options(PipelineKind::kGpuKmer);
  options.pipeline.filter_singletons = true;
  check_golden("gpu_kmer_filtered", capture(options));
}

TEST(PipelineFrameworkGolden, GpuSupermerStaged) {
  check_golden("gpu_supermer_staged",
               capture(base_options(PipelineKind::kGpuSupermer)));
}

TEST(PipelineFrameworkGolden, GpuSupermerDirect) {
  DriverOptions options = base_options(PipelineKind::kGpuSupermer);
  options.pipeline.exchange = ExchangeMode::kGpuDirect;
  check_golden("gpu_supermer_direct", capture(options));
}

TEST(PipelineFrameworkGolden, GpuSupermerWide) {
  DriverOptions options = base_options(PipelineKind::kGpuSupermer);
  options.pipeline.wide_supermers = true;
  options.pipeline.window = 40;
  check_golden("gpu_supermer_wide", capture(options));
}

TEST(PipelineFrameworkGolden, GpuSupermerFreqBalanced) {
  DriverOptions options = base_options(PipelineKind::kGpuSupermer);
  options.pipeline.partition = PartitionScheme::kFrequencyBalanced;
  check_golden("gpu_supermer_freq", capture(options));
}

TEST(PipelineFrameworkGolden, GpuSupermerFiltered) {
  DriverOptions options = base_options(PipelineKind::kGpuSupermer);
  options.pipeline.filter_singletons = true;
  check_golden("gpu_supermer_filtered", capture(options));
}

TEST(PipelineFrameworkGolden, OocCpu) {
  check_golden("ooc_cpu",
               capture(ooc_options(PipelineKind::kCpu), /*extras=*/true));
}

TEST(PipelineFrameworkGolden, OocGpuKmer) {
  check_golden("ooc_gpu_kmer",
               capture(ooc_options(PipelineKind::kGpuKmer), /*extras=*/true));
}

TEST(PipelineFrameworkGolden, OocGpuSupermer) {
  check_golden("ooc_gpu_supermer",
               capture(ooc_options(PipelineKind::kGpuSupermer),
                       /*extras=*/true));
}

TEST(PipelineFrameworkGolden, OocGpuSupermerWide) {
  DriverOptions options = ooc_options(PipelineKind::kGpuSupermer);
  options.pipeline.wide_supermers = true;
  options.pipeline.window = 40;
  check_golden("ooc_gpu_supermer_wide", capture(options, /*extras=*/true));
}

TEST(PipelineFrameworkGolden, OocGpuSupermerFreqBalanced) {
  DriverOptions options = ooc_options(PipelineKind::kGpuSupermer);
  options.pipeline.partition = PartitionScheme::kFrequencyBalanced;
  check_golden("ooc_gpu_supermer_freq", capture(options, /*extras=*/true));
}

TEST(PipelineFrameworkGolden, OocCpuWide) {
  DriverOptions options = ooc_options(PipelineKind::kCpu);
  options.pipeline.k = 33;
  check_golden("ooc_cpu_wide", capture_wide(options, /*extras=*/true));
}

TEST(PipelineFrameworkGolden, StreamedGpuSupermer) {
  check_golden("streamed_gpu_supermer",
               capture(streamed_options(PipelineKind::kGpuSupermer),
                       /*extras=*/true));
}

TEST(PipelineFrameworkGolden, StreamedCpu) {
  check_golden("streamed_cpu",
               capture(streamed_options(PipelineKind::kCpu), /*extras=*/true));
}

TEST(PipelineFrameworkGolden, StreamedGpuKmer) {
  check_golden("streamed_gpu_kmer",
               capture(streamed_options(PipelineKind::kGpuKmer),
                       /*extras=*/true));
}

TEST(PipelineFrameworkGolden, StreamedGpuSupermerFreqBalanced) {
  DriverOptions options = streamed_options(PipelineKind::kGpuSupermer);
  options.pipeline.partition = PartitionScheme::kFrequencyBalanced;
  check_golden("streamed_gpu_supermer_freq", capture(options, /*extras=*/true));
}

TEST(PipelineFrameworkGolden, StreamedCpuWide) {
  DriverOptions options = streamed_options(PipelineKind::kCpu);
  options.pipeline.k = 33;
  check_golden("streamed_cpu_wide", capture_wide(options, /*extras=*/true));
}

TEST(PipelineFrameworkGolden, SketchCpu) {
  check_golden("sketch_cpu",
               capture(sketch_options(PipelineKind::kCpu), /*extras=*/true));
}

TEST(PipelineFrameworkGolden, SketchGpuKmerHeavy) {
  DriverOptions options = sketch_options(PipelineKind::kGpuKmer);
  options.pipeline.heavy_threshold = 4;
  check_golden("sketch_gpu_kmer_heavy", capture(options, /*extras=*/true));
}

}  // namespace
}  // namespace dedukt::core
