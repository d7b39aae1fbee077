// Shared support for the per-figure/table benchmark drivers.
//
// Every driver follows the same recipe: materialize the paper's datasets at
// a laptop-scale down-scale factor, run the relevant pipelines at the
// paper's rank counts (ranks are simulated, so 384- and 768-rank runs are
// fine on one host), and print the same rows/series the paper reports —
// with measured quantities (exact counts, bytes) shown verbatim and
// modeled Summit times projected back to full-size inputs via the linear
// scale factor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/datasets.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/cli.hpp"

namespace dedukt::bench {

/// One materialized benchmark dataset.
struct BenchDataset {
  io::DatasetPreset preset;
  std::uint64_t scale = 1;   ///< genome down-scale factor vs the real input
  io::ReadBatch reads;
};

/// Default down-scale per preset key, sized so a full sweep finishes in
/// seconds on one core while preserving the datasets' relative ordering.
[[nodiscard]] std::uint64_t default_scale(const std::string& key);

/// Materialize the named presets, honoring --scale-mult=<f> (multiplies all
/// default scales; >1 shrinks inputs further, <1 enlarges them).
[[nodiscard]] std::vector<BenchDataset> load_datasets(
    const CliParser& cli, const std::vector<std::string>& keys);

/// All six Table-I keys in paper order.
[[nodiscard]] std::vector<std::string> all_dataset_keys();

/// The four small (<1 GB) datasets the paper runs at 16 nodes.
[[nodiscard]] std::vector<std::string> small_dataset_keys();

/// The two large datasets the paper runs at 64-128 nodes.
[[nodiscard]] std::vector<std::string> large_dataset_keys();

/// Chop reads into chunks of at most `chunk_bases`, overlapping by
/// `overlap` bases so the k-mer multiset is preserved exactly (overlap =
/// k-1). Down-scaled inputs have so few reads that whole-read partitioning
/// would create artificial per-rank imbalance a full-size run never sees;
/// chunking restores full-scale granularity.
[[nodiscard]] io::ReadBatch chunk_reads(const io::ReadBatch& reads,
                                        std::uint64_t chunk_bases,
                                        std::uint64_t overlap = 16);

/// Run one pipeline on a dataset at the paper's rank count. Reads are
/// chunked (see chunk_reads) so every rank gets many work units.
[[nodiscard]] core::CountResult run_pipeline(
    const BenchDataset& dataset, core::PipelineKind kind, int nranks,
    int m = 7,
    core::ExchangeMode exchange = core::ExchangeMode::kStaged,
    kmer::MinimizerOrder order = kmer::MinimizerOrder::kRandomized);

/// Modeled per-phase breakdown projected to the full-size input: volume
/// terms scale by `scale`, latency/overhead terms stay constant.
[[nodiscard]] PhaseTimes projected_breakdown(const core::CountResult& result,
                                             std::uint64_t scale);

/// Sum of the projected per-phase maxima.
[[nodiscard]] double projected_total(const core::CountResult& result,
                                     std::uint64_t scale);

/// projected_breakdown over a trace-derived metrics window (same formula;
/// the phase sums are bit-identical to the CountResult ones).
[[nodiscard]] PhaseTimes projected_breakdown(
    const trace::MetricsReport& metrics, std::uint64_t scale);

/// Honor --trace=<path>: enable session tracing writing the Chrome trace
/// (and metrics JSON) to <path> at process exit. Returns true if enabled.
bool maybe_enable_trace(const CliParser& cli);

/// One pipeline run plus the trace-metrics window covering exactly it.
/// The breakdown accessors read the trace metrics (bit-identical to the
/// CountResult aggregation); only when tracing is compiled out
/// (DEDUKT_DISABLE_TRACING) do they fall back to the CountResult.
struct TracedRun {
  core::CountResult result;
  trace::MetricsReport metrics;

  [[nodiscard]] PhaseTimes projected_breakdown(std::uint64_t scale) const;
  [[nodiscard]] PhaseTimes measured_breakdown() const;
  [[nodiscard]] PhaseTimes modeled_breakdown() const;
};

/// run_pipeline with span recording: enables the trace session (in-memory
/// if no --trace path was set), marks the buffers, runs, and aggregates the
/// window — so per-figure breakdowns come from the tracing subsystem
/// instead of CountResult's private accumulation.
[[nodiscard]] TracedRun run_pipeline_traced(
    const BenchDataset& dataset, core::PipelineKind kind, int nranks,
    int m = 7,
    core::ExchangeMode exchange = core::ExchangeMode::kStaged,
    kmer::MinimizerOrder order = kmer::MinimizerOrder::kRandomized);

/// Standard banner: what this driver reproduces and how to read it.
void print_banner(const std::string& experiment_id,
                  const std::string& description);

/// One machine-readable benchmark measurement. wall_seconds is host time
/// (varies with DEDUKT_SIM_THREADS); modeled_seconds is simulated Summit
/// time (must not vary with host parallelism).
struct BenchRecord {
  std::string name;
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  /// Modeled seconds the pipelined serving schedule (--overlap-batches)
  /// hid behind lookups; zero for every other record.
  double overlap_saved_seconds = 0.0;
  unsigned threads = 1;  ///< simulation pool size the record was taken at
  /// Query-serving records (bench_qps): batched lookups executed, and the
  /// modeled per-batch latency percentiles. All zero for counting records.
  std::uint64_t queries = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  /// Distributed-serving records (bench_qps --ranks sweep): serving ranks
  /// of the tier (1 = single-rank engine) and the modeled query+answer
  /// exchange share of the serve time. Zero elsewhere.
  std::uint64_t ranks = 0;
  double exchange_seconds = 0.0;
  /// Out-of-core records (bench_spill): run payload spilled to disk bins
  /// (== bytes reloaded in pass 2), the per-rank peak resident footprint,
  /// and the modeled split of the critical path into disk phases
  /// (spill + reload) vs compute phases (parse/exchange/count). All zero
  /// for in-memory, whole-input records.
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_resident_bytes = 0;
  double disk_seconds = 0.0;
  double compute_seconds = 0.0;
  /// Approximate-counting records (bench_sketch): the sketch's cell-array
  /// footprint, its observed estimation error against the exact spectrum
  /// (max and mean over-count across all exact keys), and the number of
  /// heavy hitters extracted by the two-pass filter. All zero for exact
  /// records.
  std::uint64_t sketch_bytes = 0;
  std::uint64_t max_error = 0;
  double mean_error = 0.0;
  std::uint64_t heavy_hitters = 0;
};

/// Write records as a JSON array of objects to `path` (overwrites).
void write_bench_json(const std::string& path,
                      const std::vector<BenchRecord>& records);

/// Honor --json=<path>: write the records there if the flag is present.
/// Returns true if a file was written.
bool maybe_write_bench_json(const CliParser& cli,
                            const std::vector<BenchRecord>& records);

}  // namespace dedukt::bench
