// Per-layer numbers of one traced job, read from the spans the program
// already records (phases, kernels, transfers, collectives, serve stages)
// plus the benchmark's own spans around each public call it makes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dedukt/core/result.hpp"
#include "dedukt/trace/span.hpp"

namespace perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Names of the benchmark's own spans on the main thread. A job is either
/// one kJobSpan (count workloads) or a sequence of kLookupSpan calls
/// (serving); the io spans nest inside a job.
inline constexpr const char* kJobSpan = "bench.job";
inline constexpr const char* kLookupSpan = "bench.lookup";
inline constexpr const char* kDecodeSpan = "bench.decode";
inline constexpr const char* kCountSpan = "bench.count";
inline constexpr const char* kOutputSpan = "bench.output";
inline constexpr const char* kStoreOpenSpan = "bench.store_open";

/// Kernels whose time and launches are reported by name.
inline constexpr const char* kReportedKernels[] = {
    "supermer_count", "supermer_fill", "hash_count_supermers",
    "hash_reduce_unique", "lookup_bsearch"};

struct KernelTotals {
  double wall_s = 0.0;
  std::uint64_t launches = 0;
};

struct CollectiveTotals {
  double wall_s = 0.0;
  std::uint64_t bytes_sent = 0;
  std::vector<double> call_seconds;  ///< one entry per call
};

/// One simulated rank's spans, aggregated.
struct RankSpans {
  std::map<std::string, double> phase_wall;  ///< by core phase name
  /// Phase span minus the kernel and transfer spans inside it.
  std::map<std::string, double> phase_self_of_device;
  /// Phase span minus only the kernel spans inside it.
  std::map<std::string, double> phase_self_of_kernels;
  std::map<std::string, KernelTotals> kernels;
  double transfer_s = 0.0;
  std::uint64_t transfer_bytes = 0;
  std::map<std::string, CollectiveTotals> collectives;
  std::map<std::string, double> serve_wall;  ///< serve_route/lookup/fanout
  /// Self time (span minus its direct children) summed per layer:
  /// core, gpusim, mpisim, store, other. Sums to `attributed_s`.
  std::map<std::string, double> layer_self;
  /// Sum of the rank's top-level spans: its traced time in the job.
  double attributed_s = 0.0;
  double min_self_s = 0.0;  ///< most negative self time seen (0 if none)
};

/// The main thread's benchmark spans, summed by name.
struct MainSpans {
  double job_s = 0.0;  ///< kJobSpan + kLookupSpan roots
  double decode_s = 0.0;
  double output_s = 0.0;
};

struct TraceSummary {
  std::vector<RankSpans> ranks;
  MainSpans main;
};

/// Aggregate the spans of `span_sets` (one per simulated rank, in rank
/// order) and of the main recorder.
[[nodiscard]] TraceSummary summarize_spans(
    const std::vector<std::vector<dedukt::trace::SpanRecord>>& span_sets,
    const std::vector<dedukt::trace::SpanRecord>& main_spans);

/// Read every rank recorder of the process-wide trace session.
[[nodiscard]] TraceSummary summarize_session(int nranks);

/// Counters a workload measured around its traced job, beside the spans.
struct LayerInputs {
  /// The traced count job's result (count workloads), else null.
  const dedukt::core::CountResult* count = nullptr;
  std::uint64_t decode_bytes = 0;  ///< FASTQ bytes the job decoded
  double store_open_s = 0.0;       ///< kStoreOpenSpan of the serving set-up
  /// Serving counters over the traced job (serve-zipf), else zero.
  std::uint64_t queries = 0;
  std::uint64_t dedup_saved = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t shard_touches = 0;
  std::uint64_t staged_bytes = 0;
  std::uint64_t nic_bytes = 0;
  double modeled_exchange_s = 0.0;
  double modeled_lookup_s = 0.0;
  /// Median wall of the same job run with tracing off.
  double untraced_job_s = 0.0;
};

/// Every per-layer metric, in one fixed order and name set for all
/// workloads (a layer a workload bypasses reports 0).
[[nodiscard]] MetricList per_layer_metrics(const TraceSummary& summary,
                                           const LayerInputs& inputs);

/// Job wall time not covered by the io spans or the busiest rank's traced
/// time: partitioning, rank-thread start and join, the final sort, and
/// anything else no layer's span names.
[[nodiscard]] double unattributed_seconds(const TraceSummary& summary);

/// Broken accounting invariants of a traced job (a span shorter than its
/// children, negative unattributed time); empty when the split holds.
[[nodiscard]] std::vector<std::string> accounting_errors(
    const TraceSummary& summary);

}  // namespace perfbench
