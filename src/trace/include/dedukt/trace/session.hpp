// TraceSession — the process-wide registry of per-rank SpanRecorders.
//
// Enabled by the DEDUKT_TRACE=<path> environment variable (picked up at
// static-init time, files written at process exit) or programmatically via
// enable() for the --trace flags of the CLI and benches. Finalization
// merges rank-local buffers deterministically (ranks in ascending order,
// spans in record order) and exports:
//   (a) Chrome trace-event JSON (chrome://tracing, Perfetto) with one
//       track per simulated rank and one per simulated device, laid out on
//       the modeled Summit clock by default (deterministic) or the host
//       wall clock (DEDUKT_TRACE_CLOCK=wall); and
//   (b) an aggregated per-phase/per-rank metrics JSON (<path with .json
//       replaced by .metrics.json>).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dedukt/trace/metrics.hpp"
#include "dedukt/trace/recorder.hpp"
#include "dedukt/trace/span.hpp"

namespace dedukt::trace {

class TraceSession {
 public:
  /// The process-wide session (created on first use; reads DEDUKT_TRACE
  /// and DEDUKT_TRACE_CLOCK on construction).
  static TraceSession& instance();

  /// Start recording. `chrome_path` may be empty for in-memory recording
  /// (no files at exit); otherwise the Chrome trace JSON goes there and
  /// the metrics JSON next to it.
  void enable(std::string chrome_path);
  void disable();

  /// Drop all recorded spans and counters (recorders survive; the modeled
  /// cursors reset to zero).
  void reset();

  /// Get or create the recorder for a simulated rank
  /// (SpanRecorder::kMainRank for the implicit main-thread recorder).
  SpanRecorder& recorder(int rank);

  /// Recorder the current thread should record into: the thread-bound one
  /// if a RankTraceScope is active, else the main recorder.
  SpanRecorder& current_or_main();

  /// Aggregate everything recorded since the last reset().
  [[nodiscard]] MetricsReport metrics() const;

  /// Render the merged Chrome trace-event JSON. Deterministic on the
  /// modeled clock; the wall clock is for humans chasing simulator time.
  [[nodiscard]] std::string chrome_json(Clock clock = Clock::kModeled) const;

  /// Write the Chrome trace and metrics JSONs to the enabled path. No-op
  /// when the session has no path. Returns the chrome path written.
  std::string write_files();

  [[nodiscard]] const std::string& chrome_path() const { return chrome_path_; }
  /// The metrics JSON path derived from a chrome path
  /// ("x.json" -> "x.metrics.json", otherwise append ".metrics.json").
  [[nodiscard]] static std::string metrics_path_for(const std::string& path);

  /// Export clock selected by DEDUKT_TRACE_CLOCK (default modeled).
  [[nodiscard]] Clock export_clock() const { return export_clock_; }

  ~TraceSession();

 private:
  TraceSession();

  mutable std::mutex mutex_;
  std::map<int, std::unique_ptr<SpanRecorder>> recorders_;
  std::string chrome_path_;
  Clock export_clock_ = Clock::kModeled;
};

}  // namespace dedukt::trace
