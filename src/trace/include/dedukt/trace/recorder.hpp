// SpanRecorder — one simulated rank's span buffer and named counters, plus
// the RAII ScopedSpan and the thread-local recorder binding that the
// instrumentation in mpisim/gpusim/core writes through.
//
// Hot-path contract: when tracing is disabled (trace::enabled() == false,
// one relaxed atomic load), every entry point returns before touching the
// heap — a disabled ScopedSpan is a null pointer plus an unread Timer, and
// counter() is a branch. Compile with DEDUKT_TRACE_DISABLED to remove even
// the atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dedukt/trace/span.hpp"
#include "dedukt/util/timer.hpp"

namespace dedukt::trace {

namespace detail {
/// Process-wide runtime switch, owned by TraceSession. Inline so that
/// enabled() compiles to a single relaxed load at every call site.
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// True when a TraceSession is recording.
inline bool enabled() {
#ifdef DEDUKT_TRACE_DISABLED
  return false;
#else
  return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/// Per-rank span buffer. Thread-safe (a mutex guards every mutation) so the
/// shared main-thread recorder can absorb spans from helper threads, but
/// the common case is single-writer: one rank thread owns one recorder.
///
/// The recorder also owns the rank's modeled-time cursor: leaf spans
/// (collectives, kernels, transfers) advance it by their modeled cost, and
/// enclosing phase spans close at max(cursor, start + own modeled cost), so
/// the exported modeled timeline is self-consistent and nested.
class SpanRecorder {
 public:
  /// `rank` is the simulated rank id; kMainRank for work outside a runtime.
  static constexpr int kMainRank = -1;
  explicit SpanRecorder(int rank) : rank_(rank) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] int rank() const { return rank_; }

  /// Open a span; returns a handle for close_span. Spans must close in
  /// LIFO order per recorder (RAII via ScopedSpan guarantees this).
  std::size_t open_span(const char* category, const char* name, Track track);

  /// Attach a pre-rendered JSON argument to an open span.
  void add_arg(std::size_t handle, const char* key, std::string json_value);

  /// Record a kernel span's shared-memory traffic (for per-kernel metrics
  /// aggregation; the Chrome-trace args carry the same numbers).
  void set_smem(std::size_t handle, std::uint64_t read_bytes,
                std::uint64_t write_bytes, std::uint64_t atomics);

  /// Close a span. `wall_seconds` is the measured host duration.
  /// `modeled_seconds` < 0 means "whatever the cursor advanced by while
  /// the span was open"; >= 0 pins the span's modeled duration and moves
  /// the cursor to at least its end. `modeled_volume_seconds` is the
  /// volume-proportional share (0 when not applicable).
  void close_span(std::size_t handle, double wall_seconds,
                  double modeled_seconds, double modeled_volume_seconds);

  /// Advance the rank's modeled clock without a span (rarely needed; leaf
  /// spans advance it through close_span).
  void advance_modeled(double seconds);

  /// Accumulate a named counter.
  void add_counter(const char* name, std::uint64_t delta);

  /// Drop all spans and counters and rewind both clocks. Must not be
  /// called while spans are open.
  void reset();

  /// Seconds since this recorder was created (the wall epoch of its spans).
  [[nodiscard]] double wall_now() const { return epoch_.seconds(); }
  [[nodiscard]] double modeled_now() const;

  // Snapshot accessors (take the lock; meant for finalize/export).
  [[nodiscard]] std::vector<SpanRecord> spans_snapshot() const;
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::map<std::string, std::uint64_t> counters_snapshot()
      const;

 private:
  const int rank_;
  Timer epoch_;
  mutable std::mutex mutex_;
  double modeled_now_ = 0.0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_stack_;
  std::map<std::string, std::uint64_t> counters_;
};

namespace detail {
/// The recorder the current thread records into (set by RankTraceScope for
/// mpisim rank threads; null falls back to the session's main recorder).
SpanRecorder* current_recorder();
void set_current_recorder(SpanRecorder* recorder);
}  // namespace detail

/// Render a double the way every exporter does: a fixed "%.9g" — it keeps
/// files small and is deterministic for identical doubles.
std::string json_number(double value);
std::string json_quote(const std::string& value);

/// RAII scoped span bound to the current thread's recorder. All-no-op when
/// tracing is disabled; name and category must be static strings (they are
/// not copied until a session is recording).
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name,
             Track track = Track::kRank);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when this span is actually recording.
  [[nodiscard]] bool active() const { return recorder_ != nullptr; }

  /// Pin the span's modeled duration (and advance the rank's modeled
  /// clock to at least its end). Without this, the span's modeled duration
  /// is whatever its children advanced the clock by.
  void set_modeled_seconds(double seconds) { modeled_ = seconds; }
  /// Record the volume-proportional share of the modeled duration.
  void set_modeled_volume_seconds(double seconds) { volume_ = seconds; }
  /// Fused setter: pin the modeled duration and its volume share together
  /// (what every phase-level instrumentation site wants).
  void set_modeled(double seconds, double volume_seconds) {
    modeled_ = seconds;
    volume_ = volume_seconds;
  }
  /// Record the kernel's shared-memory traffic (per-kernel metrics).
  void set_smem(std::uint64_t read_bytes, std::uint64_t write_bytes,
                std::uint64_t atomics);

  void arg_u64(const char* key, std::uint64_t value);
  void arg_i64(const char* key, std::int64_t value);
  void arg_f64(const char* key, double value);
  void arg_str(const char* key, const std::string& value);

 private:
  SpanRecorder* recorder_ = nullptr;
  std::size_t handle_ = 0;
  double modeled_ = -1.0;
  double volume_ = 0.0;
  Timer wall_;
};

/// Accumulate a named counter on the current thread's recorder (no-op when
/// disabled).
void counter(const char* name, std::uint64_t delta);

/// Binds the current thread to the session recorder of `rank` for the
/// scope's lifetime (used by mpisim::Runtime around each rank body).
/// No-op when tracing is disabled.
class RankTraceScope {
 public:
  explicit RankTraceScope(int rank);
  ~RankTraceScope();

  RankTraceScope(const RankTraceScope&) = delete;
  RankTraceScope& operator=(const RankTraceScope&) = delete;

 private:
  SpanRecorder* previous_ = nullptr;
  bool active_ = false;
};

}  // namespace dedukt::trace
