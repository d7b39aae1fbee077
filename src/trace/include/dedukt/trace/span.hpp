// Span records — the unit of the tracing subsystem.
//
// A span is one named, nested interval of work on one simulated rank. Every
// span carries *dual* timestamps: the host wall clock (how long the
// functional simulation took here) and the modeled Summit clock (what the
// cost models priced the same work at on the target machine). Only the
// modeled clock is deterministic — it is derived purely from counters and
// byte counts, so it is bit-identical across runs and across
// DEDUKT_SIM_THREADS settings; exports default to it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dedukt::trace {

/// Which export track a span belongs to: the rank's host timeline or the
/// rank's simulated device timeline.
enum class Track : std::uint8_t { kRank, kDevice };

/// Which clock an export lays spans out on.
enum class Clock : std::uint8_t {
  kModeled,  ///< modeled Summit time — deterministic, the default
  kWall,     ///< host wall time of the simulation — not deterministic
};

// Span categories used by the built-in instrumentation. Categories are
// static strings so that recording them never allocates.
inline constexpr const char* kCategoryPhase = "phase";            // core
inline constexpr const char* kCategoryCollective = "collective";  // mpisim
// Nonblocking collectives (mpisim): "ialltoallv.post" / "ialltoallv.wait"
// sub-spans of one logical exchange.
inline constexpr const char* kCategoryCollectiveAsync = "collective.async";
inline constexpr const char* kCategoryKernel = "kernel";          // gpusim
inline constexpr const char* kCategoryTransfer = "transfer";      // gpusim
inline constexpr const char* kCategoryApp = "app";                // drivers

/// One span argument, pre-rendered as a JSON value ("42", "1.5", "\"x\"")
/// at record time so exports are deterministic concatenation.
struct SpanArg {
  std::string key;
  std::string json;
};

/// One recorded span. Times are seconds relative to the owning recorder's
/// epoch (wall) or the rank's modeled-time cursor (modeled).
struct SpanRecord {
  const char* category = kCategoryApp;
  std::string name;
  Track track = Track::kRank;
  int depth = 0;  ///< nesting depth inside this recorder at open time
  double wall_start = 0.0;
  double wall_seconds = 0.0;
  double modeled_start = 0.0;
  double modeled_seconds = 0.0;
  /// Volume-proportional share of modeled_seconds (see
  /// docs/performance-model.md); used by projected breakdowns.
  double modeled_volume_seconds = 0.0;
  /// Shared-memory traffic of a kernel span (block-cooperative kernels);
  /// zero for kernels that never touch shared memory. Aggregated into
  /// the per-kernel metrics.
  std::uint64_t smem_read_bytes = 0;
  std::uint64_t smem_write_bytes = 0;
  std::uint64_t smem_atomics = 0;
  std::vector<SpanArg> args;
};

}  // namespace dedukt::trace
