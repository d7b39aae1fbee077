// MetricsReport — the aggregated per-phase / per-rank view of a trace.
//
// This subsumes the breakdown logic of core::CountResult: per-rank phase
// sums on both clocks (plus the volume-proportional share), per-kernel
// modeled times, and the named counters. The aggregation is exact — phase
// spans are summed in record order, so a rank's phase totals are
// bit-identical to the PhaseTimes the pipelines accumulate privately.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dedukt/util/timer.hpp"

namespace dedukt::trace {

/// Per-phase time sums for one rank.
struct PhaseMetrics {
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  double modeled_volume_seconds = 0.0;
  std::uint64_t spans = 0;
};

/// Per-kernel-name launch sums for one rank's simulated device.
struct KernelMetrics {
  std::uint64_t launches = 0;
  double modeled_seconds = 0.0;
  double wall_seconds = 0.0;
  /// Shared-memory traffic of the kernel's launches (zero — and absent
  /// from the JSON — for kernels that never touch shared memory).
  std::uint64_t smem_read_bytes = 0;
  std::uint64_t smem_write_bytes = 0;
  std::uint64_t smem_atomics = 0;
};

/// One rank's aggregate.
struct RankMetricsReport {
  int rank = 0;
  std::map<std::string, PhaseMetrics> phases;
  std::map<std::string, KernelMetrics> kernels;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t total_spans = 0;
};

/// Whole-trace aggregate: one entry per rank, sorted by rank id (the main
/// recorder, rank -1, first when present).
struct MetricsReport {
  std::vector<RankMetricsReport> ranks;

  /// Per-phase maximum over ranks of modeled time — the bulk-synchronous
  /// critical path, what the paper's stacked bars show.
  [[nodiscard]] PhaseTimes modeled_breakdown() const;

  /// Per-phase maximum over ranks of measured host time.
  [[nodiscard]] PhaseTimes measured_breakdown() const;

  /// Sum of the modeled per-phase maxima.
  [[nodiscard]] double modeled_total_seconds() const;

  /// Render as JSON. `include_wall` = false drops every wall-clock field,
  /// making the output byte-identical across runs.
  [[nodiscard]] std::string to_json(bool include_wall = true) const;
};

}  // namespace dedukt::trace
