// Result types for a distributed counting run.
//
// Every rank reports exact work counts, measured host wall time per phase,
// and modeled Summit time per phase; the CountResult aggregates them the
// way the paper's figures do (per-phase maxima = the bulk-synchronous
// critical path; per-rank counted-k-mer loads = Table III's imbalance).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dedukt/core/config.hpp"
#include "dedukt/util/stats.hpp"
#include "dedukt/util/timer.hpp"

namespace dedukt::core {

/// Canonical phase names used by all pipelines, matching the legend of
/// Figures 3 and 7: "parse & process kmers", "exchange", "kmer counter".
inline constexpr const char* kPhaseParse = "parse";
inline constexpr const char* kPhaseExchange = "exchange";
inline constexpr const char* kPhaseCount = "count";

/// Out-of-core-only phases: pass 1 appending supermer/k-mer runs to spill
/// bins, pass 2 replaying them. Deliberately NOT in kPhaseLegend /
/// kPhaseOrder — in-memory breakdowns keep printing exactly the Figure 3/7
/// rows; out-of-core consumers use kOocPhaseOrder below.
inline constexpr const char* kPhaseSpill = "spill";
inline constexpr const char* kPhaseReload = "reload";

/// One legend entry: internal phase name + the label the paper's figures
/// print for it.
struct PhaseLegendEntry {
  const char* name;
  const char* label;
};

/// THE canonical phase order and labels of the Figure 3/7 legends. Every
/// consumer that prints a breakdown (the CLI, the figure benches) iterates
/// this constant instead of hardcoding its own copy.
inline constexpr PhaseLegendEntry kPhaseLegend[] = {
    {kPhaseParse, "parse & process"},
    {kPhaseExchange, "exchange"},
    {kPhaseCount, "kmer counter"},
};

/// The legend's phase names alone, in legend order — the argument
/// PhaseTimes::ordered() expects.
inline constexpr const char* kPhaseOrder[] = {kPhaseParse, kPhaseExchange,
                                              kPhaseCount};

/// Legend / phase order for out-of-core runs: the Figure 3/7 phases plus
/// the two disk phases in dataflow order.
inline constexpr PhaseLegendEntry kOocPhaseLegend[] = {
    {kPhaseParse, "parse & process"},
    {kPhaseSpill, "spill"},
    {kPhaseReload, "reload"},
    {kPhaseExchange, "exchange"},
    {kPhaseCount, "kmer counter"},
};

inline constexpr const char* kOocPhaseOrder[] = {
    kPhaseParse, kPhaseSpill, kPhaseReload, kPhaseExchange, kPhaseCount};

/// Per-rank ledger of one counting run.
struct RankMetrics {
  // Work counts.
  std::uint64_t reads = 0;
  std::uint64_t bases = 0;
  std::uint64_t kmers_parsed = 0;        ///< k-mers this rank extracted
  std::uint64_t supermers_built = 0;     ///< 0 for the k-mer pipelines
  std::uint64_t supermer_bases = 0;      ///< bases across built supermers
  std::uint64_t kmers_received = 0;      ///< k-mers this rank counted
  std::uint64_t supermers_received = 0;
  std::uint64_t bytes_sent = 0;          ///< off-rank exchange payload
  std::uint64_t bytes_received = 0;
  std::uint64_t unique_kmers = 0;        ///< distinct keys in the local table
  std::uint64_t counted_kmers = 0;       ///< total count in the local table
  /// Out-of-core ledger: bytes this rank appended to / replayed from spill
  /// bins. 0 on the in-memory path.
  std::uint64_t spill_bytes_written = 0;
  std::uint64_t spill_bytes_read = 0;
  /// Peak resident input + exchange bytes across batches/bins (streamed and
  /// out-of-core runs; 0 when the driver ran the whole input as one batch).
  /// Aggregated by MAX, not sum, in totals() and accumulate_round().
  std::uint64_t peak_resident_bytes = 0;

  PhaseTimes measured;  ///< host wall time of the functional simulation
  PhaseTimes modeled;   ///< modeled Summit time

  /// Modeled time of the Alltoallv routine alone (no staging copies, no
  /// phase overhead) — what the paper's Fig. 8 measures.
  double modeled_alltoallv_seconds = 0.0;
  /// Volume-proportional share of modeled_alltoallv_seconds.
  double modeled_alltoallv_volume_seconds = 0.0;
  /// The volume-proportional share of `modeled` per phase. When a run on a
  /// 1/scale input is projected to full size, only this share scales; the
  /// remainder (message latencies, launch overheads) stays constant.
  PhaseTimes modeled_volume;
};

/// Fold one round's ledger (a batch, or an out-of-core spill bin) into a
/// running total: work counts and phase times add; the table-derived
/// unique_kmers and counted_kmers are left for the caller to set.
inline void accumulate_round(RankMetrics& total, const RankMetrics& round) {
  total.reads += round.reads;
  total.bases += round.bases;
  total.kmers_parsed += round.kmers_parsed;
  total.supermers_built += round.supermers_built;
  total.supermer_bases += round.supermer_bases;
  total.kmers_received += round.kmers_received;
  total.supermers_received += round.supermers_received;
  total.bytes_sent += round.bytes_sent;
  total.bytes_received += round.bytes_received;
  total.measured.merge(round.measured);
  total.modeled.merge(round.modeled);
  total.modeled_volume.merge(round.modeled_volume);
  total.modeled_alltoallv_seconds += round.modeled_alltoallv_seconds;
  total.modeled_alltoallv_volume_seconds +=
      round.modeled_alltoallv_volume_seconds;
  total.spill_bytes_written += round.spill_bytes_written;
  total.spill_bytes_read += round.spill_bytes_read;
  // Peak footprint folds by MAX: the batches/bins were resident one at a
  // time, not simultaneously.
  total.peak_resident_bytes =
      std::max(total.peak_resident_bytes, round.peak_resident_bytes);
}

/// Result of a sketch-backend run (config.sketch): the merged global
/// count-min cell array plus the two-pass heavy-hitter extraction.
struct SketchSummary {
  bool enabled = false;
  std::uint32_t width = 0;
  std::uint32_t depth = 0;
  bool conservative = false;
  std::uint64_t heavy_threshold = 0;
  /// Global stream length: k-mer occurrences absorbed across all ranks.
  std::uint64_t sketched_kmers = 0;
  /// Per-rank cell-array footprint (width * depth * 4 bytes).
  std::uint64_t sketch_bytes = 0;
  /// Merged global cells (row-major, depth x width): the cell-wise-sum
  /// allreduce of every rank's sketch. Identical on all ranks.
  std::vector<std::uint32_t> cells;
  /// Exact global counts of every candidate that survived the sketch
  /// filter (estimate >= heavy_threshold), sorted by key. The one-sided
  /// estimate guarantees every key with true count >= threshold is here;
  /// entries whose exact count falls below the threshold are the false
  /// positives. Empty when heavy_threshold == 0.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heavy_hitters;

  /// Point query against the merged cells: >= the true global count.
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const;
  /// Heavy-hitter entries whose exact count misses the threshold.
  [[nodiscard]] std::uint64_t false_positives() const;
};

/// Whole-run result.
struct CountResult {
  PipelineConfig config;
  int nranks = 0;
  std::vector<RankMetrics> ranks;

  /// Global (k-mer, count) pairs, sorted by key. Populated only when the
  /// driver is asked to collect counts. Empty on sketch runs (the sketch
  /// holds the spectrum approximately; see `sketch`).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> global_counts;

  /// Sketch-backend output; `sketch.enabled` is false on exact runs.
  SketchSummary sketch;

  // --- aggregates ---

  /// Element-wise sum of all rank ledgers (phase times summed too).
  [[nodiscard]] RankMetrics totals() const;

  /// Per-phase maximum over ranks: the modeled critical path of the
  /// bulk-synchronous run — what the paper's stacked bars show.
  [[nodiscard]] PhaseTimes modeled_breakdown() const;

  /// Modeled breakdown projected to a `scale`-times-larger input: per rank
  /// and phase, constant terms stay fixed and volume terms scale linearly;
  /// the per-phase maximum over ranks is then taken as usual.
  [[nodiscard]] PhaseTimes projected_breakdown(double scale) const;

  /// Modeled Alltoallv-routine time (Fig. 8's metric) projected to a
  /// `scale`-times-larger input; max over ranks.
  [[nodiscard]] double projected_alltoallv_seconds(double scale) const;

  /// Sum of the modeled per-phase maxima.
  [[nodiscard]] double modeled_total_seconds() const;

  /// Table III metric: max/avg of counted k-mers per rank.
  [[nodiscard]] double load_imbalance() const;

  /// Min/max counted k-mers across ranks (Table III columns).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> min_max_load() const;

  [[nodiscard]] std::uint64_t total_kmers() const;
  [[nodiscard]] std::uint64_t total_unique() const;
  [[nodiscard]] std::uint64_t total_supermers() const;
  [[nodiscard]] std::uint64_t total_bytes_exchanged() const;

  /// k-mer frequency spectrum from global_counts:
  /// multiplicity -> number of distinct k-mers with that multiplicity.
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> spectrum() const;
};

}  // namespace dedukt::core
