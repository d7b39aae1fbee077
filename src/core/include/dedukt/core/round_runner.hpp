// RoundRunner — the one implementation of §III-A multi-round processing.
//
// A pipeline's entry point is reduced to: validate the config, construct a
// RoundRunner (which collectively agrees on the round count), optionally do
// per-job setup (e.g. the supermer pipeline's frequency-balanced routing
// table — built once per job, *after* the round planning collective, so the
// ledger deltas match the pre-framework pipelines bit for bit), and hand
// `run()` a callable that executes one round. The runner splits the rank's
// reads into base-balanced sub-batches, runs the rounds in lockstep with
// every other rank, folds each round's ledger into the total, and derives
// the final table-dependent fields.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dedukt/core/config.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/mpisim/comm.hpp"

namespace dedukt::core {

/// §III-A: "Depending on the total size of the input, relative to software
/// limits (approximating available memory), the computation and
/// communication may proceed in multiple rounds." All ranks must agree on
/// the round count, so the per-rank requirement is maximized collectively.
inline std::uint64_t plan_rounds(mpisim::Comm& comm,
                                 const io::ReadBatch& reads, int k,
                                 std::uint64_t max_kmers_per_round) {
  if (max_kmers_per_round == 0) return 1;  // unlimited memory
  std::uint64_t local = 0;
  for (const auto& read : reads.reads) {
    local += kmer::count_kmers(read.bases, k);
  }
  const std::uint64_t mine =
      std::max<std::uint64_t>(1, (local + max_kmers_per_round - 1) /
                                     max_kmers_per_round);
  return comm.allreduce(mine, mpisim::ReduceOp::kMax);
}

/// Fold one round's metrics into the running total (work counts and phase
/// times add; table-derived fields are set by RoundRunner at the end).
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

class RoundRunner {
 public:
  /// Plans the round count — a collective: every rank must construct its
  /// runner at the same point in the pipeline.
  RoundRunner(mpisim::Comm& comm, const io::ReadBatch& reads,
              const PipelineConfig& config)
      : reads_(reads),
        rounds_(plan_rounds(comm, reads, config.k,
                            config.max_kmers_per_round)) {}

  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  /// The collectively-agreed round count.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Run `run_single` once per round (on the whole batch when everything
  /// fits in one round), accumulate the per-round ledgers on top of
  /// `setup`, and derive the table-dependent totals from `table`.
  ///
  /// `run_single` is invoked as `RankMetrics(const io::ReadBatch&)`; all
  /// ranks execute their rounds in lockstep, accumulating into the same
  /// local table.
  template <typename Table, typename RunSingle>
  [[nodiscard]] RankMetrics run(Table& table, RunSingle&& run_single,
                                RankMetrics setup = RankMetrics{}) const {
    RankMetrics total = std::move(setup);
    if (rounds_ == 1) {
      accumulate_round(total, run_single(reads_));
    } else {
      const std::vector<io::ReadBatch> round_batches =
          io::partition_by_bases(reads_, static_cast<int>(rounds_));
      for (const io::ReadBatch& batch : round_batches) {
        accumulate_round(total, run_single(batch));
      }
    }
    total.unique_kmers = table.unique();
    total.counted_kmers = table.total();
    return total;
  }

 private:
  const io::ReadBatch& reads_;
  const std::uint64_t rounds_;
};

}  // namespace dedukt::core
