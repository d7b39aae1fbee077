// Runtime — owns the simulated ranks.
//
// run(f) spawns one OS thread per rank, each with its own Comm bound to the
// shared collective board, and joins them all (single-rank runs execute
// inline on the caller). An exception on any rank aborts the collective
// board's barrier (so no rank deadlocks) and is rethrown from run() on the
// caller's thread.
//
// Each rank runs its own kernel launches on its own thread, so the rank
// threads are the simulation's only host parallelism.
//
// When tracing is enabled, run() binds every rank body to its per-rank
// trace::SpanRecorder (trace::RankTraceScope), so spans recorded anywhere
// inside f — collectives, kernel launches, pipeline phases — land on the
// right rank track of the exported Chrome trace.
#pragma once

#include <functional>
#include <vector>

#include "dedukt/mpisim/comm.hpp"
#include "dedukt/mpisim/network_model.hpp"

namespace dedukt::mpisim {

class Runtime {
 public:
  /// Create a runtime with `nranks` ranks over the given network model.
  explicit Runtime(int nranks, NetworkModel network = NetworkModel::local());

  /// Execute `f(comm)` on every rank concurrently; blocks until all ranks
  /// return. Rethrows the first rank failure. May be called repeatedly; the
  /// communication stats accumulate across calls.
  void run(const std::function<void(Comm&)>& f);

  [[nodiscard]] int nranks() const { return nranks_; }

  /// Per-rank communication ledgers (valid after run()).
  [[nodiscard]] const std::vector<CommStats>& stats() const { return stats_; }

  /// Aggregate of all ranks' ledgers; modeled_seconds is the max across
  /// ranks (they agree for bulk-synchronous programs).
  [[nodiscard]] CommStats total_stats() const;

 private:
  int nranks_;
  NetworkModel network_;
  std::vector<CommStats> stats_;
};

}  // namespace dedukt::mpisim
