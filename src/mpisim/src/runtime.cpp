#include "dedukt/mpisim/runtime.hpp"

#include <exception>
#include <mutex>
#include <thread>

#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::mpisim {

Runtime::Runtime(int nranks, NetworkModel network)
    : nranks_(nranks),
      network_(network),
      stats_(static_cast<std::size_t>(nranks)) {
  DEDUKT_REQUIRE_MSG(nranks > 0, "Runtime needs at least one rank");
}

void Runtime::run(const std::function<void(Comm&)>& f) {
  detail::CollectiveBoard board(nranks_);

  if (nranks_ == 1) {
    // Single-rank runs execute inline: no rank thread to spawn.
    // Collectives are trivially satisfied at size 1, so no barrier can
    // block.
    trace::RankTraceScope trace_scope(0);
    Comm comm(0, 1, board, network_, stats_[0]);
    f(comm);
    return;
  }

  std::exception_ptr first_error;
  std::mutex error_mutex;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      // Bind this rank thread to its session recorder so spans opened
      // anywhere below (collectives, kernels, pipeline phases) land on
      // rank r's track.
      trace::RankTraceScope trace_scope(r);
      Comm comm(r, nranks_, board, network_,
                stats_[static_cast<std::size_t>(r)]);
      try {
        f(comm);
        // A peer parked in a collective, or entering one later, would
        // wait for this rank forever: make it fail instead.
        board.barrier.leave(r);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Wake the ranks parked in a collective's barrier phases, which
        // would otherwise wait forever for this one.
        board.barrier.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

CommStats Runtime::total_stats() const {
  CommStats total;
  double max_modeled = 0;
  for (const auto& s : stats_) {
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
    total.alltoallv_calls += s.alltoallv_calls;
    total.collective_calls += s.collective_calls;
    max_modeled = std::max(max_modeled, s.modeled_seconds);
  }
  total.modeled_seconds = max_modeled;
  return total;
}

}  // namespace dedukt::mpisim
