// An abortable cyclic barrier.
//
// std::barrier cannot be interrupted: if one simulated rank throws, every
// other rank would block forever at its next synchronization point. This
// barrier adds an abort() that wakes all waiters with a SimulationError, so
// a failure on any rank propagates as an exception on every rank and the
// Runtime can join all threads and rethrow the original error. leave()
// does the same for a rank that returns while its peers still need it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

namespace dedukt::mpisim {

class Barrier {
 public:
  explicit Barrier(int participants);

  /// Block until all participants arrive. Throws SimulationError if abort()
  /// was (or is) called while waiting.
  void arrive_and_wait();

  /// Wake all waiters with an error; subsequent arrivals also throw.
  void abort();

  /// Participant `rank` is gone for good, so no unfinished generation can
  /// complete: abort with an error naming it. Completed generations are
  /// untouched.
  void leave(int rank);

  /// True once abort() or leave() was called.
  [[nodiscard]] bool aborted() const;

 private:
  void abort_with(std::string reason);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  const int participants_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
  std::string abort_reason_;  ///< the first abort's error; empty until then
};

}  // namespace dedukt::mpisim
