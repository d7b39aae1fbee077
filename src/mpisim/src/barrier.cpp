#include "dedukt/mpisim/barrier.hpp"

#include <utility>

#include "dedukt/util/error.hpp"

namespace dedukt::mpisim {

Barrier::Barrier(int participants) : participants_(participants) {
  DEDUKT_REQUIRE(participants > 0);
}

void Barrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!abort_reason_.empty()) throw SimulationError(abort_reason_);
  const std::uint64_t my_generation = generation_;
  if (++waiting_ == participants_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] {
    return generation_ != my_generation || !abort_reason_.empty();
  });
  if (generation_ == my_generation) throw SimulationError(abort_reason_);
}

void Barrier::abort() { abort_with("barrier aborted (a rank failed)"); }

void Barrier::leave(int rank) {
  abort_with("rank " + std::to_string(rank) +
             " returned while its peers wait in a collective");
}

void Barrier::abort_with(std::string reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (abort_reason_.empty()) abort_reason_ = std::move(reason);
  cv_.notify_all();
}

bool Barrier::aborted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !abort_reason_.empty();
}

}  // namespace dedukt::mpisim
