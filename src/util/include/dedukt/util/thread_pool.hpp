// Process-wide worker pool for chunked host-side work. Nothing in the
// library uses it: every kernel launch runs on its rank's thread. Its one
// caller is the benchmark harness (perfbench), which sizes it with its
// --sim-threads flag or DEDUKT_SIM_THREADS; the pool goes when the
// harness stops calling it.
//
// Design goals, in order:
//  1. Determinism of results: the pool runs *chunks* (contiguous index
//     ranges chosen by the caller); it never reorders work inside a chunk,
//     and with one configured thread it executes chunks inline, in order.
//  2. Re-entrancy: a chunk body may itself call run_chunks, and many
//     threads may submit at once. The calling thread always participates
//     in its own job, so progress never depends on a free worker and
//     nested submission cannot deadlock.
//  3. Bounded total parallelism: one shared pool per process. Workers only
//     assist while the number of actively-executing threads (callers +
//     workers) is below the configured budget, so many submitting threads
//     do not multiply into threads^2 oversubscription.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dedukt::util {

class ThreadPool {
 public:
  /// A pool with a total parallelism budget of `threads` (the calling
  /// thread counts toward the budget; `threads - 1` workers are spawned).
  /// `threads == 1` means strictly sequential inline execution.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism budget (>= 1).
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Execute fn(chunk) for every chunk in [0, nchunks). The caller
  /// participates and blocks until all chunks finished. Chunks may run in
  /// any order on any thread *except* when threads() == 1, where they run
  /// inline in ascending order. The first exception thrown by fn cancels
  /// the not-yet-claimed chunks and is rethrown here, on the caller.
  void run_chunks(std::uint64_t nchunks,
                  const std::function<void(std::uint64_t)>& fn);

  /// The process-wide pool, created on first use with configured_threads().
  static ThreadPool& global();

  /// Replace the process-wide pool with one of `threads` threads
  /// (0 = re-read DEDUKT_SIM_THREADS / hardware_concurrency). Must only be
  /// called while no kernels are in flight; meant for tests, benchmarks,
  /// and CLI flag handling before a run starts.
  static void set_global_threads(unsigned threads);

  /// Parallelism from the environment: DEDUKT_SIM_THREADS if set (>= 1),
  /// otherwise std::thread::hardware_concurrency() (>= 1).
  static unsigned configured_threads();

 private:
  struct Job;

  void worker_loop();

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;  ///< guards jobs_ and stop_ transitions
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  /// Threads currently executing chunks (callers + assisting workers).
  std::atomic<unsigned> executing_{0};
  bool stop_ = false;
};

}  // namespace dedukt::util
