// Comm — the per-rank communicator handle of the message-passing substrate.
//
// Semantics mirror the MPI routines the paper's pipeline uses
// (MPI_Alltoall/MPI_Alltoallv, plus barrier/allreduce/gather/bcast used by
// the driver): collectives are matched calls across all ranks of a Runtime,
// data is copied between per-rank address spaces, and receive buffers carry
// per-source counts exactly like MPI recvcounts.
//
// Every collective also feeds two ledgers:
//  * CommStats — exact off-rank byte counts per rank, and
//  * the NetworkModel — which converts the busiest rank's bytes into the
//    modeled time of the same exchange on the target machine (Summit by
//    default). This is how the benchmarks obtain cluster-scale exchange
//    times from a single-host simulation.
// When tracing is enabled (see dedukt/trace), every collective additionally
// records a "collective" span on the calling rank's track, pinned to the
// same modeled duration it adds to CommStats, with byte counts as span
// arguments. alltoall() delegates to alltoallv() and is deliberately not
// spanned itself, so each exchange appears exactly once.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <typeinfo>
#include <utility>
#include <vector>

#include "dedukt/mpisim/barrier.hpp"
#include "dedukt/mpisim/network_model.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::mpisim {

/// Reduction operators for allreduce/reduce.
enum class ReduceOp { kSum, kMin, kMax };

/// Exact communication accounting for one rank.
struct CommStats {
  std::uint64_t bytes_sent = 0;      ///< off-rank payload bytes sent
  std::uint64_t bytes_received = 0;  ///< off-rank payload bytes received
  std::uint64_t alltoallv_calls = 0;
  std::uint64_t collective_calls = 0;  ///< barriers, reductions, gathers...
  /// Modeled wall time of all communication on the target network. Identical
  /// across ranks for a bulk-synchronous program (it is built from per-round
  /// maxima).
  double modeled_seconds = 0.0;
  /// The volume-proportional (bandwidth) share of modeled_seconds. The
  /// remainder is per-message latency, which stays constant when a
  /// down-scaled run is projected to a full-size input.
  double modeled_volume_seconds = 0.0;

  void merge(const CommStats& other) {
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    alltoallv_calls += other.alltoallv_calls;
    collective_calls += other.collective_calls;
    modeled_seconds += other.modeled_seconds;
    modeled_volume_seconds += other.modeled_volume_seconds;
  }
};

/// Result of an alltoallv: data concatenated in source-rank order plus the
/// per-source element counts (MPI recvbuf + recvcounts).
template <typename T>
struct AlltoallvResult {
  std::vector<T> data;
  std::vector<std::uint64_t> counts;  ///< counts[src] elements came from src
  /// Exclusive prefix sums of `counts`, filled once when the result is
  /// assembled so from() is O(1) instead of re-summing the prefix per call.
  std::vector<std::uint64_t> offsets;

  /// View of the elements received from `src`.
  [[nodiscard]] std::span<const T> from(int src) const {
    return std::span<const T>(data).subspan(
        offsets[static_cast<std::size_t>(src)],
        counts[static_cast<std::size_t>(src)]);
  }

  /// Rebuild `offsets` from `counts`; every construction site calls this
  /// exactly once after the counts are final.
  void finalize_offsets() {
    offsets.resize(counts.size());
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      offsets[i] = running;
      running += counts[i];
    }
  }
};

namespace detail {

/// One in-flight nonblocking collective, keyed by posting sequence number.
/// The poster copies its payload in at post time — so arbitrary wait orders
/// across ranks can never deadlock on a sender's buffer — and every rank
/// copies its slices out at wait()/test() completion.
struct AsyncOp {
  AsyncOp(int nranks, std::size_t op_tag)
      : tag(op_tag),
        payload(static_cast<std::size_t>(nranks),
                std::vector<std::vector<std::byte>>(
                    static_cast<std::size_t>(nranks))),
        out_bytes(static_cast<std::size_t>(nranks), 0) {}

  const std::size_t tag;  ///< op+type consistency tag (set by first poster)
  int posted = 0;         ///< ranks that have posted their payload
  int consumed = 0;       ///< ranks that have completed their request
  /// payload[src][dst]: the bytes rank src sent to rank dst.
  std::vector<std::vector<std::vector<std::byte>>> payload;
  std::vector<std::uint64_t> out_bytes;  ///< per-rank off-rank bytes sent
};

/// Matching state for nonblocking collectives. MPI semantics: the n-th
/// nonblocking collective posted on one rank matches the n-th posted on
/// every other rank, so ops are keyed by the per-rank posting counter —
/// no barrier involved, which is what lets a posting rank run ahead.
struct AsyncState {
  explicit AsyncState(int nranks)
      : next_seq(static_cast<std::size_t>(nranks), 0) {}

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint64_t> next_seq;  ///< per-rank posting counters
  std::map<std::uint64_t, std::shared_ptr<AsyncOp>> ops;
  bool aborted = false;
};

/// Shared blackboard all ranks use to exchange pointers and byte counts.
struct CollectiveBoard {
  explicit CollectiveBoard(int nranks)
      : barrier(nranks),
        ptrs(static_cast<std::size_t>(nranks), nullptr),
        bytes(static_cast<std::size_t>(nranks), 0),
        tags(static_cast<std::size_t>(nranks), 0),
        async(nranks) {}

  /// Wake every rank — whether parked in a barrier phase or blocked in an
  /// async wait() — with a SimulationError, so one rank's failure cannot
  /// deadlock the others.
  void abort() {
    {
      std::lock_guard<std::mutex> lock(async.mutex);
      async.aborted = true;
    }
    async.cv.notify_all();
    barrier.abort();
  }

  Barrier barrier;
  std::vector<const void*> ptrs;
  std::vector<std::uint64_t> bytes;
  std::vector<std::size_t> tags;  ///< op+type consistency tags
  AsyncState async;               ///< nonblocking-collective matching state
};

}  // namespace detail

template <typename T>
class Request;

class Comm {
 public:
  Comm(int rank, int nranks, detail::CollectiveBoard& board,
       const NetworkModel& network, CommStats& stats)
      : rank_(rank),
        nranks_(nranks),
        board_(board),
        network_(network),
        stats_(stats) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return nranks_; }
  [[nodiscard]] CommStats& stats() { return stats_; }
  [[nodiscard]] const NetworkModel& network() const { return network_; }
  /// Round-max payload bytes of the most recent alltoallv-style charge
  /// (blocking or at a Request's completion). Lets a caller reprice that
  /// one exchange exactly — network().alltoallv_seconds(...) of it is a
  /// pure function of the traffic, free of the rounding a ledger-delta
  /// (sum-then-subtract) picks up from whatever was accumulated before.
  [[nodiscard]] std::uint64_t last_round_max_bytes() const {
    return last_round_max_bytes_;
  }

  /// Synchronize all ranks.
  void barrier() {
    trace::ScopedSpan span(trace::kCategoryCollective, "barrier");
    publish(nullptr, op_tag(0x1, typeid(void)));
    board_.barrier.arrive_and_wait();  // phase B (no data)
    board_.barrier.arrive_and_wait();  // phase C
    stats_.collective_calls += 1;
    const double modeled = network_.collective_latency_seconds(nranks_);
    stats_.modeled_seconds += modeled;
    span.set_modeled_seconds(modeled);
  }

  /// Personalized all-to-all with variable counts: send[dst] goes to rank
  /// dst. Equivalent to MPI_Alltoallv preceded by the count exchange
  /// (MPI_Alltoall) the paper's pipeline performs.
  template <typename T>
  [[nodiscard]] AlltoallvResult<T> alltoallv(
      const std::vector<std::vector<T>>& send) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "alltoallv payload must be trivially copyable");
    DEDUKT_REQUIRE_MSG(send.size() == static_cast<std::size_t>(nranks_),
                       "alltoallv needs one send buffer per rank");

    trace::ScopedSpan span(trace::kCategoryCollective, "alltoallv");
    publish(&send, op_tag(0x2, typeid(T)));

    // Read every source's slice destined to this rank.
    AlltoallvResult<T> result;
    result.counts.resize(static_cast<std::size_t>(nranks_));
    std::uint64_t in_bytes = 0;
    std::size_t total = 0;
    for (int src = 0; src < nranks_; ++src) {
      const auto* srcbufs =
          static_cast<const std::vector<std::vector<T>>*>(board_.ptrs[src]);
      total += (*srcbufs)[static_cast<std::size_t>(rank_)].size();
    }
    result.data.reserve(total);
    for (int src = 0; src < nranks_; ++src) {
      const auto* srcbufs =
          static_cast<const std::vector<std::vector<T>>*>(board_.ptrs[src]);
      const auto& slice = (*srcbufs)[static_cast<std::size_t>(rank_)];
      result.counts[static_cast<std::size_t>(src)] = slice.size();
      result.data.insert(result.data.end(), slice.begin(), slice.end());
      if (src != rank_) in_bytes += slice.size() * sizeof(T);
    }
    result.finalize_offsets();

    std::uint64_t out_bytes = 0;
    for (int dst = 0; dst < nranks_; ++dst) {
      if (dst != rank_) {
        out_bytes += send[static_cast<std::size_t>(dst)].size() * sizeof(T);
      }
    }
    finish_with_bytes(std::max(in_bytes, out_bytes));

    charge_alltoallv(span, out_bytes, in_bytes, last_round_max_bytes_);
    return result;
  }

  /// Nonblocking personalized all-to-all (MPI_Ialltoallv): posts the
  /// exchange and returns a Request immediately. Matching follows MPI
  /// semantics — the n-th ialltoallv posted on one rank matches the n-th
  /// posted on every other rank, independent of any blocking collectives
  /// in between. The payload is copied at post time (the caller's buffers
  /// are reusable as soon as this returns, and mismatched wait orders
  /// across ranks can never deadlock); delivery, byte ledgers and modeled
  /// exchange time are all charged at wait()/test() completion.
  template <typename T>
  [[nodiscard]] Request<T> ialltoallv(const std::vector<std::vector<T>>& send);

  /// Fixed-count all-to-all: element i of `send` goes to rank i
  /// (MPI_Alltoall with one element per peer).
  template <typename T>
  [[nodiscard]] std::vector<T> alltoall(const std::vector<T>& send) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEDUKT_REQUIRE(send.size() == static_cast<std::size_t>(nranks_));
    std::vector<std::vector<T>> wrapped(static_cast<std::size_t>(nranks_));
    for (int dst = 0; dst < nranks_; ++dst) {
      wrapped[static_cast<std::size_t>(dst)] = {
          send[static_cast<std::size_t>(dst)]};
    }
    auto result = alltoallv<T>(wrapped);
    return std::move(result.data);
  }

  /// Reduce a value across all ranks; every rank receives the result.
  template <typename T>
  [[nodiscard]] T allreduce(const T& value, ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    trace::ScopedSpan span(trace::kCategoryCollective, "allreduce");
    publish(&value, op_tag(0x3, typeid(T)));
    T acc = *static_cast<const T*>(board_.ptrs[0]);
    for (int src = 1; src < nranks_; ++src) {
      const T& v = *static_cast<const T*>(board_.ptrs[src]);
      acc = apply(acc, v, op);
    }
    finish_with_bytes(sizeof(T));
    stats_.collective_calls += 1;
    stats_.bytes_sent += sizeof(T) * static_cast<std::uint64_t>(nranks_ - 1);
    stats_.bytes_received += sizeof(T) *
                             static_cast<std::uint64_t>(nranks_ - 1);
    const double modeled = network_.collective_latency_seconds(nranks_);
    stats_.modeled_seconds += modeled;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.arg_u64("bytes", sizeof(T) *
                                static_cast<std::uint64_t>(nranks_ - 1));
    }
    return acc;
  }

  /// Gather one value per rank; every rank receives the full array
  /// (MPI_Allgather).
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    trace::ScopedSpan span(trace::kCategoryCollective, "allgather");
    publish(&value, op_tag(0x4, typeid(T)));
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(nranks_));
    for (int src = 0; src < nranks_; ++src) {
      out.push_back(*static_cast<const T*>(board_.ptrs[src]));
    }
    finish_with_bytes(sizeof(T) * static_cast<std::uint64_t>(nranks_));
    stats_.collective_calls += 1;
    // Each rank ships its value to the nranks-1 peers and receives one
    // value from each of them (same traffic shape as allreduce).
    const std::uint64_t traffic =
        sizeof(T) * static_cast<std::uint64_t>(nranks_ - 1);
    stats_.bytes_sent += traffic;
    stats_.bytes_received += traffic;
    const double modeled = network_.collective_latency_seconds(nranks_);
    stats_.modeled_seconds += modeled;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.arg_u64("bytes", sizeof(T) * static_cast<std::uint64_t>(nranks_));
    }
    return out;
  }

  /// Gather variable-length vectors to `root`. Non-root ranks receive an
  /// empty result (MPI_Gatherv).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> gatherv(const std::vector<T>& send,
                                                    int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEDUKT_REQUIRE(root >= 0 && root < nranks_);
    trace::ScopedSpan span(trace::kCategoryCollective, "gatherv");
    publish(&send, op_tag(0x5, typeid(T)));
    std::vector<std::vector<T>> out;
    std::uint64_t in_bytes = 0;
    if (rank_ == root) {
      out.resize(static_cast<std::size_t>(nranks_));
      for (int src = 0; src < nranks_; ++src) {
        const auto& v =
            *static_cast<const std::vector<T>*>(board_.ptrs[src]);
        out[static_cast<std::size_t>(src)] = v;
        if (src != root) in_bytes += v.size() * sizeof(T);
      }
    }
    const std::uint64_t out_bytes =
        rank_ == root ? 0 : send.size() * sizeof(T);
    finish_with_bytes(std::max(in_bytes, out_bytes));
    stats_.collective_calls += 1;
    stats_.bytes_sent += out_bytes;
    stats_.bytes_received += in_bytes;
    const double modeled = network_.alltoallv_seconds(
        last_round_max_bytes_, nranks_);
    const double volume = network_.alltoallv_volume_seconds(
        last_round_max_bytes_, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", out_bytes);
      span.arg_u64("bytes_received", in_bytes);
      trace::counter("comm.bytes_sent", out_bytes);
      trace::counter("comm.bytes_received", in_bytes);
    }
    return out;
  }

  /// Broadcast a vector from `root` to all ranks (MPI_Bcast of a buffer
  /// preceded by its length). Non-root ranks may pass any vector; they
  /// receive the root's contents.
  template <typename T>
  [[nodiscard]] std::vector<T> bcast_vector(const std::vector<T>& value,
                                            int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEDUKT_REQUIRE(root >= 0 && root < nranks_);
    trace::ScopedSpan span(trace::kCategoryCollective, "bcast_vector");
    publish(&value, op_tag(0x7, typeid(T)));
    const auto& src =
        *static_cast<const std::vector<T>*>(board_.ptrs[root]);
    std::vector<T> result = src;
    const std::uint64_t bytes =
        rank_ == root ? 0 : result.size() * sizeof(T);
    // The root fans the payload out to the nranks-1 other ranks; every
    // other rank receives one copy.
    const std::uint64_t sent =
        rank_ == root ? result.size() * sizeof(T) *
                            static_cast<std::uint64_t>(nranks_ - 1)
                      : 0;
    finish_with_bytes(bytes);
    stats_.collective_calls += 1;
    stats_.bytes_sent += sent;
    if (rank_ != root) stats_.bytes_received += bytes;
    const double modeled =
        network_.collective_latency_seconds(nranks_) +
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    const double volume =
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", sent);
      span.arg_u64("bytes_received", bytes);
      if (rank_ == root) trace::counter("comm.bytes_sent", sent);
      if (rank_ != root) trace::counter("comm.bytes_received", bytes);
    }
    return result;
  }

  /// Element-wise reduction of equal-length vectors; every rank receives
  /// the reduced vector (MPI_Allreduce over a buffer). The sketch backend
  /// merges per-rank count-min cell arrays through this with kSum.
  template <typename T>
  [[nodiscard]] std::vector<T> allreduce_vector(const std::vector<T>& value,
                                                ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    trace::ScopedSpan span(trace::kCategoryCollective, "allreduce_vector");
    publish(&value, op_tag(0xB, typeid(T)));
    const auto input = [&](int src) -> const std::vector<T>& {
      return *static_cast<const std::vector<T>*>(
          board_.ptrs[static_cast<std::size_t>(src)]);
    };
    // Every rank sees the same board, so all ranks find the same mismatch.
    // They meet once more before throwing: a rank that unwinds frees its
    // vector, which the others may still be reading.
    int bad = 0;
    for (int src = 1; src < nranks_ && bad == 0; ++src) {
      if (input(src).size() != input(0).size()) bad = src;
    }
    if (bad != 0) {
      const std::size_t sent = input(bad).size();
      const std::size_t root_sent = input(0).size();
      board_.barrier.arrive_and_wait();
      DEDUKT_REQUIRE_MSG(sent == root_sent,
                         "allreduce_vector length mismatch: rank "
                             << bad << " sent " << sent
                             << " elements, rank 0 sent " << root_sent);
    }
    std::vector<T> acc = input(0);
    for (int src = 1; src < nranks_; ++src) {
      const std::vector<T>& v = input(src);
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = apply(acc[i], v[i], op);
      }
    }
    // Ring-allreduce traffic shape: reduce-scatter + allgather move
    // 2 * bytes * (P-1)/P through each rank's link, both directions.
    const std::uint64_t bytes = value.size() * sizeof(T);
    const std::uint64_t wire =
        nranks_ > 1 ? 2 * bytes * static_cast<std::uint64_t>(nranks_ - 1) /
                          static_cast<std::uint64_t>(nranks_)
                    : 0;
    finish_with_bytes(wire);
    stats_.collective_calls += 1;
    stats_.bytes_sent += wire;
    stats_.bytes_received += wire;
    const double modeled =
        network_.collective_latency_seconds(nranks_) +
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    const double volume =
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", wire);
      span.arg_u64("bytes_received", wire);
      trace::counter("comm.bytes_sent", wire);
      trace::counter("comm.bytes_received", wire);
    }
    return acc;
  }

  /// Broadcast `value` from `root` to all ranks.
  template <typename T>
  [[nodiscard]] T bcast(const T& value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEDUKT_REQUIRE(root >= 0 && root < nranks_);
    trace::ScopedSpan span(trace::kCategoryCollective, "bcast");
    publish(&value, op_tag(0x6, typeid(T)));
    const T result = *static_cast<const T*>(board_.ptrs[root]);
    finish_with_bytes(sizeof(T));
    stats_.collective_calls += 1;
    const double modeled = network_.collective_latency_seconds(nranks_);
    stats_.modeled_seconds += modeled;
    span.set_modeled_seconds(modeled);
    return result;
  }

 private:
  /// Phase A: publish this rank's buffer pointer and the op/type tag, then
  /// wait for all ranks. After this returns, board_.ptrs is consistent and
  /// the tags are validated.
  void publish(const void* ptr, std::size_t tag) {
    board_.ptrs[static_cast<std::size_t>(rank_)] = ptr;
    board_.tags[static_cast<std::size_t>(rank_)] = tag;
    board_.barrier.arrive_and_wait();
    for (int r = 0; r < nranks_; ++r) {
      if (board_.tags[static_cast<std::size_t>(r)] != tag) {
        board_.abort();
        throw SimulationError(
            "mismatched collective: ranks called different operations or "
            "element types");
      }
    }
  }

  /// Phases B+C: record this rank's traffic, synchronize so that all byte
  /// counts are visible, compute the round maximum (for the network model),
  /// and synchronize again so buffers can be reused.
  void finish_with_bytes(std::uint64_t my_max_bytes) {
    board_.bytes[static_cast<std::size_t>(rank_)] = my_max_bytes;
    board_.barrier.arrive_and_wait();
    std::uint64_t round_max = 0;
    for (int r = 0; r < nranks_; ++r) {
      round_max = std::max(round_max,
                           board_.bytes[static_cast<std::size_t>(r)]);
    }
    last_round_max_bytes_ = round_max;
    board_.barrier.arrive_and_wait();
  }

  static std::size_t op_tag(std::size_t op, const std::type_info& type) {
    return op * 0x9e3779b97f4a7c15ULL ^ type.hash_code();
  }

  /// Ledger and span charging shared by the blocking alltoallv and the
  /// completion point of an ialltoallv — both modes must account the
  /// routine identically so CommStats and trace counters cannot diverge
  /// between blocking and nonblocking exchanges.
  void charge_alltoallv(trace::ScopedSpan& span, std::uint64_t out_bytes,
                        std::uint64_t in_bytes, std::uint64_t round_max) {
    last_round_max_bytes_ = round_max;
    stats_.alltoallv_calls += 1;
    stats_.bytes_sent += out_bytes;
    stats_.bytes_received += in_bytes;
    const double modeled = network_.alltoallv_seconds(round_max, nranks_);
    const double volume =
        network_.alltoallv_volume_seconds(round_max, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", out_bytes);
      span.arg_u64("bytes_received", in_bytes);
      span.arg_u64("round_max_bytes", round_max);
      trace::counter("comm.bytes_sent", out_bytes);
      trace::counter("comm.bytes_received", in_bytes);
    }
  }

  template <typename T>
  static T apply(const T& a, const T& b, ReduceOp op) {
    switch (op) {
      case ReduceOp::kSum: return a + b;
      case ReduceOp::kMin: return b < a ? b : a;
      case ReduceOp::kMax: return a < b ? b : a;
    }
    throw SimulationError("unknown ReduceOp");
  }

  template <typename T>
  friend class Request;

  const int rank_;
  const int nranks_;
  detail::CollectiveBoard& board_;
  const NetworkModel& network_;
  CommStats& stats_;
  std::uint64_t last_round_max_bytes_ = 0;
};

/// Handle to an in-flight ialltoallv (the simulator's MPI_Request). Move-
/// only. A request that was armed by Comm::ialltoallv must be completed by
/// wait() — or a successful test() — before it is destroyed; destroying a
/// live request raises a PreconditionError, mirroring MPI's rule that every
/// request must be completed.
template <typename T>
class Request {
 public:
  Request() = default;

  Request(Request&& other) noexcept
      : comm_(other.comm_),
        seq_(other.seq_),
        out_bytes_(other.out_bytes_),
        done_(other.done_),
        result_(std::move(other.result_)) {
    other.comm_ = nullptr;
    other.done_ = false;
    other.result_.reset();
  }

  Request& operator=(Request&& other) noexcept(false) {
    if (this != &other) {
      require_completed("overwritten");
      comm_ = other.comm_;
      seq_ = other.seq_;
      out_bytes_ = other.out_bytes_;
      done_ = other.done_;
      result_ = std::move(other.result_);
      other.comm_ = nullptr;
      other.done_ = false;
      other.result_.reset();
    }
    return *this;
  }

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  ~Request() noexcept(false) {
    // Dropping an in-flight request is a caller bug — but never throw
    // while another exception is already unwinding the stack.
    if (std::uncaught_exceptions() > uncaught_on_arm_) return;
    require_completed("destroyed");
  }

  /// True while the request still owns an exchange (armed and the result
  /// not yet retrieved by wait()).
  [[nodiscard]] bool valid() const { return comm_ != nullptr; }

  /// Nonblocking completion probe (MPI_Test): false until every rank has
  /// posted the matching op. The first call that returns true delivers the
  /// payload, charges the byte/time ledgers and records the wait span; a
  /// later wait() then returns the cached result without blocking or
  /// charging again.
  [[nodiscard]] bool test() {
    DEDUKT_REQUIRE_MSG(comm_ != nullptr, "test() on an empty request");
    if (done_) return true;
    return complete(/*block=*/false);
  }

  /// Block until the exchange completes and return the delivered result
  /// (MPI_Wait). Ledgers are charged here unless an earlier test() already
  /// completed the request.
  [[nodiscard]] AlltoallvResult<T> wait() {
    DEDUKT_REQUIRE_MSG(comm_ != nullptr, "wait() on an empty request");
    if (!done_) {
      const bool completed = complete(/*block=*/true);
      DEDUKT_CHECK(completed);
    }
    AlltoallvResult<T> out = std::move(*result_);
    result_.reset();
    comm_ = nullptr;
    return out;
  }

 private:
  friend class Comm;

  void require_completed(const char* how) {
    DEDUKT_REQUIRE_MSG(
        comm_ == nullptr || done_,
        "nonblocking request " << how << " without wait()/test() completion");
  }

  /// Shared completion path of wait() and test(). Returns false only when
  /// block is false and peers have not all posted yet (and records no span
  /// in that case, so failed polls leave no trace).
  bool complete(bool block) {
    detail::AsyncState& async = comm_->board_.async;
    const auto n = static_cast<std::size_t>(comm_->nranks_);
    const auto me = static_cast<std::size_t>(comm_->rank_);
    std::shared_ptr<detail::AsyncOp> op;
    {
      std::unique_lock<std::mutex> lock(async.mutex);
      op = async.ops.at(seq_);
      if (block) {
        async.cv.wait(lock, [&] {
          return op->posted == comm_->nranks_ || async.aborted;
        });
      }
      if (async.aborted) {
        throw SimulationError(
            "nonblocking collective aborted: another rank failed");
      }
      if (op->posted < comm_->nranks_) return false;
    }

    // Every rank has posted, so the op's payload matrix is immutable from
    // here on (each poster's writes happened-before its counter increment
    // under the mutex); copy out without holding the lock.
    trace::ScopedSpan span(trace::kCategoryCollectiveAsync,
                           "ialltoallv.wait");
    AlltoallvResult<T> result;
    result.counts.resize(n);
    std::uint64_t in_bytes = 0;
    std::size_t total = 0;
    for (std::size_t src = 0; src < n; ++src) {
      total += op->payload[src][me].size() / sizeof(T);
    }
    result.data.resize(total);
    std::size_t cursor = 0;
    for (std::size_t src = 0; src < n; ++src) {
      const std::vector<std::byte>& slice = op->payload[src][me];
      const std::size_t count = slice.size() / sizeof(T);
      result.counts[src] = count;
      if (count > 0) {
        std::memcpy(result.data.data() + cursor, slice.data(), slice.size());
      }
      cursor += count;
      if (src != me) in_bytes += slice.size();
    }
    result.finalize_offsets();

    // The same bulk-synchronous round maximum the blocking alltoallv
    // derives through its byte barrier, computed here from the op's full
    // traffic matrix — every rank arrives at the identical value.
    std::uint64_t round_max = 0;
    for (std::size_t q = 0; q < n; ++q) {
      std::uint64_t in_q = 0;
      for (std::size_t src = 0; src < n; ++src) {
        if (src != q) in_q += op->payload[src][q].size();
      }
      round_max =
          std::max(round_max, std::max(op->out_bytes[q], in_q));
    }

    {
      std::lock_guard<std::mutex> lock(async.mutex);
      op->consumed += 1;
      if (op->consumed == comm_->nranks_) async.ops.erase(seq_);
    }

    comm_->charge_alltoallv(span, out_bytes_, in_bytes, round_max);
    result_ = std::move(result);
    done_ = true;
    return true;
  }

  Comm* comm_ = nullptr;  ///< non-null while armed or holding a result
  std::uint64_t seq_ = 0;
  std::uint64_t out_bytes_ = 0;
  bool done_ = false;  ///< completion (and charging) already happened
  std::optional<AlltoallvResult<T>> result_;
  int uncaught_on_arm_ = std::uncaught_exceptions();
};

template <typename T>
Request<T> Comm::ialltoallv(const std::vector<std::vector<T>>& send) {
  static_assert(std::is_trivially_copyable_v<T>,
                "ialltoallv payload must be trivially copyable");
  DEDUKT_REQUIRE_MSG(send.size() == static_cast<std::size_t>(nranks_),
                     "ialltoallv needs one send buffer per rank");
  trace::ScopedSpan span(trace::kCategoryCollectiveAsync, "ialltoallv.post");
  // Posting is free on the modeled clock; the routine cost lands on the
  // wait span at completion.
  span.set_modeled_seconds(0.0);

  const std::size_t tag = op_tag(0x8, typeid(T));
  detail::AsyncState& async = board_.async;
  std::shared_ptr<detail::AsyncOp> op;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(async.mutex);
    if (async.aborted) {
      throw SimulationError(
          "nonblocking collective aborted: another rank failed");
    }
    seq = async.next_seq[static_cast<std::size_t>(rank_)]++;
    auto it = async.ops.find(seq);
    if (it == async.ops.end()) {
      it = async.ops
               .emplace(seq, std::make_shared<detail::AsyncOp>(nranks_, tag))
               .first;
    }
    op = it->second;
  }
  if (op->tag != tag) {
    board_.abort();
    throw SimulationError(
        "mismatched nonblocking collective: ranks posted different element "
        "types at the same position in the posting order");
  }

  // Copy the payload into the op outside the lock: this rank is the only
  // writer of its payload row, and readers only look after observing the
  // posted count under the mutex.
  std::uint64_t out_bytes = 0;
  for (int dst = 0; dst < nranks_; ++dst) {
    const auto& buf = send[static_cast<std::size_t>(dst)];
    std::vector<std::byte>& slot =
        op->payload[static_cast<std::size_t>(rank_)]
                   [static_cast<std::size_t>(dst)];
    slot.resize(buf.size() * sizeof(T));
    if (!buf.empty()) {
      std::memcpy(slot.data(), buf.data(), slot.size());
    }
    if (dst != rank_) out_bytes += slot.size();
  }
  op->out_bytes[static_cast<std::size_t>(rank_)] = out_bytes;

  {
    std::lock_guard<std::mutex> lock(async.mutex);
    op->posted += 1;
  }
  async.cv.notify_all();

  if (span.active()) span.arg_u64("bytes_sent", out_bytes);

  Request<T> request;
  request.comm_ = this;
  request.seq_ = seq;
  request.out_bytes_ = out_bytes;
  return request;
}

/// Snapshot/delta of a rank's communication ledger around one scope:
/// construct at the start, read the deltas at the end. This is the one
/// canonical way to attribute communication traffic and modeled time to a
/// pipeline phase (see core::PhaseScope / core::ExchangePlan).
class CommCapture {
 public:
  explicit CommCapture(Comm& comm) : comm_(comm), start_(comm.stats()) {}

  [[nodiscard]] std::uint64_t bytes_sent() const {
    return comm_.stats().bytes_sent - start_.bytes_sent;
  }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return comm_.stats().bytes_received - start_.bytes_received;
  }
  [[nodiscard]] double modeled_seconds() const {
    return comm_.stats().modeled_seconds - start_.modeled_seconds;
  }
  [[nodiscard]] double modeled_volume_seconds() const {
    return comm_.stats().modeled_volume_seconds -
           start_.modeled_volume_seconds;
  }

 private:
  Comm& comm_;
  CommStats start_;
};

}  // namespace dedukt::mpisim
