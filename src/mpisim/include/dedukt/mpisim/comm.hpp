// Comm — the per-rank communicator handle of the message-passing substrate.
//
// Semantics mirror the MPI routines the paper's pipeline uses
// (MPI_Alltoallv, plus allreduce, gatherv and bcast for setup and merges):
// collectives are blocking, matched calls across all ranks of a Runtime,
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
// arguments.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "dedukt/mpisim/barrier.hpp"
#include "dedukt/mpisim/network_model.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::mpisim {

/// Reduction operators for allreduce/allreduce_vector.
enum class ReduceOp { kSum, kMin, kMax };

/// Exact communication accounting for one rank.
struct CommStats {
  std::uint64_t bytes_sent = 0;      ///< off-rank payload bytes sent
  std::uint64_t bytes_received = 0;  ///< off-rank payload bytes received
  std::uint64_t alltoallv_calls = 0;
  std::uint64_t collective_calls = 0;  ///< reductions, gathers, broadcasts
  /// Modeled wall time of all communication on the target network. Identical
  /// across ranks for a bulk-synchronous program (it is built from per-round
  /// maxima).
  double modeled_seconds = 0.0;
  /// The volume-proportional (bandwidth) share of modeled_seconds. The
  /// remainder is per-message latency, which stays constant when a
  /// down-scaled run is projected to a full-size input.
  double modeled_volume_seconds = 0.0;
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
};

namespace detail {

/// Shared blackboard all ranks use to exchange pointers and byte counts.
struct CollectiveBoard {
  explicit CollectiveBoard(int nranks)
      : barrier(nranks),
        ptrs(static_cast<std::size_t>(nranks), nullptr),
        bytes(static_cast<std::size_t>(nranks), 0),
        tags(static_cast<std::size_t>(nranks), 0) {}

  /// Every collective's phases. Aborting it wakes every parked rank with a
  /// SimulationError, so one rank's failure cannot deadlock the others.
  Barrier barrier;
  std::vector<const void*> ptrs;
  std::vector<std::uint64_t> bytes;
  std::vector<std::size_t> tags;  ///< op+type consistency tags
};

}  // namespace detail

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
  /// Round-max payload bytes of the most recent collective. Lets a caller
  /// reprice that one exchange exactly — network().alltoallv_seconds(...)
  /// of it is a pure function of the traffic, free of the rounding a
  /// ledger delta (sum-then-subtract) picks up from whatever was
  /// accumulated before.
  [[nodiscard]] std::uint64_t last_round_max_bytes() const {
    return last_round_max_bytes_;
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
    result.offsets.resize(static_cast<std::size_t>(nranks_));
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
      result.offsets[static_cast<std::size_t>(src)] = result.data.size();
      result.data.insert(result.data.end(), slice.begin(), slice.end());
      if (src != rank_) in_bytes += slice.size() * sizeof(T);
    }

    std::uint64_t out_bytes = 0;
    for (int dst = 0; dst < nranks_; ++dst) {
      if (dst != rank_) {
        out_bytes += send[static_cast<std::size_t>(dst)].size() * sizeof(T);
      }
    }
    finish_with_bytes(std::max(in_bytes, out_bytes));

    stats_.alltoallv_calls += 1;
    stats_.bytes_sent += out_bytes;
    stats_.bytes_received += in_bytes;
    const double modeled =
        network_.alltoallv_seconds(last_round_max_bytes_, nranks_);
    const double volume =
        network_.alltoallv_volume_seconds(last_round_max_bytes_, nranks_);
    stats_.modeled_seconds += modeled;
    stats_.modeled_volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes_sent", out_bytes);
      span.arg_u64("bytes_received", in_bytes);
      span.arg_u64("round_max_bytes", last_round_max_bytes_);
      trace::counter("comm.bytes_sent", out_bytes);
      trace::counter("comm.bytes_received", in_bytes);
    }
    return result;
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
        board_.barrier.abort();
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

  template <typename T>
  static T apply(const T& a, const T& b, ReduceOp op) {
    switch (op) {
      case ReduceOp::kSum: return a + b;
      case ReduceOp::kMin: return b < a ? b : a;
      case ReduceOp::kMax: return a < b ? b : a;
    }
    throw SimulationError("unknown ReduceOp");
  }

  const int rank_;
  const int nranks_;
  detail::CollectiveBoard& board_;
  const NetworkModel& network_;
  CommStats& stats_;
  std::uint64_t last_round_max_bytes_ = 0;
};

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
