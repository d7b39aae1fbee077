// Distributed rank-pinned serving tier — the query-side analogue of the
// counting pipeline's supermer exchange. An opened store is served by P
// simulated ranks with shard i resident on rank i mod P, so each rank's
// working set is a 1/P slice of the store and its cache budget covers a
// 1/P slice of the traffic.
//
// Dataflow per client batch (scatter/gather, one round trip):
//
//   1. frontend  — each rank takes a contiguous 1/P slice of the batch,
//                  dedups it (QueryEngine::dedupe_batch — the identical
//                  plan the single-rank engine builds), and routes every
//                  distinct key to its owner by replaying StoreRouting:
//                  owner(key) = shard_of(key) mod P.
//   2. scatter   — one alltoallv ships the per-owner query buckets.
//   3. serve     — each rank answers its received keys through its own
//                  priced QueryEngine (LRU / freq-admission cache over its
//                  resident shards, lookup/member binary-search kernels on
//                  its own gpusim::Device).
//   4. gather    — a second alltoallv ships (key, count) answers back in
//                  received order; the frontend matches them positionally
//                  (per-source order is preserved), DEDUKT_CHECKs the
//                  echoed key, and fans counts out to duplicate positions.
//
// Everything is priced: NIC bytes and exchange time through the rank
// communicator's NetworkModel ledger, shard staging over the host link and
// lookup kernel time through each rank's Device. Ranks run every batch
// lockstep on blocking exchanges, and the serve-time model prices a call's
// batches as a two-slot pipeline: batch b's answer exchange runs behind
// batch b+1's slowest-rank lookup, each such pair priced with
// NetworkModel::overlapped_seconds — max(comm·(1−f), compute) + comm·f.
// The stats also report the lockstep sum (query exchange + slowest rank's
// device time + answer exchange, per batch) and the saving against it. A
// one-batch call has nothing to overlap: its price is the lockstep sum,
// bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dedukt/gpusim/device.hpp"
#include "dedukt/mpisim/network_model.hpp"
#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/store/query.hpp"
#include "dedukt/store/store.hpp"

namespace dedukt::store {

struct DistributedQueryConfig {
  /// Simulated serving ranks; shard i lives on rank i mod ranks. 1 is the
  /// degenerate tier: no off-rank traffic, device charges bit-identical to
  /// a single-rank QueryEngine fed the same batches.
  int ranks = 2;
  /// Per-rank hot-shard cache budget (QueryEngineConfig::cache_shards).
  std::uint32_t cache_shards = 0;
  std::uint32_t histogram_bins = 256;
  /// Per-rank frequency-aware admission (QueryEngineConfig::freq_admission).
  bool freq_admission = false;
  mpisim::NetworkModel network = mpisim::NetworkModel::summit();
};

/// Cumulative accounting across the tier's lifetime. Counters aggregate
/// over ranks; the seconds follow the serve-time model above (per-batch
/// maxima across ranks, not sums), so queries/serve_seconds is an honest
/// aggregate QPS.
struct DistributedQueryStats {
  std::uint64_t batches = 0;
  std::uint64_t queries = 0;
  std::uint64_t found = 0;       ///< point lookups that hit a stored key
  /// Duplicate keys removed by frontend dedup before routing — strictly
  /// fewer routed bytes and kernel probes than forwarding the raw batch.
  std::uint64_t dedup_saved = 0;
  /// Distinct keys routed to owners (including rank-local delivery).
  std::uint64_t routed_queries = 0;
  /// Off-rank payload bytes over the simulated NIC, all ranks, both
  /// exchanges (queries out + answers back).
  std::uint64_t nic_bytes = 0;
  double exchange_seconds = 0.0;  ///< modeled query + answer exchange time
  double lookup_seconds = 0.0;    ///< sum of per-batch max-rank device time
  /// End-to-end modeled serve time (the QPS denominator): the pipelined
  /// schedule of each call's batches.
  double serve_seconds = 0.0;
  /// What the same batches would cost without pipelining. Equal to
  /// serve_seconds for one-batch calls.
  double lockstep_seconds = 0.0;
  /// lockstep_seconds - serve_seconds; > 0 whenever an overlapped pair
  /// had both nonzero exchange and nonzero compute, 0 for one-batch calls.
  double overlap_saved_seconds = 0.0;
};

class DistributedQueryEngine {
 public:
  DistributedQueryEngine(const KmerStore& store,
                         DistributedQueryConfig config = {});

  /// Owner rank of `shard` in a P-rank tier.
  [[nodiscard]] static int owner_of(std::uint32_t shard, int ranks) {
    return static_cast<int>(shard % static_cast<std::uint32_t>(ranks));
  }

  /// Shards resident on `rank`, ascending.
  [[nodiscard]] std::vector<std::uint32_t> owned_shards(int rank) const;

  /// Batched point lookup: out[i] = stored count of keys[i], 0 if absent.
  /// One batch == one scatter/gather round trip.
  [[nodiscard]] std::vector<std::uint64_t> lookup(
      std::span<const std::uint64_t> keys);

  /// Serve a sequence of batches in one simulated session — the unit the
  /// pipelined price overlaps across. Returns per-batch answers.
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> lookup_batches(
      const std::vector<std::vector<std::uint64_t>>& batches);

  /// Batched membership: out[i] = 1 if keys[i] is stored, else 0.
  [[nodiscard]] std::vector<std::uint8_t> contains(
      std::span<const std::uint64_t> keys);

  /// Count histogram over the whole store: each rank scans its resident
  /// shards (QueryEngine::histogram_shards), partials merge with a summed
  /// allreduce — bit-identical to a single-rank histogram() for any P.
  [[nodiscard]] std::vector<std::uint64_t> histogram();

  [[nodiscard]] int ranks() const { return config_.ranks; }
  [[nodiscard]] const DistributedQueryStats& stats() const { return stats_; }
  /// Rank r's own engine ledger (cache hits/misses, staged bytes, ...).
  [[nodiscard]] const QueryStats& rank_stats(int rank) const;

 private:
  /// Shared scatter/gather drive for lookup/contains. `membership` picks
  /// the member kernel and 0/1 answers; otherwise counts.
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> run_batches(
      const std::vector<std::vector<std::uint64_t>>& batches,
      bool membership);

  const KmerStore& store_;
  DistributedQueryConfig config_;
  mpisim::Runtime runtime_;
  /// One simulated GPU + engine per rank, owned for the tier's lifetime so
  /// cache residency persists across batches and calls. engines_[r] is
  /// only ever touched by rank r's thread.
  std::vector<std::unique_ptr<gpusim::Device>> devices_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  DistributedQueryStats stats_;
};

}  // namespace dedukt::store
