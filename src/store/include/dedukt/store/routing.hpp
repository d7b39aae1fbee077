// Shard routing for the persistent k-mer store.
//
// A store is sharded exactly the way the counting run that produced it was
// partitioned: shard i holds what rank i's table held. Reproducing the
// pipeline's routing lets the query side send each key to the one shard
// that can contain it — the same locality argument the paper makes for
// minimizer-based exchange, replayed at serving time. Three modes mirror
// the three pipeline routings:
//
//  * kKmerHash      — hash(whole k-mer) mod shards; the CPU and GPU k-mer
//                     pipelines (Algorithm 1 line 5).
//  * kMinimizerHash — hash(minimizer(k-mer)) mod shards; the supermer
//                     pipeline under PartitionScheme::kMinimizerHash.
//  * kAssignmentTable — minimizer → bucket → shard through a persisted
//                     bucket table; the frequency-balanced scheme
//                     (MinimizerAssignment's bucket_of, with the
//                     bucket→rank table snapshotted into the manifest).
//
// The routing lives in src/store (not src/core) so the store library has
// no dependency on the pipelines; the table mode persists everything it
// needs to agree bit-for-bit with core::MinimizerAssignment::rank_of.
#pragma once

#include <cstdint>
#include <vector>

#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/minimizer.hpp"

namespace dedukt::store {

/// On-disk routing tag (manifest field; values are part of the format).
enum class RoutingMode : std::uint32_t {
  kKmerHash = 0,
  kMinimizerHash = 1,
  kAssignmentTable = 2,
};

[[nodiscard]] const char* to_string(RoutingMode mode);

/// How keys map to shards. A value type persisted in the manifest.
class StoreRouting {
 public:
  /// Empty routing (0 shards): a placeholder that fails validate();
  /// every usable instance comes from the named factories below.
  StoreRouting() = default;

  /// Whole-k-mer hash routing (the k-mer pipelines).
  [[nodiscard]] static StoreRouting kmer_hash(std::uint32_t shards, int k);

  /// Minimizer-hash routing (the supermer pipeline's default scheme).
  [[nodiscard]] static StoreRouting minimizer_hash(std::uint32_t shards,
                                                   int k, int m,
                                                   kmer::MinimizerOrder order);

  /// Bucket-table routing (the frequency-balanced scheme).
  /// `bucket_to_shard` is MinimizerAssignment's bucket→rank table; every
  /// entry must be < shards.
  [[nodiscard]] static StoreRouting assignment_table(
      std::vector<std::uint32_t> bucket_to_shard, std::uint32_t shards,
      int k, int m, kmer::MinimizerOrder order);

  [[nodiscard]] RoutingMode mode() const { return mode_; }
  [[nodiscard]] std::uint32_t shards() const { return shards_; }
  [[nodiscard]] int k() const { return k_; }
  /// Minimizer length; 0 in kKmerHash mode (no minimizers involved).
  [[nodiscard]] int m() const { return m_; }
  [[nodiscard]] kmer::MinimizerOrder order() const { return order_; }
  [[nodiscard]] const std::vector<std::uint32_t>& bucket_table() const {
    return bucket_to_shard_;
  }

  /// Destination shard of a packed k-mer key. Bit-identical to the rank
  /// the counting pipeline sent this k-mer to.
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t key) const;

  /// Format-level sanity (shard count, mode/table consistency, k/m
  /// ranges); throws PreconditionError. Used by the manifest reader.
  void validate() const;

 private:
  RoutingMode mode_ = RoutingMode::kKmerHash;
  std::uint32_t shards_ = 0;
  int k_ = 0;
  int m_ = 0;
  kmer::MinimizerOrder order_ = kmer::MinimizerOrder::kRandomized;
  std::vector<std::uint32_t> bucket_to_shard_;
};

}  // namespace dedukt::store
