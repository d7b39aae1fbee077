// Frequency-balanced minimizer partitioning — the paper's §VII future-work
// item ("devise a better partitioning algorithm that maintains the locality
// and at the same time partitions data evenly"), implemented as an
// extension.
//
// Plain minimizer-hash routing preserves locality (all occurrences of a
// k-mer land on one rank) but inherits the skew of the minimizer frequency
// distribution (Table III: up to 2.37 imbalance). This partitioner keeps
// the locality guarantee and rebalances:
//
//  1. minimizers are hashed into B buckets (B >> P), so the assignment
//     table stays small and any minimizer — seen or unseen — maps to a
//     bucket;
//  2. each rank samples its local reads and accumulates per-bucket k-mer
//     weights;
//  3. weights are reduced at rank 0, buckets are assigned to ranks by
//     longest-processing-time (LPT) greedy bin packing, and the
//     bucket→rank table is broadcast.
//
// All communication goes through the Comm, so its cost shows up in the
// modeled times like any other collective.
#pragma once

#include <cstdint>
#include <vector>

#include "dedukt/core/config.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/mpisim/comm.hpp"

namespace dedukt::core {
// The strategy enum lives in config.hpp as PartitionScheme.

/// A minimizer→rank assignment table, identical on every rank.
class MinimizerAssignment {
 public:
  /// Buckets per rank in the assignment table. More buckets = finer
  /// balancing at the cost of a larger broadcast.
  static constexpr std::uint32_t kBucketsPerRank = 64;

  /// Collectively build the assignment from each rank's local reads.
  /// `sample_stride` controls sampling (1 = every read, 4 = every 4th...).
  [[nodiscard]] static MinimizerAssignment build(
      mpisim::Comm& comm, io::ReadView reads,
      const kmer::SupermerConfig& config, int sample_stride = 4);

  /// Identity-free constructor for tests: explicit bucket table.
  MinimizerAssignment(std::vector<std::uint32_t> bucket_to_rank,
                      std::uint32_t nranks);

  /// Destination rank of a minimizer code.
  [[nodiscard]] std::uint32_t rank_of(kmer::KmerCode minimizer) const {
    return bucket_to_rank_[bucket_of(minimizer)];
  }

  /// Bucket index of a minimizer (stable hash, independent of P).
  [[nodiscard]] std::uint32_t bucket_of(kmer::KmerCode minimizer) const {
    return hash::to_partition(
        hash::hash_u64(minimizer, kmer::kDestinationHashSeed),
        static_cast<std::uint32_t>(bucket_to_rank_.size()));
  }

  [[nodiscard]] std::uint32_t buckets() const {
    return static_cast<std::uint32_t>(bucket_to_rank_.size());
  }
  [[nodiscard]] const std::vector<std::uint32_t>& table() const {
    return bucket_to_rank_;
  }

 private:
  std::vector<std::uint32_t> bucket_to_rank_;
};

/// A job's assignment as its first round samples it, with the modeled
/// charge of the sampling: 1/4 of the reads' bases at the supermer parse
/// rate, plus the collectives that build the table.
struct SampledAssignment {
  MinimizerAssignment assignment;
  double modeled_seconds = 0.0;
  double modeled_volume_seconds = 0.0;
};

/// Collectively sample the frequency-balanced assignment from each rank's
/// `reads`. The in-memory and out-of-core drivers both call this once per
/// job, on the first batch, and reuse the table for every later batch.
[[nodiscard]] SampledAssignment sample_assignment(
    mpisim::Comm& comm, io::ReadView reads,
    const PipelineConfig& config);

/// LPT assignment of weighted buckets to `nranks` ranks (exposed for unit
/// testing): returns bucket→rank with approximately equal summed weights.
[[nodiscard]] std::vector<std::uint32_t> lpt_assign(
    const std::vector<std::uint64_t>& bucket_weights, std::uint32_t nranks);

}  // namespace dedukt::core
