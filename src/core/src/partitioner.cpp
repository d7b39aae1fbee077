#include "dedukt/core/partitioner.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "dedukt/core/summit.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

MinimizerAssignment::MinimizerAssignment(
    std::vector<std::uint32_t> bucket_to_rank, std::uint32_t nranks)
    : bucket_to_rank_(std::move(bucket_to_rank)) {
  DEDUKT_REQUIRE(!bucket_to_rank_.empty());
  for (const std::uint32_t rank : bucket_to_rank_) {
    DEDUKT_REQUIRE_MSG(rank < nranks, "bucket assigned to rank " << rank
                                          << " >= " << nranks);
  }
}

std::vector<std::uint32_t> lpt_assign(
    const std::vector<std::uint64_t>& bucket_weights, std::uint32_t nranks) {
  DEDUKT_REQUIRE(nranks >= 1);
  DEDUKT_REQUIRE(!bucket_weights.empty());

  // Longest processing time first: sort buckets by weight descending and
  // repeatedly give the heaviest remaining bucket to the least-loaded rank.
  std::vector<std::uint32_t> order(bucket_weights.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return bucket_weights[a] > bucket_weights[b];
            });

  using Load = std::pair<std::uint64_t, std::uint32_t>;  // (load, rank)
  std::priority_queue<Load, std::vector<Load>, std::greater<>> ranks;
  for (std::uint32_t r = 0; r < nranks; ++r) ranks.emplace(0, r);

  std::vector<std::uint32_t> assignment(bucket_weights.size());
  for (const std::uint32_t bucket : order) {
    auto [load, rank] = ranks.top();
    ranks.pop();
    assignment[bucket] = rank;
    ranks.emplace(load + bucket_weights[bucket], rank);
  }
  return assignment;
}

MinimizerAssignment MinimizerAssignment::build(
    mpisim::Comm& comm, const io::ReadBatch& reads,
    const kmer::SupermerConfig& config, int sample_stride) {
  config.validate();
  DEDUKT_REQUIRE(sample_stride >= 1);
  const auto nranks = static_cast<std::uint32_t>(comm.size());
  const std::uint32_t nbuckets = kBucketsPerRank * nranks;
  const kmer::MinimizerPolicy policy = config.policy();
  const io::BaseEncoding enc = policy.encoding();

  // A temporary hash-only table just to reuse bucket_of().
  MinimizerAssignment hashing(std::vector<std::uint32_t>(nbuckets, 0), 1);

  // 1. Sample local reads: per-bucket k-mer weights, each k-mer's
  // minimizer from one sliding scan per fragment.
  std::vector<std::uint64_t> weights(nbuckets, 0);
  kmer::SlidingMinimizer sliding(policy, config.k);
  for (std::size_t i = 0; i < reads.reads.size();
       i += static_cast<std::size_t>(sample_stride)) {
    for (std::string_view fragment :
         kmer::acgt_fragments(reads.reads[i].bases)) {
      sliding.reset();
      kmer::for_each_kmer(fragment, config.k, enc, [&](kmer::KmerCode code) {
        ++weights[hashing.bucket_of(sliding.push(code))];
      });
    }
  }

  // 2. Reduce the weight vectors at rank 0.
  const auto gathered = comm.gatherv(weights, /*root=*/0);
  std::vector<std::uint32_t> table;
  if (comm.rank() == 0) {
    std::vector<std::uint64_t> total(nbuckets, 0);
    for (const auto& part : gathered) {
      DEDUKT_CHECK(part.size() == nbuckets);
      for (std::uint32_t b = 0; b < nbuckets; ++b) total[b] += part[b];
    }
    // Unseen buckets still need owners; give them weight 1 so LPT spreads
    // them around instead of piling them on one rank.
    for (auto& w : total) {
      if (w == 0) w = 1;
    }
    table = lpt_assign(total, nranks);
  }

  // 3. Broadcast the assignment.
  table = comm.bcast_vector(table, /*root=*/0);
  return MinimizerAssignment(std::move(table), nranks);
}

SampledAssignment sample_assignment(mpisim::Comm& comm,
                                    const io::ReadBatch& reads,
                                    const PipelineConfig& config) {
  constexpr int kSampleStride = 4;
  const mpisim::CommCapture capture(comm);
  MinimizerAssignment assignment = MinimizerAssignment::build(
      comm, reads, config.supermer_config(), kSampleStride);
  // Sampling touches 1/stride of the k-mers at the supermer parse rate.
  const double sampling =
      static_cast<double>(reads.total_bases()) / kSampleStride /
      (summit::kGpuParseKmersPerSec / summit::kSupermerParseOverhead);
  return {std::move(assignment), sampling + capture.modeled_seconds(),
          sampling + capture.modeled_volume_seconds()};
}

}  // namespace dedukt::core
