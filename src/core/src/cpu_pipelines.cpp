// CPU baseline pipelines — Algorithm 1, the diBELLA-derived counter the
// paper benchmarks against (§III-A, §V-A), in both key widths:
//
//  * narrow: one-word packed k-mers (k <= 31), the paper's regime;
//  * wide: two-word packed k-mers (31 < k <= 63) for long-read analyses —
//    structurally identical, but the wire type is the 16-byte WideKey and
//    the hash is the 128->64 mix, so the exchanged volume per k-mer
//    doubles — exactly the regime where the supermer idea pays off most.
//
// One translation unit, templated on the key traits of host_hash_table.hpp
// (mirroring how the supermer pipeline templates on its packing word); each
// round is the parse -> exchange -> count stage sequence of
// count_stages.hpp.
#include "count_stages.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/core/summit.hpp"

namespace dedukt::core {

namespace {

/// One round of Algorithm 1 (the whole job when it fits in memory).
template <typename KeyTraits>
RankMetrics run_cpu(mpisim::Comm& comm, io::ReadView reads,
                    const PipelineConfig& config,
                    BasicHostHashTable<KeyTraits>& local_table) {
  config.validate();
  const auto parts = static_cast<std::uint32_t>(comm.size());

  RankMetrics metrics;
  metrics.reads = reads.size();
  metrics.bases = reads.total_bases();

  using Key = typename KeyTraits::Key;
  const detail::Received<Key> received = detail::exchange_phase(
      comm, /*device=*/nullptr, config,
      detail::Outgoing<Key>{
          detail::parse_cpu<KeyTraits>(reads, config, parts, metrics)},
      metrics);
  detail::count_cpu(received, local_table, metrics);

  metrics.unique_kmers = local_table.unique();
  metrics.counted_kmers = local_table.total();
  return metrics;
}

}  // namespace

RankMetrics run_cpu_rank(mpisim::Comm& comm, io::ReadView reads,
                         const PipelineConfig& config,
                         HostHashTable& local_table) {
  return run_cpu<NarrowKeyTraits>(comm, reads, config, local_table);
}

RankMetrics run_cpu_wide_rank(mpisim::Comm& comm, io::ReadView reads,
                              const PipelineConfig& config,
                              WideHostHashTable& local_table) {
  return run_cpu<WideKeyTraits>(comm, reads, config, local_table);
}

}  // namespace dedukt::core
