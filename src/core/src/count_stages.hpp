// The count phases of the three exact pipelines (COUNTKMER of Fig. 1),
// and the device k-mer parse the gpu-kmer rounds and the sketch share.
//
// Internal to dedukt_core: each pipeline's rounds call these, and the
// out-of-core pass 2 (ooc.cpp) calls them after exchanging one spill bin,
// so a replayed bin is counted and charged exactly like an in-memory round.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dedukt/core/config.hpp"
#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/core/phase_scope.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/mpisim/comm.hpp"

namespace dedukt::core::detail {

/// The k-mer parse's device-resident output: per-destination counts and
/// offsets and the packed k-mers awaiting the exchange.
struct ParsedKmers {
  std::vector<std::uint32_t> counts;
  std::vector<std::uint64_t> offsets;
  gpusim::DeviceBuffer<std::uint64_t> d_out;
  std::uint64_t total = 0;
};

/// Stage `reads` on the device and run the two k-mer parse launches
/// (§III-B1) into `parts` destinations; with one, the k-mers stay in input
/// order. The callers open the parse phase and state its charge.
ParsedKmers parse_device_kmers(gpusim::Device& device, io::ReadView reads,
                               const PipelineConfig& config,
                               std::uint32_t parts);

/// CPU baseline (Algorithm 1 lines 10-15): fold the received keys into the
/// local partition of the global hash table.
template <typename KeyTraits>
void count_cpu(
    const mpisim::AlltoallvResult<typename KeyTraits::Key>& received,
    BasicHostHashTable<KeyTraits>& local_table, RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseCount);
  for (const auto& key : received.data) {
    local_table.add(key);
  }
  metrics.kmers_received = received.data.size();
  phase.set_uniform_charge(static_cast<double>(metrics.kmers_received) /
                           summit::kCpuCountKmersPerSec);
}

/// GPU k-mer pipeline (§III-B3): count the `kmers` received k-mers that
/// `d_recv` holds in a device hash table and merge it into `local_table`.
/// Frees `d_recv`.
void count_gpu_kmers(gpusim::Device& device, const PipelineConfig& config,
                     gpusim::DeviceBuffer<std::uint64_t>& d_recv,
                     std::uint64_t kmers, HostHashTable& local_table,
                     RankMetrics& metrics);

/// The k-mers a run of supermers of lengths `lens` holds.
[[nodiscard]] std::uint64_t supermer_kmers(std::span<const std::uint8_t> lens,
                                           int k);

/// GPU supermer pipeline (§IV): extract the k-mers of the `supermers`
/// received supermers, `kmers` in all, from their packed words and length
/// bytes on the device, count them, and merge into `local_table`. Frees
/// the device buffers. Word is the supermer packing: std::uint64_t or
/// kmer::WideKey.
template <typename Word>
void count_gpu_supermers(gpusim::Device& device, const PipelineConfig& config,
                         gpusim::DeviceBuffer<Word>& d_recv_words,
                         gpusim::DeviceBuffer<std::uint8_t>& d_recv_lens,
                         std::uint64_t supermers, std::uint64_t kmers,
                         HostHashTable& local_table, RankMetrics& metrics);

}  // namespace dedukt::core::detail
