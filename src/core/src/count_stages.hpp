// The parse and count phases of the three exact pipelines (PARSEKMER and
// COUNTKMER of Fig. 1), each kind's written once.
//
// Internal to dedukt_core. Each pipeline's rounds call these, and so does
// the out-of-core count (ooc.cpp): pass 1 runs the pipeline's own parse
// phase, §VII routing setup included, and spills its per-destination
// runs; pass 2 calls the count phase after exchanging one spill bin. A
// spilled batch is parsed, and a replayed bin counted, and each charged,
// exactly like an in-memory round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "dedukt/core/config.hpp"
#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/core/kernels.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/phase_scope.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/mpisim/comm.hpp"

namespace dedukt::core::detail {

// --- parse phases ---

/// The two-phase population of a GPU parse's outgoing buffers, priced and
/// held as the device runs it: `count(d_counts)` runs the count launch
/// into `parts` zeroed destination counters, which are copied to the host;
/// `fill(total)` then runs the fill launch beside its offsets (copied to
/// the device) and zeroed cursors, and the outgoing buffers of `total`
/// items of `item_bytes` it fills. Those stay reserved, `reserved` bytes,
/// until the exchange stages them out. Returns `total`.
template <typename Count, typename Fill>
std::uint64_t populate_outgoing(gpusim::Device& device, std::uint32_t parts,
                                std::uint64_t item_bytes,
                                std::uint64_t& reserved, Count&& count,
                                Fill&& fill) {
  auto d_counts = device.alloc<std::uint32_t>(parts, 0u);
  count(d_counts);
  std::vector<std::uint32_t> counts(parts);
  device.copy_to_host(d_counts, std::span<std::uint32_t>(counts));
  std::uint64_t total = 0;
  for (const std::uint32_t n : counts) total += n;

  const std::uint64_t offsets_bytes = sizeof(std::uint64_t) * parts;
  const std::uint64_t cursors_bytes = sizeof(std::uint32_t) * parts;
  device.reserve(offsets_bytes + cursors_bytes);
  device.price_transfer(gpusim::Device::Link::kToDevice, offsets_bytes);
  reserved = std::max<std::uint64_t>(total, 1) * item_bytes;
  device.reserve(reserved);
  fill(total);
  device.free(d_counts);
  device.release(offsets_bytes + cursors_bytes);
  return total;
}

/// CPU baseline PARSEKMER (Algorithm 1, one full parse phase): extract
/// k-mers and bucket them by destination processor.
template <typename KeyTraits>
std::vector<std::vector<typename KeyTraits::Key>> parse_cpu(
    io::ReadView reads, const PipelineConfig& config, std::uint32_t parts,
    RankMetrics& metrics) {
  const io::BaseEncoding enc = config.encoding();
  std::vector<std::vector<typename KeyTraits::Key>> outgoing(parts);
  PhaseScope phase(metrics, kPhaseParse);
  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      KeyTraits::for_each_routed(
          fragment, config.k, config.canonical, enc, parts,
          [&](std::uint32_t dest, const typename KeyTraits::Key& key) {
            outgoing[dest].push_back(key);
            ++metrics.kmers_parsed;
          });
    }
  }
  phase.set_uniform_charge(static_cast<double>(metrics.bases) /
                           summit::kCpuParseBasesPerSec);
  return outgoing;
}

/// The k-mer parse's output awaiting the exchange: the count launch's
/// runs, which stand for the outgoing buffer the fill launch places on the
/// device.
struct ParsedKmers {
  kernels::KmerRuns runs;
  std::uint64_t total = 0;
  /// Device bytes reserved for the outgoing buffer until the exchange
  /// stages it out (or the sketch adopts its one run).
  std::uint64_t reserved = 0;
};

/// GPU k-mer parse & process (§III-B1, one full parse phase): stage
/// `reads` on the device and run the two k-mer parse launches into
/// `parts` destinations; with one, the k-mers stay in input order.
ParsedKmers parse_gpu_kmers(gpusim::Device& device, io::ReadView reads,
                            const PipelineConfig& config, std::uint32_t parts,
                            RankMetrics& metrics);

/// The supermer parse's routing table, and the device bytes its copy
/// holds until the round ends.
struct SupermerRouting {
  const MinimizerAssignment* table = nullptr;  ///< null: minimizer hash
  std::uint64_t reserved = 0;
};

/// The §VII routing setup of a supermer round (a parse phase, opened only
/// under frequency-balanced routing): the first round samples the table
/// into `assignment`, which later rounds reuse, and every round prices
/// and holds its copy on the device. The caller releases `reserved` when
/// the round ends.
SupermerRouting route_supermers(mpisim::Comm& comm, gpusim::Device& device,
                                io::ReadView reads,
                                const PipelineConfig& config,
                                std::optional<MinimizerAssignment>& assignment,
                                RankMetrics& metrics);

/// The supermer parse's output awaiting the exchange: the count launch's
/// runs, which stand for the packed supermer word and length buffers the
/// fill launch places on the device.
template <typename Word>
struct ParsedSupermers {
  kernels::SupermerRuns<Word> runs;
  std::uint64_t total_supermers = 0;
  /// Device bytes reserved for the word and length buffers until the
  /// exchange stages them out.
  std::uint64_t reserved = 0;
};

/// GPU supermer parse & process (§IV-B, one full parse phase): build the
/// supermers of `reads` on the device, routed through `routing` (the
/// minimizer hash when null), into `parts` destinations. Word selects the
/// packing: std::uint64_t for the paper's single-word regime,
/// kmer::WideKey for the two-word extension that lifts the window cap of
/// 15.
template <typename Word>
ParsedSupermers<Word> parse_gpu_supermers(gpusim::Device& device,
                                          io::ReadView reads,
                                          const PipelineConfig& config,
                                          std::uint32_t parts,
                                          const MinimizerAssignment* routing,
                                          RankMetrics& metrics);

// --- count phases ---

/// CPU baseline (Algorithm 1 lines 10-15): fold the received keys into the
/// local partition of the global hash table.
template <typename KeyTraits>
void count_cpu(
    const mpisim::AlltoallvResult<typename KeyTraits::Key>& received,
    BasicHostHashTable<KeyTraits>& local_table, RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseCount);
  local_table.add_all([&](auto& add) {
    for (const auto& key : received.data) add(key, 1);
  });
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
