// The parse, exchange and count phases of the three exact pipelines
// (PARSEKMER, EXCHANGEKMER and COUNTKMER of Fig. 1): each kind's parse and
// count written once, and one exchange phase for every wire.
//
// Internal to dedukt_core. Each pipeline's rounds call these, and so does
// the out-of-core count (ooc.cpp): pass 1 runs the pipeline's own parse
// phase, §VII routing setup included, and spills its per-destination
// runs; pass 2 runs each reloaded spill bin through the exchange phase and
// the pipeline's count phase. A spilled batch is parsed, and a replayed
// bin exchanged and counted, and each charged, exactly like an in-memory
// round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
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
#include "dedukt/util/error.hpp"

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

// --- the exchange phase ---

/// One exchange's payload: each destination's run of wire items and, on
/// the supermer and consolidated-pair wires, a second run of one value per
/// item: the supermer lengths (§IV-C's "extra buffer") or the pair counts.
/// `second` is empty on the k-mer wires.
template <typename Item, typename Second = std::uint8_t>
struct Outgoing {
  std::vector<std::vector<Item>> items;
  std::vector<std::vector<Second>> second = {};
  /// Device bytes the parse reserved for the outgoing buffers the runs
  /// stand for; 0 when they stand for none (the CPU pipelines' buckets,
  /// consolidated pairs, a reloaded spill bin).
  std::uint64_t reserved = 0;
};

/// What an exchange phase delivered: `items` wire items that hold `kmers`
/// k-mer occurrences. A host-only exchange leaves them in `host`; on a
/// device, the device took them as `d_items` and, with a second run,
/// `d_second`.
template <typename Item, typename Second = std::uint8_t>
struct Received {
  std::vector<Item> host;
  gpusim::DeviceBuffer<Item> d_items;
  gpusim::DeviceBuffer<Second> d_second;
  std::uint64_t items = 0;
  std::uint64_t kmers = 0;
};

/// The exchange phase (§III-B2) of every exact round and of out-of-core
/// pass 2's bin replay; `device` is null for the host-only CPU pipelines.
///
/// Runs that stand for a parse's outgoing buffers first leave the device:
/// the D2H of the items and then of the second run is priced when the
/// exchange is staged (GPUDirect hands the wire the device buffers), and
/// the parse's reservation is released. One Alltoallv per run follows,
/// each destination's run read in place. On a device, the device adopts
/// what arrived (Device::adopt; priced as an H2D copy when staged), so the
/// one copy made is the receive itself. The phase commits the exact
/// bytes, the Alltoallv routines' seconds alone (Fig. 8's metric), and
/// its charge: the routines, plus on a device the staging copies and
/// kGpuExchangeOverheadSec. The runs are freed when the phase ends.
template <typename Item, typename Second>
Received<Item, Second> exchange_phase(mpisim::Comm& comm,
                                      gpusim::Device* device,
                                      const PipelineConfig& config,
                                      Outgoing<Item, Second>&& outgoing,
                                      RankMetrics& metrics) {
  const bool staged =
      device != nullptr && config.exchange == ExchangeMode::kStaged;
  PhaseScope phase(metrics, kPhaseExchange);
  const mpisim::CommCapture routines(comm);
  std::optional<gpusim::DeviceCapture> staging;
  if (staged) staging.emplace(*device);
  const Outgoing<Item, Second> runs = std::move(outgoing);
  const bool paired = !runs.second.empty();

  if (runs.reserved > 0) {
    DEDUKT_CHECK_MSG(device != nullptr, "a parse reservation needs a device");
    if (staged) {
      std::uint64_t total = 0;
      for (const std::vector<Item>& run : runs.items) total += run.size();
      device->price_transfer(gpusim::Device::Link::kToHost,
                             total * sizeof(Item));
      if (paired) {
        device->price_transfer(gpusim::Device::Link::kToHost,
                               total * sizeof(Second));
      }
    }
    device->release(runs.reserved);
  }

  Received<Item, Second> received;
  mpisim::AlltoallvResult<Item> items = comm.alltoallv(runs.items);
  mpisim::AlltoallvResult<Second> second;
  received.items = items.data.size();
  received.kmers = received.items;
  if (paired) {
    second = comm.alltoallv(runs.second);
    DEDUKT_CHECK(second.data.size() == received.items);
    // A supermer of len bases holds len - k + 1 k-mers; a consolidated
    // pair stands for its count of occurrences.
    received.kmers = 0;
    for (const Second value : second.data) {
      if constexpr (std::is_same_v<Second, std::uint8_t>) {
        received.kmers += static_cast<std::uint64_t>(value) -
                          static_cast<std::uint64_t>(config.k) + 1;
      } else {
        received.kmers += value;
      }
    }
  }

  // What arrived becomes the device buffers; the tallies above read it
  // on the host first.
  const auto stage_in = [&]<typename T>(std::vector<T>&& data) {
    const std::uint64_t bytes = data.size() * sizeof(T);
    gpusim::DeviceBuffer<T> buffer = device->adopt(std::move(data));
    if (staged) {
      device->price_transfer(gpusim::Device::Link::kToDevice, bytes);
    }
    return buffer;
  };
  if (device == nullptr) {
    received.host = std::move(items.data);
  } else {
    received.d_items = stage_in(std::move(items.data));
    if (paired) received.d_second = stage_in(std::move(second.data));
  }

  metrics.bytes_sent = routines.bytes_sent();
  metrics.bytes_received = routines.bytes_received();
  metrics.modeled_alltoallv_seconds = routines.modeled_seconds();
  metrics.modeled_alltoallv_volume_seconds = routines.modeled_volume_seconds();
  const double overhead =
      device != nullptr ? summit::kGpuExchangeOverheadSec : 0.0;
  phase.set_charge(
      routines.modeled_seconds() +
          (staging ? staging->modeled_seconds() : 0.0) + overhead,
      routines.modeled_volume_seconds() +
          (staging ? staging->modeled_volume_seconds() : 0.0));
  return received;
}

// --- count phases ---

/// CPU baseline (Algorithm 1 lines 10-15): fold the received keys into the
/// local partition of the global hash table.
template <typename KeyTraits>
void count_cpu(const Received<typename KeyTraits::Key>& received,
               BasicHostHashTable<KeyTraits>& local_table,
               RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseCount);
  local_table.add_all([&](auto& add) {
    for (const auto& key : received.host) add(key, 1);
  });
  metrics.kmers_received = received.kmers;
  phase.set_uniform_charge(static_cast<double>(metrics.kmers_received) /
                           summit::kCpuCountKmersPerSec);
}

/// GPU k-mer pipeline (§III-B3): count the received k-mers in a device
/// hash table and merge it into `local_table`. Frees the device buffer.
void count_gpu_kmers(gpusim::Device& device, const PipelineConfig& config,
                     Received<std::uint64_t>& received,
                     HostHashTable& local_table, RankMetrics& metrics);

/// GPU supermer pipeline (§IV): extract the k-mers of the received
/// supermers from their packed words and length bytes on the device, count
/// them, and merge into `local_table`. Frees the device buffers. Word is
/// the supermer packing: std::uint64_t or kmer::WideKey.
template <typename Word>
void count_gpu_supermers(gpusim::Device& device, const PipelineConfig& config,
                         Received<Word>& received, HostHashTable& local_table,
                         RankMetrics& metrics);

}  // namespace dedukt::core::detail
