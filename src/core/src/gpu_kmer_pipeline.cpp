// GPU pipeline with k-mers on the wire (§III-B).
//
// parse & process: reads staged on the device as one concatenated base
// array (priced, read in place); one thread per base position parses and
// routes k-mers (two-phase outgoing-buffer population). exchange: staged
// through the CPU (D2H -> MPI_Alltoallv -> H2D) or GPUDirect. count:
// open-addressing device hash table with atomic CAS/add.
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "count_stages.hpp"
#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/core/device_hash_table.hpp"
#include "dedukt/core/kernels.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/trace/trace.hpp"

namespace dedukt::core {

namespace detail {

/// Count phase of the main path: build the k-mer counter on the device.
void count_gpu_kmers(gpusim::Device& device, const PipelineConfig& config,
                     Received<std::uint64_t>& received,
                     HostHashTable& local_table, RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseCount, device);

  DeviceHashTable table(device, received.kmers);
  std::optional<DeviceBloomFilter> bloom;
  if (config.filter_singletons) bloom.emplace(device, received.kmers);
  table.count_kmers(received.d_items, received.kmers,
                    bloom ? &*bloom : nullptr);
  device.free(received.d_items);
  std::move(table).read_out(local_table);

  metrics.kmers_received = received.kmers;
  phase.set_device_floor_charge(
      static_cast<double>(metrics.kmers_received) /
          summit::kGpuCountKmersPerSec,
      summit::kGpuCountOverheadSec);
}

ParsedKmers parse_gpu_kmers(gpusim::Device& device, io::ReadView reads,
                            const PipelineConfig& config, std::uint32_t parts,
                            RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseParse, device);
  ParsedKmers parsed;

  // The staged base array (§III-B1): priced and held on the device while
  // the launches read the reads in place.
  const kernels::Staging staging = kernels::staging_of(reads, config.k);
  device.reserve(staging.bases);
  device.price_transfer(gpusim::Device::Link::kToDevice, staging.bases);

  // The runs are what the fill launch would place.
  parsed.total = populate_outgoing(
      device, parts, sizeof(std::uint64_t), parsed.reserved,
      [&](gpusim::DeviceBuffer<std::uint32_t>& d_counts) {
        kernels::parse_count_kmers(device, reads, staging, config.k,
                                   config.encoding(), parts, d_counts,
                                   parsed.runs);
      },
      [&](std::uint64_t) {
        kernels::parse_fill_kmers(device, staging, config.k);
      });
  device.release(staging.bases);

  metrics.kmers_parsed = parsed.total;
  phase.set_device_floor_charge(
      static_cast<double>(parsed.total) / summit::kGpuParseKmersPerSec,
      summit::kGpuParseOverheadSec);
  return parsed;
}

}  // namespace detail

namespace {

using detail::ParsedKmers;

/// Per-destination (key, count) pairs after source-side consolidation.
using ConsolidatedPairs = detail::Outgoing<std::uint64_t, std::uint32_t>;

/// Source-side consolidation (footnote 1, after Georganas): count locally
/// first and bucket (k-mer, count) pairs per destination. A second parse
/// phase in the ledger.
ConsolidatedPairs consolidate_gpu_kmers(gpusim::Device& device,
                                        ParsedKmers&& parsed,
                                        std::uint32_t parts,
                                        RankMetrics& metrics) {
  ConsolidatedPairs buckets;
  buckets.items.resize(parts);
  buckets.second.resize(parts);
  PhaseScope phase(metrics, kPhaseParse, device);

  // The runs in destination order, the order the outgoing buffer holds
  // them.
  DeviceHashTable local(device, parsed.total);
  local.count_kmers(std::vector<std::span<const std::uint64_t>>(
      parsed.runs.begin(), parsed.runs.end()));
  parsed.runs.clear();
  device.release(parsed.reserved);
  HostHashTable counted;
  std::move(local).read_out(counted);
  counted.for_each([&](std::uint64_t key, std::uint64_t count) {
    const std::uint32_t dest = kmer::kmer_partition(key, parts);
    buckets.items[dest].push_back(key);
    buckets.second[dest].push_back(static_cast<std::uint32_t>(count));
  });
  // Local pre-counting runs at the count rate; no extra launch overhead is
  // charged for the fused pass.
  phase.set_device_floor_charge(
      static_cast<double>(parsed.total) / summit::kGpuCountKmersPerSec,
      /*overhead_seconds=*/0.0);
  return buckets;
}

/// Count phase of the consolidated path: accumulate the received
/// (key, count) pairs into the local partition of the global table.
void count_gpu_pairs(gpusim::Device& device,
                     detail::Received<std::uint64_t, std::uint32_t>& received,
                     HostHashTable& local_table, RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseCount, device);

  DeviceHashTable table(device, received.items);
  table.accumulate_pairs(received.d_items, received.d_second, received.items);
  device.free(received.d_items);
  device.free(received.d_second);
  std::move(table).read_out(local_table);

  metrics.kmers_received = received.kmers;
  // Accumulation touches one pair per locally-distinct k-mer.
  phase.set_device_floor_charge(
      static_cast<double>(received.items) / summit::kGpuCountKmersPerSec,
      summit::kGpuCountOverheadSec);
}

}  // namespace

RankMetrics run_gpu_kmer_rank(mpisim::Comm& comm, gpusim::Device& device,
                              io::ReadView reads,
                              const PipelineConfig& config,
                              HostHashTable& local_table) {
  config.validate();
  const auto parts = static_cast<std::uint32_t>(comm.size());

  RankMetrics metrics;
  metrics.reads = reads.size();
  metrics.bases = reads.total_bases();

  ParsedKmers parsed =
      detail::parse_gpu_kmers(device, reads, config, parts, metrics);

  if (config.source_consolidation) {
    detail::Received<std::uint64_t, std::uint32_t> received =
        detail::exchange_phase(
            comm, &device, config,
            consolidate_gpu_kmers(device, std::move(parsed), parts, metrics),
            metrics);
    count_gpu_pairs(device, received, local_table, metrics);
  } else {
    // The count launch's runs are the per-destination slices of the
    // outgoing buffer the fill launch placed.
    detail::Received<std::uint64_t> received = detail::exchange_phase(
        comm, &device, config,
        detail::Outgoing<std::uint64_t>{.items = std::move(parsed.runs),
                                        .reserved = parsed.reserved},
        metrics);
    detail::count_gpu_kmers(device, config, received, local_table, metrics);
  }

  metrics.unique_kmers = local_table.unique();
  metrics.counted_kmers = local_table.total();
  return metrics;
}

}  // namespace dedukt::core
