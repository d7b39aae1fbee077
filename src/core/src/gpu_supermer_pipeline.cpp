// GPU pipeline with supermers on the wire (§IV).
//
// parse & process: one thread per window builds supermers in private
// registers (Algorithm 2); supermers are routed by minimizer hash so every
// occurrence of a k-mer reaches the same rank. exchange: two Alltoallv's —
// packed supermer words and per-supermer length bytes (§IV-C: "an extra
// buffer is also maintained to store the length of each supermer").
// count: the destination extracts each supermer's k-mers and counts them in
// the device hash table.
#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "count_stages.hpp"
#include "dedukt/core/bloom_filter.hpp"
#include "dedukt/core/device_hash_table.hpp"
#include "dedukt/core/kernels.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/trace/trace.hpp"

namespace dedukt::core {

namespace detail {

/// Count phase: extract k-mers from received supermers and count. Shared
/// verbatim by the in-memory rounds and the out-of-core replay.
template <typename Word>
void count_gpu_supermers(gpusim::Device& device, const PipelineConfig& config,
                         Received<Word>& received, HostHashTable& local_table,
                         RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseCount, device);

  metrics.supermers_received = received.items;
  DeviceHashTable table(device, received.kmers);
  std::optional<DeviceBloomFilter> bloom;
  if (config.filter_singletons) bloom.emplace(device, received.kmers);
  table.count_supermers(received.d_items, received.d_second, received.items,
                        config.k, bloom ? &*bloom : nullptr);
  device.free(received.d_items);
  device.free(received.d_second);
  std::move(table).read_out(local_table);

  metrics.kmers_received = received.kmers;
  // Counting from supermers costs ~27% over direct counting (§V-C).
  phase.set_device_floor_charge(
      static_cast<double>(metrics.kmers_received) /
          (summit::kGpuCountKmersPerSec / summit::kSupermerCountOverhead),
      summit::kGpuCountOverheadSec);
}

template void count_gpu_supermers<std::uint64_t>(
    gpusim::Device&, const PipelineConfig&, Received<std::uint64_t>&,
    HostHashTable&, RankMetrics&);
template void count_gpu_supermers<kmer::WideKey>(
    gpusim::Device&, const PipelineConfig&, Received<kmer::WideKey>&,
    HostHashTable&, RankMetrics&);

SupermerRouting route_supermers(mpisim::Comm& comm, gpusim::Device& device,
                                io::ReadView reads,
                                const PipelineConfig& config,
                                std::optional<MinimizerAssignment>& assignment,
                                RankMetrics& metrics) {
  // §VII extension: the frequency-balanced routing table is sampled once
  // per job, from the first round — per-round tables would route the same
  // k-mer to different ranks in different rounds and break table locality.
  // The sampling work and collectives, and each round's copy of the table
  // to its device, are charged to the parse phase. The launches read the
  // host table in place; its device copy is priced and held for the
  // round.
  SupermerRouting routing;
  if (config.partition == PartitionScheme::kMinimizerHash) return routing;
  PhaseScope phase(metrics, kPhaseParse, device);
  double sample_seconds = 0.0;
  double sample_volume = 0.0;
  if (!assignment) {
    SampledAssignment sample = sample_assignment(comm, reads, config);
    assignment.emplace(std::move(sample.assignment));
    sample_seconds = sample.modeled_seconds;
    sample_volume = sample.modeled_volume_seconds;
  }
  routing.table = &*assignment;
  routing.reserved =
      sizeof(std::uint32_t) * std::uint64_t{routing.table->buckets()};
  device.reserve(routing.reserved);
  device.price_transfer(gpusim::Device::Link::kToDevice, routing.reserved);
  phase.set_charge(sample_seconds + phase.device().modeled_seconds(),
                   sample_volume + phase.device().modeled_volume_seconds());
  return routing;
}

template <typename Word>
ParsedSupermers<Word> parse_gpu_supermers(gpusim::Device& device,
                                          io::ReadView reads,
                                          const PipelineConfig& config,
                                          std::uint32_t parts,
                                          const MinimizerAssignment* routing,
                                          RankMetrics& metrics) {
  const kmer::SupermerConfig smer_config = config.supermer_config();

  ParsedSupermers<Word> parsed;
  PhaseScope phase(metrics, kPhaseParse, device);

  // The staged base array and its window list (§III-B1, §IV-B): priced and
  // held on the device while the launches read the reads in place.
  const kernels::Staging staging =
      kernels::staging_of(reads, config.k, config.window);
  metrics.kmers_parsed = staging.kmers;
  const std::uint64_t window_bytes = staging.windows * kernels::kWindowBytes;
  const std::uint64_t window_reserved =
      std::max<std::uint64_t>(staging.windows, 1) * kernels::kWindowBytes;
  device.reserve(staging.bases);
  device.price_transfer(gpusim::Device::Link::kToDevice, staging.bases);
  device.reserve(window_reserved);
  device.price_transfer(gpusim::Device::Link::kToDevice, window_bytes);

  // The runs are what the fill launch would place.
  metrics.supermers_built = populate_outgoing(
      device, parts, sizeof(Word) + sizeof(std::uint8_t), parsed.reserved,
      [&](gpusim::DeviceBuffer<std::uint32_t>& d_counts) {
        kernels::supermer_count<Word>(device, reads, staging, smer_config,
                                      parts, d_counts, parsed.runs, routing);
      },
      [&](std::uint64_t supermers) {
        kernels::supermer_fill<Word>(device, staging, smer_config, supermers,
                                     routing);
      });
  device.release(staging.bases);
  device.release(window_reserved);

  // Total supermer payload bases (§IV-C compression metric), summed from
  // the length runs on the host — never element-by-element from device
  // memory.
  for (const auto& lens : parsed.runs.lens) {
    for (const std::uint8_t len : lens) metrics.supermer_bases += len;
  }
  // Supermer construction costs ~33% over plain k-mer parsing (§V-C).
  phase.set_device_floor_charge(
      static_cast<double>(metrics.kmers_parsed) /
          (summit::kGpuParseKmersPerSec / summit::kSupermerParseOverhead),
      summit::kGpuParseOverheadSec);
  return parsed;
}

template ParsedSupermers<std::uint64_t> parse_gpu_supermers<std::uint64_t>(
    gpusim::Device&, io::ReadView, const PipelineConfig&, std::uint32_t,
    const MinimizerAssignment*, RankMetrics&);
template ParsedSupermers<kmer::WideKey> parse_gpu_supermers<kmer::WideKey>(
    gpusim::Device&, io::ReadView, const PipelineConfig&, std::uint32_t,
    const MinimizerAssignment*, RankMetrics&);

}  // namespace detail

namespace {

/// Parse, exchange and count one round with supermers packed in Word,
/// adding to `metrics` (which may already hold the routing setup's parse
/// charge).
template <typename Word>
void run_supermer_round(mpisim::Comm& comm, gpusim::Device& device,
                        io::ReadView reads,
                        const PipelineConfig& config,
                        HostHashTable& local_table,
                        const MinimizerAssignment* routing,
                        RankMetrics& metrics) {
  const auto parts = static_cast<std::uint32_t>(comm.size());

  metrics.reads = reads.size();
  metrics.bases = reads.total_bases();

  detail::ParsedSupermers<Word> parsed = detail::parse_gpu_supermers<Word>(
      device, reads, config, parts, routing, metrics);
  // The count launch's runs are the per-destination slices of the word
  // and length buffers the fill launch placed.
  detail::Received<Word> received = detail::exchange_phase(
      comm, &device, config,
      detail::Outgoing<Word>{std::move(parsed.runs.words),
                             std::move(parsed.runs.lens), parsed.reserved},
      metrics);
  detail::count_gpu_supermers<Word>(device, config, received, local_table,
                                    metrics);
}

}  // namespace

RankMetrics run_gpu_supermer_rank(
    mpisim::Comm& comm, gpusim::Device& device, io::ReadView reads,
    const PipelineConfig& config, HostHashTable& local_table,
    std::optional<MinimizerAssignment>& assignment) {
  config.validate();
  RankMetrics metrics;

  const detail::SupermerRouting routing =
      detail::route_supermers(comm, device, reads, config, assignment, metrics);
  if (config.wide_supermers) {
    run_supermer_round<kmer::WideKey>(comm, device, reads, config,
                                      local_table, routing.table, metrics);
  } else {
    run_supermer_round<std::uint64_t>(comm, device, reads, config,
                                      local_table, routing.table, metrics);
  }
  device.release(routing.reserved);
  metrics.unique_kmers = local_table.unique();
  metrics.counted_kmers = local_table.total();
  return metrics;
}

}  // namespace dedukt::core
