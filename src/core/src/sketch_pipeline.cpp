// Sketch-backend pipeline + driver (ROADMAP item 5).
//
// The exact pipelines route every k-mer occurrence to its owning rank
// before counting; the sketch backend inverts that. Each rank absorbs its
// OWN parsed stream into a local count-min sketch — a fixed-size cell
// array is a mergeable summary, so nothing per-k-mer ever crosses the wire
// — and the run ends with one cell-wise-sum allreduce of O(width * depth)
// bytes, charged to the exchange phase. That turns the exchange cost from
// O(total k-mers) into O(sketch bytes), the whole point of approximate
// counting at scale.
//
// Pipeline kinds: the CPU kind parses on the host and updates the host
// sketch; both GPU kinds run the gpu-kmer pipeline's device parse with
// parts=1 (all k-mers stay device-resident, in the input order the
// order-pinned conservative update relies on — supermers exist only to
// compress the exchange, and there is no exchange here) and run the
// priced device update kernel against the rank's persistent cells
// (H2D-loaded per batch, D2H'd back — honest streaming cost).
//
// Heavy hitters (heavy_threshold > 0): after the merge, a second pass
// re-parses the retained input, point-queries the merged global sketch,
// and keeps EXACT occurrence counts for every candidate key whose estimate
// reaches the threshold. One-sided estimates (estimate >= true count,
// preserved by the sum-merge) make the recall exactly 1; false positives
// are keys whose over-counted estimate cleared the bar. The candidates'
// exact counts gather to rank 0 like the exact backend's tables do. This
// generalizes the Bloom two-pass machinery: the sketch is the first-pass
// filter, the exact table exists only for survivors. A single-batch run's
// second pass reads each rank's view of the input in place; a streamed run
// retains a copy of each rank's reads for it (the bounded-memory claim
// holds only for pure sketching; the footprint test runs without a
// threshold).
#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "count_stages.hpp"
#include "dedukt/core/driver.hpp"
#include "dedukt/core/phase_scope.hpp"
#include "dedukt/core/sketch.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"
#include "engine.hpp"

namespace dedukt::core {

namespace {

SketchParams params_from(const PipelineConfig& config) {
  SketchParams params;
  params.width = config.sketch_width;
  params.depth = config.sketch_depth;
  params.conservative = config.sketch_conservative;
  return params;
}

/// Host parse of one batch: every k-mer key, in read order (the order the
/// conservative discipline is defined over).
std::vector<std::uint64_t> parse_host_keys(io::ReadView reads,
                                           const PipelineConfig& config) {
  const io::BaseEncoding enc = config.encoding();
  std::vector<std::uint64_t> keys;
  keys.reserve(reads.total_kmers(config.k));
  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      kmer::for_each_kmer(fragment, config.k, enc, [&](kmer::KmerCode code) {
        if (config.canonical) code = kmer::canonical(code, config.k, enc);
        keys.push_back(code);
      });
    }
  }
  return keys;
}

/// The gpu-kmer pipeline's parse phase with one destination: every k-mer
/// of `reads`, `total` in all, in input order, as a device buffer that
/// adopts the parse's one run.
gpusim::DeviceBuffer<std::uint64_t> parse_device_kmers(
    gpusim::Device& device, io::ReadView reads, const PipelineConfig& config,
    RankMetrics& metrics, std::uint64_t& total) {
  detail::ParsedKmers parsed =
      detail::parse_gpu_kmers(device, reads, config, /*parts=*/1, metrics);
  total = parsed.total;
  device.release(parsed.reserved);
  return device.adopt(std::move(parsed.runs[0]));
}

/// One round of the sketch pipeline: parse the rank's share of a batch and
/// absorb it into the rank's persistent sketch. The sketch has no
/// distinct-key count; the counted total is the stream length it absorbed.
RankMetrics run_sketch_round(gpusim::Device* device,
                             io::ReadView reads,
                             const PipelineConfig& config,
                             HostCountMinSketch& sketch) {
  RankMetrics metrics;
  metrics.reads = reads.size();
  metrics.bases = reads.total_bases();

  if (config.kind == PipelineKind::kCpu) {
    std::vector<std::uint64_t> keys;
    {
      PhaseScope phase(metrics, kPhaseParse);
      keys = parse_host_keys(reads, config);
      metrics.kmers_parsed = keys.size();
      phase.set_uniform_charge(static_cast<double>(metrics.bases) /
                               summit::kCpuParseBasesPerSec);
    }
    {
      PhaseScope phase(metrics, kPhaseCount);
      for (const std::uint64_t key : keys) sketch.update(key);
      metrics.kmers_received = keys.size();
      phase.set_uniform_charge(static_cast<double>(keys.size()) /
                               summit::kCpuCountKmersPerSec);
    }
    metrics.counted_kmers = sketch.total_updates();
    return metrics;
  }

  DEDUKT_CHECK(device != nullptr);
  std::uint64_t total = 0;
  gpusim::DeviceBuffer<std::uint64_t> d_kmers =
      parse_device_kmers(*device, reads, config, metrics, total);
  {
    PhaseScope phase(metrics, kPhaseCount, *device);
    DeviceCountMinSketch device_sketch(*device, sketch.params());
    device_sketch.load(sketch.cells());
    device_sketch.update(d_kmers, total);
    device->free(d_kmers);
    sketch.assign_cells(device_sketch.to_host());
    sketch.add_total(total);
    metrics.kmers_received = total;
    phase.set_device_floor_charge(
        static_cast<double>(total) / summit::kGpuSketchKmersPerSec,
        summit::kGpuCountOverheadSec);
  }
  metrics.counted_kmers = sketch.total_updates();
  return metrics;
}

/// Heavy-hitter pass 2 over one batch's reads: re-parse, estimate every
/// occurrence against the merged global cells, and count survivors exactly
/// in `candidates`. Work counters stay zero — the occurrences were already
/// counted in pass 1 — but the parse/estimate time is charged in full (the
/// two-pass cost is real).
RankMetrics run_heavy_pass(gpusim::Device* device, io::ReadView reads,
                           const PipelineConfig& config,
                           const std::vector<std::uint32_t>& merged,
                           HostHashTable& candidates) {
  RankMetrics metrics;
  const std::uint64_t threshold = config.heavy_threshold;

  if (config.kind == PipelineKind::kCpu) {
    std::vector<std::uint64_t> keys;
    {
      PhaseScope phase(metrics, kPhaseParse);
      keys = parse_host_keys(reads, config);
      phase.set_uniform_charge(static_cast<double>(reads.total_bases()) /
                               summit::kCpuParseBasesPerSec);
    }
    {
      PhaseScope phase(metrics, kPhaseCount);
      candidates.add_all([&](auto& add) {
        for (const std::uint64_t key : keys) {
          if (sketch_estimate_cells(merged, config.sketch_width,
                                    config.sketch_depth, key) >= threshold) {
            add(key, 1);
          }
        }
      });
      phase.set_uniform_charge(static_cast<double>(keys.size()) /
                               summit::kCpuCountKmersPerSec);
    }
    return metrics;
  }

  DEDUKT_CHECK(device != nullptr);
  std::uint64_t total = 0;
  gpusim::DeviceBuffer<std::uint64_t> d_kmers =
      parse_device_kmers(*device, reads, config, metrics, total);
  metrics.kmers_parsed = 0;  // counted in pass 1
  {
    PhaseScope phase(metrics, kPhaseCount, *device);
    DeviceCountMinSketch device_sketch(*device, params_from(config));
    device_sketch.load(merged);
    auto d_estimates =
        device->alloc<std::uint32_t>(std::max<std::uint64_t>(total, 1));
    device_sketch.estimate(d_kmers, total, d_estimates);
    // The estimates and then the keys come back to the host, priced as
    // D2H copies of their bytes; the host reads them in place.
    device->price_transfer(gpusim::Device::Link::kToHost,
                           total * sizeof(std::uint32_t));
    device->price_transfer(gpusim::Device::Link::kToHost,
                           total * sizeof(std::uint64_t));
    candidates.add_all([&](auto& add) {
      for (std::uint64_t i = 0; i < total; ++i) {
        if (d_estimates[i] >= threshold) add(d_kmers[i], 1);
      }
    });
    device->free(d_estimates);
    device->free(d_kmers);
    device_sketch.release();
    phase.set_device_floor_charge(
        static_cast<double>(total) / summit::kGpuSketchEstimateKeysPerSec,
        summit::kGpuCountOverheadSec);
  }
  return metrics;
}

}  // namespace

namespace detail {

CountResult run_sketch_count(BatchSource& source,
                             const DriverOptions& options) {
  CountResult result;
  CountEngine<NarrowKeyTraits> engine(options, result);
  const PipelineConfig& config = options.pipeline;
  const SketchParams params = params_from(config);
  const bool device_kind = config.kind != PipelineKind::kCpu;
  const bool heavy = config.heavy_threshold > 0;
  const std::size_t nranks = engine.nranks();

  result.sketch.enabled = true;
  result.sketch.width = params.width;
  result.sketch.depth = params.depth;
  result.sketch.conservative = params.conservative;
  result.sketch.heavy_threshold = config.heavy_threshold;
  result.sketch.sketch_bytes = params.bytes();

  // Per-rank sketches persist across batches, like the exact tables.
  std::vector<HostCountMinSketch> sketches(nranks,
                                           HostCountMinSketch(params));
  // Pass-2 exact counts of heavy-hitter candidates.
  std::vector<HostHashTable> candidate_tables(nranks);
  std::vector<std::uint64_t> retained_bytes(nranks, 0);

  // The heavy-hitter second pass must re-scan every batch. A single
  // batch's views live until finish returns, so pass 2 reads them in
  // place. A streamed batch is gone once the loop moves past it, so each
  // rank keeps a copy of its reads; the copies count toward the peak
  // footprint. A pure sketch run retains nothing.
  std::vector<io::ReadView> single(nranks);
  std::vector<std::vector<io::ReadBatch>> retained(nranks);

  engine.run_batches(
      source, "rank_pipeline",
      [&](mpisim::Comm& comm, io::ReadView mine,
          const BatchInfo& batch) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        std::optional<gpusim::Device> device;
        if (device_kind) device.emplace(options.device);
        RankMetrics metrics = run_sketch_round(
            device ? &*device : nullptr, mine, config, sketches[rank]);
        if (heavy && batch.single()) {
          single[rank] = mine;
        } else if (heavy) {
          retained[rank].push_back(
              io::ReadBatch{{mine.reads.begin(), mine.reads.end()}});
          retained_bytes[rank] += io::resident_read_bytes(mine);
        }
        if (!batch.single()) {
          metrics.peak_resident_bytes =
              std::max(io::resident_read_bytes(mine), retained_bytes[rank]) +
              params.bytes();
        }
        return metrics;
      },
      [&](mpisim::Comm& comm, const BatchInfo& batch) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        // Cell-wise-sum merge of the per-rank sketches — the sketch
        // backend's entire exchange, charged to the exchange phase so the
        // Figure 3/7 breakdown keeps its meaning.
        std::vector<std::uint32_t> merged;
        {
          RankMetrics merge_metrics;
          {
            PhaseScope phase(merge_metrics, kPhaseExchange);
            mpisim::CommCapture capture(comm);
            merged = comm.allreduce_vector(sketches[rank].cells(),
                                           mpisim::ReduceOp::kSum);
            merge_metrics.bytes_sent = capture.bytes_sent();
            merge_metrics.bytes_received = capture.bytes_received();
            phase.set_charge(capture.modeled_seconds(),
                             capture.modeled_volume_seconds());
          }
          accumulate_round(result.ranks[rank], merge_metrics);
        }

        // The u32-cell contract: vanilla cells sum every occurrence that
        // hashes to them, so the global stream length bounds any cell.
        const std::uint64_t global_total = comm.allreduce(
            sketches[rank].total_updates(), mpisim::ReduceOp::kSum);
        DEDUKT_REQUIRE_MSG(
            global_total <= std::numeric_limits<std::uint32_t>::max(),
            "sketch cells are u32; the global k-mer stream ("
                << global_total << ") would overflow them");
        if (rank == 0) {
          result.sketch.sketched_kmers = global_total;
          result.sketch.cells = merged;
        }

        if (heavy) {
          RankMetrics pass2;
          const auto heavy_pass = [&](io::ReadView reads) {
            std::optional<gpusim::Device> device;
            if (device_kind) device.emplace(options.device);
            accumulate_round(
                pass2, run_heavy_pass(device ? &*device : nullptr, reads,
                                      config, merged,
                                      candidate_tables[rank]));
          };
          if (batch.single()) {
            heavy_pass(single[rank]);
          } else {
            for (const io::ReadBatch& kept : retained[rank]) heavy_pass(kept);
          }
          accumulate_round(result.ranks[rank], pass2);
          engine.gather(comm, candidate_tables[rank]);
        }

        if (!batch.single()) {
          trace::counter("peak_resident_bytes",
                         result.ranks[rank].peak_resident_bytes);
        }
      });
  result.sketch.heavy_hitters = engine.gathered_counts();
  return result;
}

}  // namespace detail

}  // namespace dedukt::core
