// Driver — runs a whole distributed counting job.
//
// Wires the per-rank pipelines into an mpisim::Runtime: partitions the
// input reads across ranks (the parallel-I/O stand-in), executes the
// selected pipeline on every rank (each GPU rank owning its own simulated
// V100), gathers the per-rank partitions of the global hash table, and
// aggregates a CountResult.
#pragma once

#include <cstdint>

#include <string>

#include "dedukt/core/config.hpp"
#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/gpusim/device_props.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/io/sequence.hpp"

namespace dedukt::core {

/// Out-of-core spill configuration (--ooc-spill). When enabled, pass 1
/// runs each batch through the pipeline's own parse phase and appends its
/// per-destination runs to per-rank bin files under spill_root, binned by
/// a hash of the supermer's minimizer or of the k-mer key; pass 2 replays
/// each bin through the pipeline's own exchange and count phases, so the
/// exchange working set is one bin instead of the whole input. Spill and
/// reload are priced by io::DiskModel::summit_nvme().
struct OocOptions {
  /// Scratch directory root; empty disables out-of-core mode. A uniquely
  /// named subdirectory is created per run and removed on completion.
  std::string spill_root;
  /// Spill bins per rank: pass 2's working-set divisor.
  int bins = 8;

  [[nodiscard]] bool enabled() const { return !spill_root.empty(); }
};

struct DriverOptions {
  PipelineConfig pipeline;
  /// Number of MPI ranks (paper: 1 per GPU for GPU runs, 1 per core for
  /// CPU runs).
  int nranks = 6;
  /// Gather the global (k-mer, count) table to the result. Turn off for
  /// large benchmark runs where only the metrics matter.
  bool collect_counts = true;
  /// Property sheet for each rank's simulated GPU.
  gpusim::DeviceProps device = gpusim::DeviceProps::v100();
  /// Ingest batching (--batch-reads / --batch-bytes): each batch is one
  /// §III-A round, and the bound is the run's memory limit. Unbounded runs
  /// the whole input as one round. Applied when the driver slices a
  /// ReadBatch; callers handing a ReadBatchStream control batching
  /// themselves.
  io::BatchBounds batch;
  /// Out-of-core spill mode (--ooc-spill); see OocOptions.
  OocOptions ooc;

  /// Ranks sharing one node's injection bandwidth in the Summit network
  /// model: the paper's 42 per node for CPU runs, 6 for GPU runs.
  [[nodiscard]] int effective_ranks_per_node() const {
    return pipeline.kind == PipelineKind::kCpu ? summit::kCoresPerNode
                                               : summit::kGpusPerNode;
  }
};

/// Run a distributed count of `reads` according to `options`. Cuts the
/// reads into batches in place by options.batch (all of them as one batch
/// when unbounded), so every rank reads a view of `reads`, which must
/// outlive the call; otherwise runs as the stream overload below.
[[nodiscard]] CountResult run_distributed_count(const io::ReadBatch& reads,
                                                const DriverOptions& options);

/// Run a distributed count pulling batches from `stream`. Each batch is one
/// §III-A round: it is partitioned across ranks and pushed through the
/// selected pipeline against persistent per-rank tables, so the resident
/// footprint is one batch plus its exchange buffers. A single-batch stream
/// executes the historical in-memory path bit for bit (spectra,
/// CountResult, trace). A Bloom-filtered run (filter_singletons) throws
/// PreconditionError, before any rank parses, if the stream yields a
/// second batch.
[[nodiscard]] CountResult run_distributed_count(io::ReadBatchStream& stream,
                                                const DriverOptions& options);

/// Serial reference counter (single table, no distribution) with the same
/// k / encoding / canonical settings — the oracle the tests compare
/// distributed results against.
[[nodiscard]] HostHashTable reference_count(const io::ReadBatch& reads,
                                            const PipelineConfig& config);

/// Result of a wide-k (31 < k <= 63) distributed count: the usual metrics
/// plus two-word global counts. `base.global_counts` stays empty — wide
/// keys do not fit the narrow table.
struct WideCountResult {
  CountResult base;
  std::vector<std::pair<kmer::WideKey, std::uint64_t>> global_counts;
};

/// Distributed wide-k count (CPU pipeline only; 31 < k <= 63).
[[nodiscard]] WideCountResult run_distributed_count_wide(
    const io::ReadBatch& reads, const DriverOptions& options);

/// Streamed wide-k distributed count; see the narrow stream overload.
[[nodiscard]] WideCountResult run_distributed_count_wide(
    io::ReadBatchStream& stream, const DriverOptions& options);

/// Serial wide-k reference counter.
[[nodiscard]] WideHostHashTable reference_count_wide(
    const io::ReadBatch& reads, const PipelineConfig& config);

}  // namespace dedukt::core
