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
#include "dedukt/io/disk_model.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/io/sequence.hpp"

namespace dedukt::core {

/// Out-of-core spill configuration (--ooc-spill). When enabled, pass 1
/// streams batches through the parse machinery and appends
/// minimizer/key-partitioned runs to per-rank bin files under spill_root;
/// pass 2 replays each bin through the staged exchange/count framework, so
/// the exchange working set is one bin instead of the whole input.
struct OocOptions {
  /// Scratch directory root; empty disables out-of-core mode. A uniquely
  /// named subdirectory is created per run and removed on completion.
  std::string spill_root;
  /// Spill bins per rank: pass 2's working-set divisor.
  int bins = 8;
  /// Prices spill writes and bin reloads in modeled seconds.
  io::DiskModel disk = io::DiskModel::summit_nvme();

  [[nodiscard]] bool enabled() const { return !spill_root.empty(); }
};

struct DriverOptions {
  PipelineConfig pipeline;
  /// Number of MPI ranks (paper: 1 per GPU for GPU runs, 1 per core for
  /// CPU runs).
  int nranks = 6;
  /// Price communication with the Summit network model (vs. a free local
  /// transport). On by default so results carry modeled exchange times.
  bool summit_network = true;
  /// Ranks sharing one node's injection bandwidth; 0 derives the paper's
  /// value from the pipeline kind (6 for GPU runs, 42 for CPU runs).
  int ranks_per_node = 0;
  /// Gather the global (k-mer, count) table to the result. Turn off for
  /// large benchmark runs where only the metrics matter.
  bool collect_counts = true;
  /// Property sheet for each rank's simulated GPU.
  gpusim::DeviceProps device = gpusim::DeviceProps::v100();
  /// Ingest batching (--batch-reads / --batch-bytes). Unbounded runs the
  /// whole input as one batch — bit-identical to the historical in-memory
  /// path. Applied when the driver builds its own stream from a ReadBatch;
  /// callers handing a ReadBatchStream control batching themselves.
  io::BatchBounds batch;
  /// Out-of-core spill mode (--ooc-spill); see OocOptions.
  OocOptions ooc;

  [[nodiscard]] int effective_ranks_per_node() const {
    if (ranks_per_node > 0) return ranks_per_node;
    return pipeline.kind == PipelineKind::kCpu ? summit::kCoresPerNode
                                               : summit::kGpusPerNode;
  }
};

/// Run a distributed count of `reads` according to `options`. Wraps the
/// reads in a VectorBatchStream honouring options.batch and calls the
/// stream overload below.
[[nodiscard]] CountResult run_distributed_count(const io::ReadBatch& reads,
                                                const DriverOptions& options);

/// Run a distributed count pulling batches from `stream`. The resident
/// footprint is one batch plus its exchange buffers; every pulled batch is
/// partitioned across ranks and pushed through the selected pipeline
/// against persistent per-rank tables. A single-batch stream executes the
/// historical in-memory path bit for bit (spectra, CountResult, trace).
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
