// Per-rank pipeline entry points.
//
// Each function runs one rank's share of one distributed counting round
// (§III-A) — the three modules of Fig. 1: parse & process, exchange, count
// — and returns that rank's metrics for the round. The rank's partition of
// the global hash table accumulates in `local_table`, which persists across
// rounds. The driver's batch loop is what splits a job into rounds: every
// batch it pulls is one call here on every rank.
//
// These are the building blocks; most callers use driver.hpp, which wires
// them into a Runtime and aggregates a CountResult.
#pragma once

#include <optional>

#include "dedukt/core/config.hpp"
#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/mpisim/comm.hpp"

namespace dedukt::core {

/// CPU baseline (Algorithm 1; derived from diBELLA's k-mer analysis).
[[nodiscard]] RankMetrics run_cpu_rank(mpisim::Comm& comm,
                                       io::ReadView reads,
                                       const PipelineConfig& config,
                                       HostHashTable& local_table);

/// Wide-k CPU pipeline: Algorithm 1 with two-word packed k-mers
/// (31 < k <= 63), for long-read analyses beyond the single-word regime.
[[nodiscard]] RankMetrics run_cpu_wide_rank(mpisim::Comm& comm,
                                            io::ReadView reads,
                                            const PipelineConfig& config,
                                            WideHostHashTable& local_table);

/// GPU pipeline, k-mers on the wire (§III).
[[nodiscard]] RankMetrics run_gpu_kmer_rank(mpisim::Comm& comm,
                                            gpusim::Device& device,
                                            io::ReadView reads,
                                            const PipelineConfig& config,
                                            HostHashTable& local_table);

/// GPU pipeline, supermers on the wire (§IV). Under frequency-balanced
/// routing (§VII extension), `assignment` is the job's routing table: when
/// empty, this call samples it collectively from `reads` and stores it, so
/// a job samples once, from its first round, and every later round routes
/// each k-mer to the same rank. Each call copies the table to `device`.
/// Unused under minimizer-hash routing.
[[nodiscard]] RankMetrics run_gpu_supermer_rank(
    mpisim::Comm& comm, gpusim::Device& device, io::ReadView reads,
    const PipelineConfig& config, HostHashTable& local_table,
    std::optional<MinimizerAssignment>& assignment);

}  // namespace dedukt::core
