// Bridge from a counting run to the persistent store: derives the store's
// routing from the pipeline configuration so shard i holds exactly what
// rank i's table held, then hands the gathered global counts to
// store::write_store.
//
// Routing derivation mirrors the pipelines' destination logic:
//  * kCpu / kGpuKmer       -> whole-k-mer hash routing (Algorithm 1).
//  * kGpuSupermer + kMinimizerHash -> minimizer-hash routing (§IV-A).
//  * kGpuSupermer + kFrequencyBalanced -> the run's routing
//    lives in a MinimizerAssignment built collectively inside the
//    pipeline; pass it via the assignment overload to persist its bucket
//    table. Without the table (the CLI path, where the assignment is
//    internal to the run) the export falls back to minimizer-hash routing
//    — the store is still self-describing and every query still finds its
//    key, the shards just are not the balanced run's rank partitions.
#pragma once

#include <string>

#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/store/manifest.hpp"
#include "dedukt/store/routing.hpp"

namespace dedukt::core {

/// Routing a store should use for a run under `config` with `nranks`
/// partitions (the minimizer-hash fallback for the table schemes).
[[nodiscard]] store::StoreRouting store_routing_for(
    const PipelineConfig& config, std::uint32_t nranks);

/// Same, with the run's actual assignment table (the two table-based
/// partition schemes) persisted into the routing.
[[nodiscard]] store::StoreRouting store_routing_for(
    const PipelineConfig& config, std::uint32_t nranks,
    const MinimizerAssignment& assignment);

/// Write `result.global_counts` as a sharded store under `dir` (which must
/// exist). The result must have been collected (collect_counts = true).
store::Manifest write_store_from_result(const std::string& dir,
                                        const CountResult& result);

/// Table-scheme variant: persist the run's MinimizerAssignment so shards
/// agree with the balanced partitions.
store::Manifest write_store_from_result(
    const std::string& dir, const CountResult& result,
    const MinimizerAssignment& assignment);

}  // namespace dedukt::core
