// Pipeline configuration shared by the CPU baseline and both GPU pipelines.
#pragma once

#include <string>

#include "dedukt/kmer/minimizer.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/kmer/supermer.hpp"

namespace dedukt::core {

/// Which of the three counters to run (paper §III & §IV).
enum class PipelineKind {
  kCpu,          ///< Algorithm 1 baseline (diBELLA-derived, CPU only)
  kGpuKmer,      ///< §III — GPU parse/count, k-mers on the wire
  kGpuSupermer,  ///< §IV — GPU parse/count, supermers on the wire
};

[[nodiscard]] inline std::string to_string(PipelineKind kind) {
  switch (kind) {
    case PipelineKind::kCpu: return "cpu";
    case PipelineKind::kGpuKmer: return "gpu-kmer";
    case PipelineKind::kGpuSupermer: return "gpu-supermer";
  }
  return "?";
}

/// How exchanged data crosses the host<->device boundary (§III-B2):
/// staged through the CPU (D2H, MPI, H2D) or GPUDirect.
enum class ExchangeMode { kStaged, kGpuDirect };

[[nodiscard]] inline std::string to_string(ExchangeMode mode) {
  return mode == ExchangeMode::kStaged ? "staged" : "gpudirect";
}

/// How supermer destinations are chosen (§IV-A vs the §VII extension).
/// Defined here (and aliased by partitioner.hpp's documentation) so
/// PipelineConfig stays self-contained.
enum class PartitionScheme {
  kMinimizerHash,      ///< the paper's scheme: hash(minimizer) mod P
  kFrequencyBalanced,  ///< §VII extension: sampled-weight LPT assignment
};

[[nodiscard]] inline std::string to_string(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kMinimizerHash: return "minimizer-hash";
    case PartitionScheme::kFrequencyBalanced: return "freq-balanced";
  }
  return "?";
}

struct PipelineConfig {
  PipelineKind kind = PipelineKind::kGpuSupermer;
  int k = 17;      ///< the paper's evaluation k
  int m = 7;       ///< minimizer length (paper uses 7 and 9)
  int window = 15; ///< supermer window (single-64-bit-word packing, §IV-C)
  kmer::MinimizerOrder order = kmer::MinimizerOrder::kRandomized;
  ExchangeMode exchange = ExchangeMode::kStaged;
  /// Supermer routing: the paper's minimizer hash, or the frequency-
  /// balanced assignment (§VII future work, implemented as an extension).
  /// Only consulted by the supermer pipeline.
  PartitionScheme partition = PartitionScheme::kMinimizerHash;
  /// Count canonical k-mers (min of k-mer and reverse complement). The
  /// paper does not canonicalize; off by default.
  bool canonical = false;
  /// BFCounter-style Bloom pre-filter at the counting stage (the diBELLA
  /// lineage's singleton suppression): k-mers seen once never occupy a
  /// table slot; survivors keep exact counts modulo Bloom false positives.
  /// GPU pipelines only. The filter lives in one count phase, so the run
  /// must take its input as a single batch (§III-A round): the driver
  /// rejects a stream that yields a second one.
  bool filter_singletons = false;
  /// Two-word supermer packing (extension): windows up to 63 - k + 1
  /// instead of the single-word cap of 32 - k (§IV-C), trading 17 wire
  /// bytes per supermer for fewer, longer supermers. Supermer pipeline
  /// only.
  bool wide_supermers = false;
  /// Source-side consolidation (the paper's footnote 1, after Georganas):
  /// count k-mers locally on the source rank first and exchange
  /// (k-mer, count) pairs (12 bytes each) instead of one 8-byte word per
  /// occurrence. Wins when the per-rank duplicate multiplicity exceeds
  /// 1.5x — i.e. at small rank counts — and loses at scale, which is why
  /// the paper (and diBELLA) consolidate at the destination. GPU k-mer
  /// pipeline only.
  bool source_consolidation = false;
  /// Approximate counting backend (ROADMAP item 5): replace the exact hash
  /// tables with a per-rank count-min sketch of sketch_width x sketch_depth
  /// u32 cells, merged across ranks with a cell-wise sum allreduce at the
  /// end of the run. No k-mers cross the wire — each rank sketches its own
  /// parsed stream — so the exchange cost drops from O(total k-mers) to
  /// O(sketch bytes). Estimates are one-sided (never below the true count);
  /// see docs/approximate.md for the error model.
  bool sketch = false;
  std::uint32_t sketch_width = 1u << 20;  ///< cells per row (power of two)
  std::uint32_t sketch_depth = 4;         ///< independent hash rows
  /// Estan-Varghese conservative update: tighter estimates, but the cell
  /// contents become update-order-dependent (the device kernel runs
  /// order-pinned; cross-rank merge keeps the one-sided bound but is no
  /// longer bit-equal to a single-stream sketch).
  bool sketch_conservative = false;
  /// When > 0, run the two-pass heavy-hitter extraction: pass 1 builds and
  /// merges the global sketch, pass 2 re-scans the input and keeps exact
  /// counts for every k-mer whose global estimate reaches the threshold.
  /// One-sided estimates make the recall exactly 1. Requires sketch.
  std::uint64_t heavy_threshold = 0;

  [[nodiscard]] kmer::SupermerConfig supermer_config() const {
    kmer::SupermerConfig c;
    c.k = k;
    c.m = m;
    c.window = window;
    c.order = order;
    c.wide = wide_supermers;
    return c;
  }

  [[nodiscard]] kmer::MinimizerPolicy minimizer_policy() const {
    return kmer::MinimizerPolicy(order, m);
  }

  /// Encoding all packed codes use under this configuration.
  [[nodiscard]] io::BaseEncoding encoding() const {
    return minimizer_policy().encoding();
  }

  void validate() const {
    if (kind == PipelineKind::kGpuSupermer) {
      supermer_config().validate();
    } else if (kind == PipelineKind::kGpuKmer) {
      DEDUKT_REQUIRE_MSG(k >= 2 && k <= kmer::kMaxPackedK,
                         "k out of range for the GPU pipelines: " << k);
      DEDUKT_REQUIRE_MSG(m >= 1 && m < k, "need 1 <= m < k");
    } else {
      // The CPU baseline also supports wide k-mers (31 < k <= 63) through
      // run_cpu_wide_rank / run_distributed_count_wide.
      DEDUKT_REQUIRE_MSG(k >= 2 && k <= kmer::kMaxWideK,
                         "k out of range: " << k);
      DEDUKT_REQUIRE_MSG(m >= 1 && m < k && m <= kmer::kMaxPackedK,
                         "need 1 <= m < k with m <= 31");
    }
    // Canonical counting is a CPU-baseline option; the paper's GPU
    // pipelines do not canonicalize (§IV-A).
    DEDUKT_REQUIRE_MSG(!canonical || kind == PipelineKind::kCpu,
                       "canonical counting is only supported by the CPU "
                       "pipeline");
    DEDUKT_REQUIRE_MSG(!filter_singletons || kind != PipelineKind::kCpu,
                       "the Bloom pre-filter is implemented for the GPU "
                       "pipelines");
    DEDUKT_REQUIRE_MSG(!source_consolidation ||
                           kind == PipelineKind::kGpuKmer,
                       "source-side consolidation applies to the GPU k-mer "
                       "pipeline");
    DEDUKT_REQUIRE_MSG(!(source_consolidation && filter_singletons),
                       "source consolidation and the Bloom pre-filter are "
                       "mutually exclusive");
    DEDUKT_REQUIRE_MSG(heavy_threshold == 0 || sketch,
                       "--heavy-threshold requires the sketch backend");
    if (sketch) {
      DEDUKT_REQUIRE_MSG(sketch_width >= 16 &&
                             (sketch_width & (sketch_width - 1)) == 0,
                         "sketch width must be a power of two >= 16, got "
                             << sketch_width);
      DEDUKT_REQUIRE_MSG(sketch_depth >= 1 && sketch_depth <= 12,
                         "sketch depth must be in [1, 12], got "
                             << sketch_depth);
      // The sketch path has no exact table and exchanges no k-mers, so the
      // exact-backend refinements are meaningless there.
      DEDUKT_REQUIRE_MSG(!filter_singletons,
                         "the Bloom pre-filter applies to the exact "
                         "backends, not the sketch");
      DEDUKT_REQUIRE_MSG(!source_consolidation && !wide_supermers,
                         "the sketch backend exchanges no k-mers; exchange "
                         "shaping options do not apply");
    }
  }
};

}  // namespace dedukt::core
