// Table III — imbalance in the number of k-mers counted at each partition
// (384 GPUs) using the k-mer- and supermer-based counters, plus the
// minimizer-ordering ablation called out in DESIGN.md.
//
// Paper reference: k-mer partitioning is near-balanced (~1.13-1.16);
// supermer (minimizer) partitioning raises the imbalance (C. elegans 1.16,
// H. sapien 2.37 with m=7).
#include <cstdio>

#include "bench_common.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace dedukt;
  using core::PipelineKind;
  bench::start(argc, argv, "Table III",
               "Load imbalance (max/avg counted k-mers per rank), 384 "
               "partitions.");

  const int gpu_ranks = 384;

  TextTable table("Table III — per-partition k-mer loads (384 GPUs)");
  table.set_header({"dataset", "avg", "kmer min", "kmer max", "kmer imbal.",
                    "smer(m=7) min", "smer(m=7) max", "smer imbal."});

  for (const auto& dataset :
       bench::load_datasets(bench::large_dataset_keys())) {
    const auto kmer_run =
        bench::run_pipeline(dataset, PipelineKind::kGpuKmer, gpu_ranks);
    const auto smer_run = bench::run_pipeline(
        dataset, PipelineKind::kGpuSupermer, gpu_ranks, 7);
    const auto [kmin, kmax] = kmer_run.min_max_load();
    const auto [smin, smax] = smer_run.min_max_load();
    const std::uint64_t avg =
        kmer_run.totals().counted_kmers / static_cast<std::uint64_t>(gpu_ranks);
    table.add_row({dataset.preset.short_name, format_count(avg),
                   format_count(kmin), format_count(kmax),
                   format_fixed(kmer_run.load_imbalance(), 2),
                   format_count(smin), format_count(smax),
                   format_fixed(smer_run.load_imbalance(), 2)});
  }
  table.print();

  // Ablation: minimizer-ordering policy vs partition skew (§IV-A argues
  // the randomized encoding beats plain lexicographic ordering).
  std::printf("\nminimizer-ordering ablation (C. elegans 40X, supermers "
              "m=7, %d ranks):\n", gpu_ranks);
  const auto datasets = bench::load_datasets({"celegans40x"});
  for (const auto order : {kmer::MinimizerOrder::kLexicographic,
                           kmer::MinimizerOrder::kKmc2,
                           kmer::MinimizerOrder::kRandomized}) {
    const auto result =
        bench::run_pipeline(datasets[0], PipelineKind::kGpuSupermer,
                            gpu_ranks, 7, core::ExchangeMode::kStaged,
                            order);
    std::printf("  %-14s load imbalance %.2f, supermers %s\n",
                kmer::to_string(order).c_str(), result.load_imbalance(),
                format_count(result.total_supermers()).c_str());
  }

  // §VII future-work extension: frequency-balanced minimizer assignment
  // (rank-level LPT over sampled minimizer-bucket weights).
  std::printf("\n§VII extension — frequency-balanced minimizer routing "
              "(C. elegans 40X, m=7, %d ranks):\n", gpu_ranks);
  for (const auto scheme : {core::PartitionScheme::kMinimizerHash,
                            core::PartitionScheme::kFrequencyBalanced}) {
    core::DriverOptions options;
    options.pipeline.kind = PipelineKind::kGpuSupermer;
    options.pipeline.partition = scheme;
    options.nranks = gpu_ranks;
    options.collect_counts = false;
    const auto result =
        core::run_distributed_count(datasets[0].reads, options);
    std::printf("  %-14s load imbalance %.2f\n",
                core::to_string(scheme).c_str(), result.load_imbalance());
  }

  std::printf("\npaper reference: kmer ~1.13; supermer(m=7) 1.16 "
              "(C. elegans) and 2.37 (H. sapien).\n");
  return 0;
}
