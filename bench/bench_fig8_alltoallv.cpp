// Figure 8 — speedup of the MPI_Alltoallv routine using supermers compared
// to k-mers: (a) 16 nodes / 96 GPUs on the four small datasets,
// (b) 64 nodes / 384 GPUs on the two large ones.
//
// Paper reference: up to 3x for H. sapien 54X; variance across datasets is
// caused by the minimizer-induced load imbalance (the model reproduces
// this naturally: exchange time follows the busiest rank's bytes).
// Also sweeps the staged vs GPUDirect exchange mode as the DESIGN.md
// ablation.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

namespace {

using namespace dedukt;
using core::PipelineKind;

/// Fig. 8 measures the MPI_Alltoallv routine alone (not the staging copies
/// or other exchange-phase overheads).
double exchange_seconds(const core::CountResult& result,
                        std::uint64_t scale) {
  return result.projected_alltoallv_seconds(static_cast<double>(scale));
}

void run_panel(const char* panel,
               const std::vector<bench::BenchDataset>& datasets,
               int gpu_ranks) {
  TextTable table(std::string("Fig. 8") + panel +
                  " — Alltoallv speedup, supermers vs k-mers (" +
                  std::to_string(gpu_ranks) + " GPUs)");
  table.set_header({"dataset", "supermer (m=7)", "supermer (m=9)",
                    "bytes kmer", "bytes smer (m=7)"});
  for (const auto& dataset : datasets) {
    const auto kmer =
        bench::run_pipeline(dataset, PipelineKind::kGpuKmer, gpu_ranks);
    const auto s7 = bench::run_pipeline(dataset, PipelineKind::kGpuSupermer,
                                        gpu_ranks, 7);
    const auto s9 = bench::run_pipeline(dataset, PipelineKind::kGpuSupermer,
                                        gpu_ranks, 9);
    table.add_row({dataset.preset.short_name,
                   format_speedup(exchange_seconds(kmer, dataset.scale) /
                                  exchange_seconds(s7, dataset.scale)),
                   format_speedup(exchange_seconds(kmer, dataset.scale) /
                                  exchange_seconds(s9, dataset.scale)),
                   format_bytes(kmer.total_bytes_exchanged()),
                   format_bytes(s7.total_bytes_exchanged())});
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::start(argc, argv, "Figure 8",
               "Speedup of the Alltoallv exchange using supermers instead "
               "of k-mers.");

  run_panel("a", bench::load_datasets(bench::small_dataset_keys()), 96);
  run_panel("b", bench::load_datasets(bench::large_dataset_keys()), 384);

  // Ablation: exchange mode (staged through CPU vs GPUDirect, §III-B2).
  const auto datasets = bench::load_datasets({"celegans40x"});
  const auto& dataset = datasets[0];
  const int ranks = 384;
  const auto staged =
      bench::run_pipeline(dataset, PipelineKind::kGpuSupermer, ranks, 7,
                          core::ExchangeMode::kStaged);
  const auto direct =
      bench::run_pipeline(dataset, PipelineKind::kGpuSupermer, ranks, 7,
                          core::ExchangeMode::kGpuDirect);
  // The ablation compares the whole exchange phase (staging included).
  const double t_staged =
      bench::projected_breakdown(staged, dataset.scale)
          .get(core::kPhaseExchange);
  const double t_direct =
      bench::projected_breakdown(direct, dataset.scale)
          .get(core::kPhaseExchange);
  std::printf("ablation (C. elegans 40X, supermer m=7, %d GPUs): exchange "
              "staged %s vs GPUDirect %s (%.1f%% saved by skipping the "
              "host staging copies)\n",
              ranks, format_seconds(t_staged).c_str(),
              format_seconds(t_direct).c_str(),
              (1 - t_direct / t_staged) * 100);

  std::printf("paper reference: up to 3x Alltoallv speedup for H. sapien "
              "54X; variance tracks dataset load imbalance.\n");
  return 0;
}
