// Figure 9 — scalability of the k-mer insertion rate (billions of k-mers
// per second) of the GPU computation kernels, EXCLUDING the exchange
// module, from 4 to 128 nodes (24 to 768 GPUs).
//
// As in the paper, the small (<1 GB) datasets run up to 32 nodes and the
// large ones up to 128 nodes; the rate is total k-mers divided by the
// modeled critical-path time of parse + count. Expect near-linear scaling,
// with deviations caused by partition skew (§V-E).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace dedukt;
  using core::PipelineKind;
  bench::start(argc, argv, "Figure 9",
               "Strong scaling of the GPU compute kernels (k-mers/s, "
               "excluding exchange), 4-128 nodes.");

  const std::vector<int> small_nodes = {4, 16, 32};
  const std::vector<int> large_nodes = {4, 16, 32, 64, 128};

  TextTable table(
      "Fig. 9 — k-mer insertion rate, billions/s (projected full-size)");
  table.set_header({"dataset", "4", "16", "32", "64", "128", "64->128"});

  for (const std::string& key : bench::all_dataset_keys()) {
    const auto datasets = bench::load_datasets({key});
    const auto& dataset = datasets[0];
    const bool large =
        key == "celegans40x" || key == "hsapiens54x";
    const auto& nodes = large ? large_nodes : small_nodes;

    std::vector<std::string> row = {dataset.preset.short_name};
    double rate64 = 0, rate128 = 0;
    for (const int n : nodes) {
      const int gpus = n * core::summit::kGpusPerNode;
      const auto result =
          bench::run_pipeline(dataset, PipelineKind::kGpuKmer, gpus);
      // Fig. 9 plots the computation KERNELS' rate: pure kernel time,
      // excluding exchange and fixed per-round overheads — i.e. the
      // volume-proportional share of parse + count on the busiest rank.
      double compute = 0;
      for (const auto& rank : result.ranks) {
        compute = std::max(
            compute, (rank.modeled_volume.get(core::kPhaseParse) +
                      rank.modeled_volume.get(core::kPhaseCount)) *
                         static_cast<double>(dataset.scale));
      }
      const double rate = static_cast<double>(result.totals().kmers_parsed) *
                          static_cast<double>(dataset.scale) / compute;
      row.push_back(format_fixed(rate / 1e9, 1));
      if (n == 64) rate64 = rate;
      if (n == 128) rate128 = rate;
    }
    while (row.size() < 6) row.push_back("-");
    row.push_back(rate64 > 0 && rate128 > 0
                      ? format_speedup(rate128 / rate64)
                      : "-");
    table.add_row(row);
  }
  table.print();

  std::printf("\npaper reference: near-linear scaling; C. elegans 40X and "
              "H. sapien 54X both gain 2.3x from 64 to 128 nodes; "
              "deviations stem from dataset skew.\n");
  return 0;
}
