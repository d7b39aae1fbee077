// Figure 6 — speedup in overall performance (excl. I/O) over the CPU
// baseline k-mer counter.
//
// (a) 16 nodes: 96 GPUs vs 672 CPU cores, the four small datasets.
//     Paper: ~11x average for the k-mer GPU counter, ~13x for the
//     supermer counters (m=7 and m=9).
// (b) 64 nodes: 384 GPUs vs 2688 cores, C. elegans 40X and H. sapien 54X.
//     Paper: up to 150x for H. sapien with supermers.
#include <cstdio>

#include "bench_common.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

namespace {

using namespace dedukt;
using core::PipelineKind;

void run_panel(const char* panel, const std::vector<bench::BenchDataset>& datasets,
               int cpu_ranks, int gpu_ranks) {
  TextTable table(std::string("Fig. 6") + panel + " — overall speedup over " +
                  std::to_string(cpu_ranks) + "-core CPU baseline (" +
                  std::to_string(gpu_ranks) + " GPUs)");
  table.set_header({"dataset", "kmer", "supermer (m=7)", "supermer (m=9)"});

  double geo_kmer = 1, geo_s7 = 1, geo_s9 = 1;
  for (const auto& dataset : datasets) {
    const double cpu = bench::projected_total(
        bench::run_pipeline(dataset, PipelineKind::kCpu, cpu_ranks),
        dataset.scale);
    const double kmer = bench::projected_total(
        bench::run_pipeline(dataset, PipelineKind::kGpuKmer, gpu_ranks),
        dataset.scale);
    const double s7 = bench::projected_total(
        bench::run_pipeline(dataset, PipelineKind::kGpuSupermer, gpu_ranks,
                            7),
        dataset.scale);
    const double s9 = bench::projected_total(
        bench::run_pipeline(dataset, PipelineKind::kGpuSupermer, gpu_ranks,
                            9),
        dataset.scale);
    table.add_row({dataset.preset.short_name, format_speedup(cpu / kmer),
                   format_speedup(cpu / s7), format_speedup(cpu / s9)});
    geo_kmer *= cpu / kmer;
    geo_s7 *= cpu / s7;
    geo_s9 *= cpu / s9;
  }
  table.print();
  const double n = static_cast<double>(datasets.size());
  std::printf("geometric-mean speedups: kmer %s, supermer(m=7) %s, "
              "supermer(m=9) %s\n\n",
              format_speedup(std::pow(geo_kmer, 1 / n)).c_str(),
              format_speedup(std::pow(geo_s7, 1 / n)).c_str(),
              format_speedup(std::pow(geo_s9, 1 / n)).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::start(argc, argv, "Figure 6",
               "Overall speedup (excl. I/O) of the GPU counters over the "
               "CPU baseline.");

  // (a) 16 nodes: 96 GPUs vs 672 cores, small datasets.
  run_panel("a", bench::load_datasets(bench::small_dataset_keys()), 672, 96);

  // (b) 64 nodes: 384 GPUs vs 2688 cores, large datasets.
  run_panel("b", bench::load_datasets(bench::large_dataset_keys()), 2688,
            384);

  std::printf("paper reference: (a) ~11x kmer / ~13x supermer average; "
              "(b) up to 150x for H. sapien 54X with supermers.\n");
  return 0;
}
