// Figure 3 — runtime breakdown of CPU- and GPU-based k-mer counters on 64
// nodes for the H. sapien 54X dataset.
//
// Paper setup: (a) CPU baseline on 2688 cores (42 per node); (b) GPU k-mer
// pipeline on 384 GPUs (6 per node). Headline observations to reproduce:
//   * GPU run is ~two orders of magnitude faster end to end
//     (~50 minutes -> ~30 seconds, excl. I/O);
//   * the k-mer exchange time is roughly the same in (a) and (b) —
//     the same per-node volume crosses the same node links;
//   * exchange dominates the GPU run (communication becomes the
//     bottleneck, §III-C).
#include <cstdio>

#include "bench_common.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace dedukt;
  using core::PipelineKind;
  bench::start(argc, argv, "Figure 3",
               "Runtime breakdown, CPU (2688 cores) vs GPU (384 GPUs), "
               "H. sapien 54X, 64 nodes.");

  const auto datasets = bench::load_datasets({"hsapiens54x"});
  const auto& dataset = datasets[0];
  std::printf("input: %s bases (1/%llu of H. sapien 54X), k=17\n\n",
              format_count(dataset.reads.total_bases()).c_str(),
              static_cast<unsigned long long>(dataset.scale));

  struct Row {
    const char* label;
    PhaseTimes breakdown;  ///< projected to the full-size input
  };
  const std::vector<Row> rows = {
      {"(a) CPU 2688 cores",
       bench::projected_breakdown(
           bench::run_pipeline(dataset, PipelineKind::kCpu, 2688),
           dataset.scale)},
      {"(b) GPU 384 GPUs (kmer)",
       bench::projected_breakdown(
           bench::run_pipeline(dataset, PipelineKind::kGpuKmer, 384),
           dataset.scale)},
  };

  TextTable table(
      "Fig. 3 — projected full-size Summit time per phase (seconds)");
  std::vector<std::string> header = {"configuration"};
  for (const auto& entry : core::kPhaseLegend) header.push_back(entry.label);
  header.push_back("total");
  header.push_back("exchange share");
  table.set_header(header);
  for (const auto& row : rows) {
    const PhaseTimes& breakdown = row.breakdown;
    std::vector<std::string> cells = {row.label};
    double total = 0.0;
    for (const auto& entry : core::kPhaseLegend) {
      total += breakdown.get(entry.name);
    }
    for (const auto& entry : core::kPhaseLegend) {
      cells.push_back(format_fixed(breakdown.get(entry.name), 1));
    }
    cells.push_back(format_fixed(total, 1));
    cells.push_back(
        format_fixed(breakdown.get(core::kPhaseExchange) / total * 100, 0) +
        "%");
    table.add_row(cells);
  }
  table.print();

  const double cpu_total = rows[0].breakdown.total();
  const double gpu_total = rows[1].breakdown.total();
  const double cpu_exchange = rows[0].breakdown.get(core::kPhaseExchange);
  const double gpu_exchange = rows[1].breakdown.get(core::kPhaseExchange);

  std::printf("\noverall GPU speedup over CPU baseline: %s  (paper: ~100x, "
              "\"50 minutes to 30 seconds\")\n",
              format_speedup(cpu_total / gpu_total).c_str());
  std::printf("exchange time CPU vs GPU: %s vs %s  (paper: \"roughly the "
              "same across (a) and (b)\")\n",
              format_seconds(cpu_exchange).c_str(),
              format_seconds(gpu_exchange).c_str());
  return 0;
}
