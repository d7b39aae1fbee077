// Figure 7 — runtime breakdown of the GPU k-mer counters on 64 nodes
// (384 GPUs): kmer-based vs supermer-based with m=7 and m=9, for
// (a) C. elegans 40X and (b) H. sapien 54X.
//
// Shapes to reproduce (§V-C): supermers add ~33% to parse & process and
// ~27% to counting, but cut the exchange by ~33%, which wins overall
// because exchange is the dominant phase.
#include <cstdio>

#include "bench_common.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace dedukt;
  using core::PipelineKind;
  bench::start(argc, argv, "Figure 7",
               "GPU runtime breakdown, kmer vs supermer (m=7, m=9), "
               "64 nodes / 384 GPUs.");

  const int gpu_ranks = 384;
  for (const auto& dataset :
       bench::load_datasets(bench::large_dataset_keys())) {
    struct Variant {
      std::string label;
      PhaseTimes breakdown;  ///< projected to the full-size input
    };
    const auto projected = [&](PipelineKind kind, int m) {
      return bench::projected_breakdown(
          bench::run_pipeline(dataset, kind, gpu_ranks, m), dataset.scale);
    };
    const std::vector<Variant> variants = {
        {"kmer", projected(PipelineKind::kGpuKmer, 7)},
        {"supermer (m=7)", projected(PipelineKind::kGpuSupermer, 7)},
        {"supermer (m=9)", projected(PipelineKind::kGpuSupermer, 9)},
    };

    TextTable table("Fig. 7 — " + dataset.preset.short_name +
                    " projected full-size Summit seconds per phase");
    std::vector<std::string> header = {"variant"};
    for (const auto& entry : core::kPhaseLegend) {
      header.push_back(entry.label);
    }
    header.push_back("total");
    table.set_header(header);
    for (const auto& v : variants) {
      const PhaseTimes& b = v.breakdown;
      std::vector<std::string> cells = {v.label};
      for (const auto& entry : core::kPhaseLegend) {
        cells.push_back(format_fixed(b.get(entry.name), 2));
      }
      cells.push_back(format_fixed(b.total(), 2));
      table.add_row(cells);
    }
    table.print();

    const PhaseTimes& kb = variants[0].breakdown;
    const PhaseTimes& sb = variants[1].breakdown;
    std::printf("supermer(m=7) vs kmer: parse %+.0f%%, count %+.0f%%, "
                "exchange %+.0f%%, overall %s\n\n",
                (sb.get(core::kPhaseParse) / kb.get(core::kPhaseParse) - 1) *
                    100,
                (sb.get(core::kPhaseCount) / kb.get(core::kPhaseCount) - 1) *
                    100,
                (sb.get(core::kPhaseExchange) /
                     kb.get(core::kPhaseExchange) - 1) * 100,
                format_speedup(kb.total() / sb.total()).c_str());
  }
  std::printf("paper reference: parse +33%%, count +27%%, exchange -33%%, "
              "overall ~1.5x win for supermers.\n");
  return 0;
}
