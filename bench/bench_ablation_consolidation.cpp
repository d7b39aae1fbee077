// Ablation — source-side vs destination-side k-mer consolidation.
//
// The paper consolidates at the DESTINATION (count after the exchange) and
// its footnote 1 points to Georganas' analysis of the alternative:
// counting locally first and exchanging (k-mer, count) pairs. This driver
// reproduces that analysis with the H. sapiens preset: per-rank duplicate
// multiplicity falls as ranks grow, so source-side consolidation wins at
// few ranks and loses at the paper's scale — justifying the paper's
// design.
#include <cstdio>

#include "bench_common.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace dedukt;
  using core::PipelineKind;
  bench::start(argc, argv, "Footnote 1 ablation",
               "Source-side vs destination-side k-mer consolidation "
               "(after Georganas).");

  const auto datasets = bench::load_datasets({"hsapiens54x"});
  const auto& dataset = datasets[0];
  std::printf("input: %s bases (1/%llu of H. sapien 54X), k=17\n\n",
              format_count(dataset.reads.total_bases()).c_str(),
              static_cast<unsigned long long>(dataset.scale));

  TextTable table("exchange volume and Alltoallv time vs rank count");
  table.set_header({"GPUs", "dest-side bytes", "source-side bytes",
                    "volume ratio", "dest alltoallv", "source alltoallv",
                    "winner"});

  for (const int gpus : {6, 24, 96, 384}) {
    core::CountResult dest, source;
    {
      core::DriverOptions options;
      options.pipeline.kind = PipelineKind::kGpuKmer;
      options.nranks = gpus;
      options.collect_counts = false;
      dest = core::run_distributed_count(dataset.reads, options);
      options.pipeline.source_consolidation = true;
      source = core::run_distributed_count(dataset.reads, options);
    }
    const double ratio =
        static_cast<double>(source.total_bytes_exchanged()) /
        static_cast<double>(dest.total_bytes_exchanged());
    const double t_dest = dest.projected_alltoallv_seconds(
        static_cast<double>(dataset.scale));
    const double t_source = source.projected_alltoallv_seconds(
        static_cast<double>(dataset.scale));
    table.add_row({std::to_string(gpus),
                   format_bytes(dest.total_bytes_exchanged()),
                   format_bytes(source.total_bytes_exchanged()),
                   format_fixed(ratio, 2), format_seconds(t_dest),
                   format_seconds(t_source),
                   t_source < t_dest ? "source-side" : "dest-side"});
  }
  table.print();

  std::printf(
      "\nreading: with 54x coverage split over few ranks, each rank holds "
      "many copies of\neach k-mer and shipping (k-mer, count) pairs (12 B) "
      "beats shipping occurrences (8 B\neach). At the paper's scale "
      "(96-384 GPUs) per-rank multiplicity approaches 1 and\nthe pair "
      "overhead loses — the paper's destination-side design is correct "
      "for its\noperating point. (The supermer optimization of §IV then "
      "beats both.)\n");
  return 0;
}
