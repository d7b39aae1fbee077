// Table I — datasets used for performance evaluation.
//
// Prints the reproduced Table I: per preset, the paper's real FASTQ size
// next to the synthetic stand-in actually used by the benchmarks (genome
// down-scale factor, generated read bases, FASTQ-equivalent bytes, k-mer
// count at k=17).
#include <cstdio>

#include "bench_common.hpp"
#include "dedukt/io/fastq.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace dedukt;
  bench::start(argc, argv, "Table I",
               "Datasets used for performance evaluation (synthetic "
               "stand-ins for the paper's six inputs).");

  TextTable table("Table I — datasets (k = 17)");
  table.set_header({"Short Name", "Species and Strain", "Paper Fastq",
                    "Scale", "Synthetic bases", "Synthetic Fastq",
                    "k-mers (measured)", "k-mers (scaled est.)"});

  for (const auto& dataset : bench::load_datasets(bench::all_dataset_keys())) {
    const std::uint64_t kmers = dataset.reads.total_kmers(17);
    table.add_row({
        dataset.preset.short_name,
        dataset.preset.species,
        format_bytes(dataset.preset.paper_fastq_bytes),
        "1/" + std::to_string(dataset.scale),
        format_count(dataset.reads.total_bases()),
        format_bytes(io::fastq_size_bytes(dataset.reads)),
        format_count(kmers),
        format_count(kmers * dataset.scale),
    });
  }
  table.print();

  std::printf(
      "\nPaper Table II reference totals (full-size): E. coli 412M, "
      "P. aeruginosa 187M,\nV. vulnificus 154M, A. baumannii 129M, "
      "C. elegans 4.7B, H. sapien 167B k-mers.\n"
      "The scaled estimates above should land in the same order of "
      "magnitude per dataset.\n");
  return 0;
}
