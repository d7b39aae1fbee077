// Table II — total number of k-mers and supermers exchanged in the k-mer-
// and supermer-based counters, for minimizer lengths 9 and 7, plus the
// §IV-D theoretical model and a window-length ablation (DESIGN.md).
//
// Paper reference rows (full-size): E. coli 412M / 126M / 108M,
// P. aeruginosa 187M / 56M / 48M, V. vulnificus 154M / 47M / 41M,
// A. baumannii 129M / 40M / 34M, C. elegans 4.7B / 1.5B / 1.3B,
// H. sapien 167B / 59B / 50B; and "a significant communication reduction
// of 4x using a window length of 15" in wire bytes.
#include <cstdio>

#include "bench_common.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/kmer/theory.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

namespace {

using namespace dedukt;

struct SupermerStats {
  std::uint64_t count = 0;
  std::uint64_t bases = 0;

  [[nodiscard]] double avg_len() const {
    return count == 0 ? 0.0
                      : static_cast<double>(bases) /
                            static_cast<double>(count);
  }
};

SupermerStats build_stats(const io::ReadBatch& reads, int m, int window) {
  kmer::SupermerConfig cfg;
  cfg.m = m;
  cfg.window = window;
  SupermerStats stats;
  for (const auto& read : reads.reads) {
    for (const auto& d : kmer::build_supermers_read(read.bases, cfg, 384)) {
      ++stats.count;
      stats.bases += d.smer.len;
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::start(argc, argv, "Table II",
               "Total k-mers and supermers exchanged (m=9 and m=7), k=17, "
               "window=15.");

  TextTable table("Table II — exchanged units (measured, with full-size "
                  "scaled estimates)");
  table.set_header({"dataset", "kmer", "supermer (m=9)", "supermer (m=7)",
                    "kmer (scaled)", "smer m=9 (scaled)",
                    "smer m=7 (scaled)", "wire-byte reduction (m=7)"});

  TextTable model_table(
      "§IV-D theoretical model vs measurement (m=7, window=15)");
  model_table.set_header({"dataset", "avg supermer len s", "S measured",
                          "S = K/(s-k+1)", "paper est. (s-k)x",
                          "exact base reduction"});

  for (const auto& dataset : bench::load_datasets(bench::all_dataset_keys())) {
    const std::uint64_t kmers = dataset.reads.total_kmers(17);
    const SupermerStats s9 = build_stats(dataset.reads, 9, 15);
    const SupermerStats s7 = build_stats(dataset.reads, 7, 15);

    const double wire_reduction =
        static_cast<double>(kmer::theory::kmer_wire_bytes(kmers)) /
        static_cast<double>(kmer::theory::supermer_wire_bytes(s7.count));

    table.add_row({dataset.preset.short_name, format_count(kmers),
                   format_count(s9.count), format_count(s7.count),
                   format_count(kmers * dataset.scale),
                   format_count(s9.count * dataset.scale),
                   format_count(s7.count * dataset.scale),
                   format_speedup(wire_reduction)});

    // §IV-D model check driven by the measured average supermer length.
    kmer::theory::Params p;
    p.total_bases = static_cast<double>(dataset.reads.total_bases());
    double mean_len = 0;
    for (const auto& read : dataset.reads.reads) {
      mean_len += static_cast<double>(read.bases.size());
    }
    mean_len /= static_cast<double>(dataset.reads.size());
    p.avg_read_length = mean_len;
    p.k = 17;
    p.nprocs = 384;
    const double s = s7.avg_len();
    model_table.add_row(
        {dataset.preset.short_name, format_fixed(s, 1),
         format_count(s7.count),
         format_count(static_cast<std::uint64_t>(
             kmer::theory::total_supermers_exact(p, s))),
         format_fixed(kmer::theory::reduction_paper_estimate(17, s), 1),
         format_speedup(kmer::theory::reduction_exact(p, s))});
  }
  table.print();
  std::printf("\n");
  model_table.print();

  // Window-length ablation (design choice from DESIGN.md): longer windows
  // allow longer supermers until the 64-bit packing cap at w=15; beyond it
  // the wide (two-word, 17-byte) packing extension takes over.
  std::printf("\nwindow-length ablation (E. coli 30X, m=7):\n");
  const auto datasets = bench::load_datasets({"ecoli30x"});
  const std::uint64_t kmers = datasets[0].reads.total_kmers(17);
  for (const int window : {1, 3, 7, 11, 15}) {
    const SupermerStats stats = build_stats(datasets[0].reads, 7, window);
    std::printf("  w=%2d (1-word, 9 B/smer):  %9llu supermers, avg len "
                "%5.2f, wire reduction %s\n",
                window, static_cast<unsigned long long>(stats.count),
                stats.avg_len(),
                format_speedup(
                    static_cast<double>(kmer::theory::kmer_wire_bytes(kmers)) /
                    static_cast<double>(
                        kmer::theory::supermer_wire_bytes(stats.count)))
                    .c_str());
  }
  for (const int window : {15, 23, 31, 47}) {
    kmer::SupermerConfig cfg;
    cfg.m = 7;
    cfg.window = window;
    cfg.wide = true;
    std::uint64_t count = 0;
    std::uint64_t bases = 0;
    for (const auto& read : datasets[0].reads.reads) {
      for (const auto& d :
           kmer::build_wide_supermers_read(read.bases, cfg, 384)) {
        ++count;
        bases += d.smer.len;
      }
    }
    const std::uint64_t wide_wire = count * (16 + 1);
    std::printf("  w=%2d (2-word, 17 B/smer): %9llu supermers, avg len "
                "%5.2f, wire reduction %s\n",
                window, static_cast<unsigned long long>(count),
                static_cast<double>(bases) / static_cast<double>(count),
                format_speedup(
                    static_cast<double>(kmer::theory::kmer_wire_bytes(kmers)) /
                    static_cast<double>(wide_wire))
                    .c_str());
  }
  std::printf(
      "\nablation conclusion: at k=17 supermer lengths saturate near 21 "
      "bases (minimizer runs are short at m=7), so the heavier two-word "
      "packing never recoups its 17-byte cost — the paper's single-word "
      "window of 15 is the optimum. The wide packing pays off only for "
      "large k, where the single-word cap (32-k k-mers per window) "
      "collapses:\n");
  for (const int big_k : {25, 29}) {
    kmer::SupermerConfig narrow_cfg;
    narrow_cfg.k = big_k;
    narrow_cfg.m = 9;
    narrow_cfg.window = 31 - big_k + 1;
    kmer::SupermerConfig wide_cfg = narrow_cfg;
    wide_cfg.window = 63 - big_k + 1;
    wide_cfg.wide = true;
    const std::uint64_t big_kmers = datasets[0].reads.total_kmers(big_k);
    std::uint64_t narrow_count = 0, wide_count = 0;
    for (const auto& read : datasets[0].reads.reads) {
      std::vector<kmer::DestinedSupermer> narrow_out;
      for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
        kmer::build_supermers(fragment, narrow_cfg, 384, narrow_out);
      }
      narrow_count += narrow_out.size();
      wide_count +=
          kmer::build_wide_supermers_read(read.bases, wide_cfg, 384).size();
    }
    std::printf("  k=%d: 1-word (w=%2d) reduction %s vs 2-word (w=%2d) "
                "reduction %s\n",
                big_k, narrow_cfg.window,
                format_speedup(static_cast<double>(big_kmers * 8) /
                               static_cast<double>(narrow_count * 9))
                    .c_str(),
                wide_cfg.window,
                format_speedup(static_cast<double>(big_kmers * 8) /
                               static_cast<double>(wide_count * 17))
                    .c_str());
  }

  std::printf("\npaper reference: ~3.2-3.8x fewer units on the wire; \"a "
              "significant communication reduction of 4x using a window "
              "length of 15\".\n");
  return 0;
}
