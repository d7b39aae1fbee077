#include "bench_common.hpp"

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "dedukt/trace/trace.hpp"
#include "dedukt/util/cli.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::bench {

std::uint64_t default_scale(const std::string& key) {
  // Small genomes shrink less so their supermer statistics stay faithful;
  // the human genome shrinks the most (317 GB of FASTQ is not laptop food).
  if (key == "celegans40x") return 4000;
  if (key == "hsapiens54x") return 40000;
  return 400;
}

std::vector<BenchDataset> load_datasets(const std::vector<std::string>& keys) {
  std::vector<BenchDataset> datasets;
  for (const std::string& key : keys) {
    const auto preset = io::find_preset(key);
    DEDUKT_REQUIRE_MSG(preset.has_value(), "unknown dataset key " << key);
    BenchDataset d;
    d.preset = *preset;
    d.scale = default_scale(key);
    d.reads = io::make_dataset(*preset, d.scale, /*seed=*/42);
    datasets.push_back(std::move(d));
  }
  return datasets;
}

std::vector<std::string> all_dataset_keys() {
  return {"ecoli30x",    "paeruginosa30x", "vvulnificus30x",
          "abaumannii30x", "celegans40x",  "hsapiens54x"};
}

std::vector<std::string> small_dataset_keys() {
  return {"ecoli30x", "paeruginosa30x", "vvulnificus30x", "abaumannii30x"};
}

std::vector<std::string> large_dataset_keys() {
  return {"celegans40x", "hsapiens54x"};
}

io::ReadBatch chunk_reads(const io::ReadBatch& reads,
                          std::uint64_t chunk_bases, std::uint64_t overlap) {
  DEDUKT_REQUIRE(chunk_bases > overlap);
  io::ReadBatch out;
  for (const auto& read : reads.reads) {
    if (read.bases.size() <= chunk_bases) {
      out.reads.push_back(read);
      continue;
    }
    std::size_t start = 0;
    int piece = 0;
    while (start < read.bases.size()) {
      io::Read chunk;
      chunk.id = read.id + "/" + std::to_string(piece++);
      chunk.bases = read.bases.substr(start, chunk_bases);
      out.reads.push_back(std::move(chunk));
      if (start + chunk_bases >= read.bases.size()) break;
      start += chunk_bases - overlap;
    }
  }
  return out;
}

core::CountResult run_pipeline(const BenchDataset& dataset,
                               core::PipelineKind kind, int nranks, int m,
                               core::ExchangeMode exchange,
                               kmer::MinimizerOrder order) {
  core::DriverOptions options;
  options.pipeline.kind = kind;
  options.pipeline.m = m;
  options.pipeline.exchange = exchange;
  options.pipeline.order = order;
  options.nranks = nranks;
  options.collect_counts = false;  // benchmarks only need the metrics

  // Aim for >= ~24 chunks per rank so whole-read granularity does not
  // fake imbalance that full-size inputs would not have. The floor keeps
  // chunks several k-mers long; the k-1 overlap preserves the k-mer
  // multiset exactly.
  const std::uint64_t total = dataset.reads.total_bases();
  const std::uint64_t chunk = std::max<std::uint64_t>(
      96, total / (static_cast<std::uint64_t>(nranks) * 24));
  return core::run_distributed_count(chunk_reads(dataset.reads, chunk),
                                     options);
}

PhaseTimes projected_breakdown(const core::CountResult& result,
                               std::uint64_t scale) {
  return result.projected_breakdown(static_cast<double>(scale));
}

double projected_total(const core::CountResult& result,
                       std::uint64_t scale) {
  return projected_breakdown(result, scale).total();
}

void start(int argc, char** argv, const std::string& experiment_id,
           const std::string& description) {
  // Each driver prints one fixed operating point (its golden), so a flag
  // it does not read must fail loudly instead of printing that point.
  const CliParser cli(argc, argv);
  const std::vector<std::string> unknown = cli.unknown_flags({"trace"});
  std::string rejected;
  if (!unknown.empty()) {
    rejected = "unknown flag --" + unknown.front();
  } else if (!cli.positional().empty()) {
    rejected = "unexpected argument " + cli.positional().front();
  }
  if (!rejected.empty()) {
    std::fprintf(stderr, "%s: %s (the drivers read only --trace=<path>)\n",
                 cli.program().c_str(), rejected.c_str());
    std::exit(1);
  }

  std::printf("================================================================\n");
  std::printf("DEDUKT reproduction — %s\n", experiment_id.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("Inputs are synthetic Table-I presets at 1/scale of the real\n");
  std::printf("genomes; 'projected' times rescale modeled Summit times to\n");
  std::printf("full-size inputs (linear in data volume).\n");
  std::printf("================================================================\n");

  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) {
    trace::TraceSession::instance().enable(trace_path);
    std::printf("tracing enabled; Chrome trace will be written to %s\n",
                trace_path.c_str());
  }
}

ScratchDir::ScratchDir(const std::string& prefix) {
  std::string pattern =
      (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX")).string();
  DEDUKT_REQUIRE_MSG(mkdtemp(pattern.data()) != nullptr,
                     "mkdtemp failed for " << pattern);
  path_ = pattern;
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace dedukt::bench
