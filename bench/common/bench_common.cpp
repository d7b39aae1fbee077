#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "dedukt/util/error.hpp"

namespace dedukt::bench {

std::uint64_t default_scale(const std::string& key) {
  // Small genomes shrink less so their supermer statistics stay faithful;
  // the human genome shrinks the most (317 GB of FASTQ is not laptop food).
  if (key == "celegans40x") return 4000;
  if (key == "hsapiens54x") return 40000;
  return 400;
}

std::vector<BenchDataset> load_datasets(const CliParser& cli,
                                        const std::vector<std::string>& keys) {
  const double mult = cli.get_double("scale-mult", 1.0);
  DEDUKT_REQUIRE(mult > 0);
  std::vector<BenchDataset> datasets;
  for (const std::string& key : keys) {
    const auto preset = io::find_preset(key);
    DEDUKT_REQUIRE_MSG(preset.has_value(), "unknown dataset key " << key);
    BenchDataset d;
    d.preset = *preset;
    d.scale = static_cast<std::uint64_t>(
        static_cast<double>(default_scale(key)) * mult);
    if (d.scale == 0) d.scale = 1;
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

PhaseTimes projected_breakdown(const trace::MetricsReport& metrics,
                               std::uint64_t scale) {
  return metrics.projected_breakdown(static_cast<double>(scale));
}

bool maybe_enable_trace(const CliParser& cli) {
  const std::string path = cli.get("trace");
  if (path.empty()) return false;
  trace::TraceSession::instance().enable(path);
  std::printf("tracing enabled; Chrome trace will be written to %s\n",
              path.c_str());
  return true;
}

PhaseTimes TracedRun::projected_breakdown(std::uint64_t scale) const {
  if (!metrics.ranks.empty()) {
    return metrics.projected_breakdown(static_cast<double>(scale));
  }
  return result.projected_breakdown(static_cast<double>(scale));
}

PhaseTimes TracedRun::measured_breakdown() const {
  if (!metrics.ranks.empty()) return metrics.measured_breakdown();
  return result.measured_breakdown();
}

PhaseTimes TracedRun::modeled_breakdown() const {
  if (!metrics.ranks.empty()) return metrics.modeled_breakdown();
  return result.modeled_breakdown();
}

TracedRun run_pipeline_traced(const BenchDataset& dataset,
                              core::PipelineKind kind, int nranks, int m,
                              core::ExchangeMode exchange,
                              kmer::MinimizerOrder order) {
  // An in-memory session (no output path) is enough to aggregate metrics;
  // if --trace already enabled a file-backed session, reuse it so the run's
  // spans also land in the exported Chrome trace.
  auto& session = trace::TraceSession::instance();
  if (!trace::enabled()) session.enable("");
  const trace::SessionMark mark = session.mark();
  TracedRun run;
  run.result = run_pipeline(dataset, kind, nranks, m, exchange, order);
  run.metrics = session.metrics(mark);
  return run;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void write_bench_json(const std::string& path,
                      const std::vector<BenchRecord>& records) {
  std::ostringstream body;
  body << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    body << "  {\"name\": \"" << json_escape(r.name) << "\", "
         << "\"wall_seconds\": " << json_double(r.wall_seconds) << ", "
         << "\"modeled_seconds\": " << json_double(r.modeled_seconds) << ", "
         << "\"overlap_saved_seconds\": "
         << json_double(r.overlap_saved_seconds) << ", "
         << "\"threads\": " << r.threads << ", "
         << "\"queries\": " << r.queries << ", "
         << "\"qps\": "
         << json_double(r.modeled_seconds > 0.0
                            ? static_cast<double>(r.queries) /
                                  r.modeled_seconds
                            : 0.0)
         << ", "
         << "\"p50_seconds\": " << json_double(r.p50_seconds) << ", "
         << "\"p99_seconds\": " << json_double(r.p99_seconds) << ", "
         << "\"ranks\": " << r.ranks << ", "
         << "\"exchange_seconds\": " << json_double(r.exchange_seconds)
         << ", "
         << "\"spill_bytes\": " << r.spill_bytes << ", "
         << "\"peak_resident_bytes\": " << r.peak_resident_bytes << ", "
         << "\"disk_seconds\": " << json_double(r.disk_seconds) << ", "
         << "\"compute_seconds\": " << json_double(r.compute_seconds) << ", "
         << "\"sketch_bytes\": " << r.sketch_bytes << ", "
         << "\"max_error\": " << r.max_error << ", "
         << "\"mean_error\": " << json_double(r.mean_error) << ", "
         << "\"heavy_hitters\": " << r.heavy_hitters << "}"
         << (i + 1 < records.size() ? "," : "") << "\n";
  }
  body << "]\n";
  std::ofstream out(path);
  DEDUKT_REQUIRE_MSG(out.good(), "cannot open " << path << " for writing");
  out << body.str();
  DEDUKT_REQUIRE_MSG(out.good(), "failed writing " << path);
}

bool maybe_write_bench_json(const CliParser& cli,
                            const std::vector<BenchRecord>& records) {
  const std::string path = cli.get("json");
  if (path.empty()) return false;
  write_bench_json(path, records);
  std::printf("wrote %zu benchmark records to %s\n", records.size(),
              path.c_str());
  return true;
}

void print_banner(const std::string& experiment_id,
                  const std::string& description) {
  std::printf("================================================================\n");
  std::printf("DEDUKT reproduction — %s\n", experiment_id.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("Inputs are synthetic Table-I presets at 1/scale of the real\n");
  std::printf("genomes; 'projected' times rescale modeled Summit times to\n");
  std::printf("full-size inputs (linear in data volume).\n");
  std::printf("================================================================\n");
}

}  // namespace dedukt::bench
