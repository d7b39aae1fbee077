#include "dedukt/core/app.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <filesystem>

#include "dedukt/core/counts_io.hpp"
#include "dedukt/core/debruijn.hpp"
#include "dedukt/core/driver.hpp"
#include "dedukt/core/spectrum.hpp"
#include "dedukt/core/store_export.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/store/distributed_query.hpp"
#include "dedukt/store/query.hpp"
#include "dedukt/store/store.hpp"
#include "dedukt/io/datasets.hpp"
#include "dedukt/io/fasta.hpp"
#include "dedukt/io/fastq.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/cli.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/format.hpp"
#include "engine.hpp"

namespace dedukt::core {

namespace {

constexpr const char* kUsage = R"(dedukt — distributed-memory k-mer counting (GPU-simulated)

usage: dedukt <command> [flags]

commands:
  count    --input=reads.fastq|genome.fa | --synthetic=<preset> [--scale=N]
           --output=counts.bin|counts.tsv [--store-out=<dir>]
           [--k=17] [--m=7] [--window=15] [--ranks=6]
           [--pipeline=gpu-supermer|gpu-kmer|cpu]
           [--order=randomized|kmc2|lexicographic]
           [--canonical] [--filter-singletons] [--wide-supermers]
           [--freq-balanced]
           [--sketch] [--sketch-width=N] [--sketch-depth=N]
           [--sketch-conservative] [--heavy-threshold=N]
                                  (approximate counting: per-rank count-min
                                  sketch, merged with one allreduce; with a
                                  threshold, a second pass extracts exact
                                  counts of the heavy hitters)
           [--batch-reads=N] [--batch-bytes=N]  (stream ingest in bounded
                                  batches, one §III-A round each; FASTQ
                                  inputs are decoded incrementally, never
                                  fully resident)
           [--ooc-spill=<dir>] [--ooc-bins=8]  (out-of-core two-pass run:
                                  spill the wire payload under <dir> in bins
                                  (supermers by minimizer, k-mers by key
                                  hash), then replay bin by bin)
           [--trace=trace.json]  (Chrome trace + <base>.metrics.json,
                                  same as DEDUKT_TRACE=<path>)
  histo    --counts=counts.bin [--max-rows=25]
  graph    --counts=counts.bin [--min-count=1]
  dump     --counts=counts.bin [--output=counts.tsv]
  info     --counts=counts.bin
  compare  --a=a.bin --b=b.bin
  query    --store=<dir> --kmers=ACGT...,TTGA... [--cache-shards=N]
           [--freq-admission]  (frequency-aware cache admission: never
                                evict a hotter shard for a colder one)
           [--ranks=P]         (distributed serving tier: shard i pinned to
                                rank i mod P, queries scatter/gathered over
                                the simulated network; 1 = single rank)
           [--batch=N]         (split the key list into N-key batches;
                                0 = one batch)
           [--json]            (machine-readable results + serve stats on
                                stdout instead of the human summary)

synthetic presets: ecoli30x paeruginosa30x vvulnificus30x abaumannii30x
                   celegans40x hsapiens54x
)";

/// The flags `command` accepts: every --name in its block of kUsage (the
/// line that names the command and the indented lines under it). Reading
/// them off the help text keeps the accepted set and the documentation
/// from drifting apart.
std::set<std::string> usage_flags(std::string_view command) {
  std::set<std::string> flags;
  std::string_view block;  // command whose block the current line is in
  std::string_view usage = kUsage;
  while (!usage.empty()) {
    const std::size_t eol = std::min(usage.find('\n'), usage.size());
    const std::string_view line = usage.substr(0, eol);
    usage.remove_prefix(std::min(eol + 1, usage.size()));
    const std::size_t indent = line.find_first_not_of(' ');
    if (indent == std::string_view::npos || indent == 0) {
      block = {};  // blank or unindented: outside every command block
    } else if (indent == 2) {
      block = line.substr(2, line.find(' ', 2) - 2);
    }
    if (block != command) continue;
    for (std::size_t at = line.find("--"); at != std::string_view::npos;
         at = line.find("--", at + 2)) {
      const std::size_t end =
          std::min(line.find_first_of(" =]|>/)", at + 2), line.size());
      flags.emplace(line.substr(at + 2, end - at - 2));
    }
  }
  return flags;
}

io::ReadBatch load_input(const CliParser& cli, std::ostream& out) {
  const std::string input = cli.get("input");
  if (!input.empty()) {
    if (input.ends_with(".fa") || input.ends_with(".fasta")) {
      return io::read_fasta_file(input);
    }
    return io::read_fastq_file(input);
  }
  const std::string preset_key = cli.get("synthetic");
  DEDUKT_REQUIRE_MSG(!preset_key.empty(),
                     "count needs --input or --synthetic");
  const auto preset = io::find_preset(preset_key);
  DEDUKT_REQUIRE_MSG(preset.has_value(),
                     "unknown synthetic preset '" << preset_key << "'");
  const auto scale = cli.get_uint<std::uint64_t>("scale", 500);
  out << "generating " << preset->short_name << " at 1/" << scale
      << " scale\n";
  return io::make_dataset(*preset, scale);
}

PipelineKind parse_pipeline(const std::string& name) {
  if (name == "cpu") return PipelineKind::kCpu;
  if (name == "gpu-kmer") return PipelineKind::kGpuKmer;
  if (name == "gpu-supermer") return PipelineKind::kGpuSupermer;
  throw PreconditionError("unknown --pipeline '" + name + "'");
}

kmer::MinimizerOrder parse_order(const std::string& name) {
  if (name == "lexicographic") return kmer::MinimizerOrder::kLexicographic;
  if (name == "kmc2") return kmer::MinimizerOrder::kKmc2;
  if (name == "randomized") return kmer::MinimizerOrder::kRandomized;
  throw PreconditionError("unknown --order '" + name + "'");
}

int cmd_count(const CliParser& cli, std::ostream& out) {
  // --trace=<path> mirrors DEDUKT_TRACE=<path>; files are written when the
  // session flushes (explicitly below, and again harmlessly at exit).
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) {
    trace::TraceSession::instance().enable(trace_path);
  }

  DriverOptions options;
  options.pipeline.kind = parse_pipeline(cli.get("pipeline", "gpu-supermer"));
  options.pipeline.k = cli.get_int_as<int>("k", 17);
  options.pipeline.m = cli.get_int_as<int>("m", 7);
  options.pipeline.window = cli.get_int_as<int>("window", 15);
  options.pipeline.order = parse_order(cli.get("order", "randomized"));
  options.pipeline.canonical = cli.get_bool("canonical", false);
  options.pipeline.filter_singletons =
      cli.get_bool("filter-singletons", false);
  options.pipeline.wide_supermers = cli.get_bool("wide-supermers", false);
  if (cli.get_bool("freq-balanced", false)) {
    options.pipeline.partition = PartitionScheme::kFrequencyBalanced;
  }
  options.pipeline.sketch = cli.get_bool("sketch", false);
  options.pipeline.sketch_width =
      cli.get_uint<std::uint32_t>("sketch-width", 1u << 20);
  options.pipeline.sketch_depth =
      cli.get_uint<std::uint32_t>("sketch-depth", 4);
  options.pipeline.sketch_conservative =
      cli.get_bool("sketch-conservative", false);
  options.pipeline.heavy_threshold =
      cli.get_uint<std::uint64_t>("heavy-threshold", 0);
  options.nranks = cli.get_int_as<int>("ranks", 6);
  options.batch.max_reads = cli.get_uint<std::size_t>("batch-reads", 0);
  options.batch.max_bytes = cli.get_uint<std::uint64_t>("batch-bytes", 0);
  options.ooc.spill_root = cli.get("ooc-spill");
  options.ooc.bins = cli.get_int_as<int>("ooc-bins", 8);
  const std::string store_out = cli.get("store-out");

  // Checked before any input is generated or read.
  detail::validate_run(options, /*wide_keys=*/false);
  DEDUKT_REQUIRE_MSG(store_out.empty() || !options.pipeline.sketch,
                     "--store-out needs exact counts, and a --sketch run "
                     "gathers none; write the sketch's heavy hitters with "
                     "--output");

  // Bounded-batch or out-of-core runs on a FASTQ input stream straight
  // from the file, so the full read set is never resident; everything else
  // (FASTA, synthetic, plain in-memory runs) loads up front as before.
  const bool streamed = !options.batch.unbounded() || options.ooc.enabled();
  const std::string input = cli.get("input");
  const bool stream_file =
      streamed && !input.empty() &&
      (input.ends_with(".fastq") || input.ends_with(".fq"));

  CountResult result;
  if (stream_file) {
    out << "counting " << input << " (streamed), k=" << options.pipeline.k
        << ", pipeline=" << to_string(options.pipeline.kind)
        << ", ranks=" << options.nranks << "\n";
    io::FastqBatchStream stream(input, options.batch);
    result = run_distributed_count(stream, options);
  } else {
    const io::ReadBatch reads = load_input(cli, out);
    out << "counting " << format_count(reads.total_bases()) << " bases, k="
        << options.pipeline.k << ", pipeline=" << to_string(
               options.pipeline.kind)
        << ", ranks=" << options.nranks << "\n";
    result = run_distributed_count(reads, options);
  }
  if (result.sketch.enabled) {
    // Sketch runs count no distinct keys; report the stream and the
    // summary's shape instead, keeping exact-mode output byte-identical.
    out << "sketched " << format_count(result.sketch.sketched_kmers)
        << " k-mer instances into a " << result.sketch.width << "x"
        << result.sketch.depth
        << (result.sketch.conservative ? " conservative" : "")
        << " count-min sketch (" << format_bytes(result.sketch.sketch_bytes)
        << ")\n";
    if (result.sketch.heavy_threshold > 0) {
      out << "heavy hitters (count >= " << result.sketch.heavy_threshold
          << "): " << format_count(result.sketch.heavy_hitters.size())
          << " candidates, "
          << format_count(result.sketch.heavy_hitters.size() -
                          result.sketch.false_positives())
          << " true, " << format_count(result.sketch.false_positives())
          << " sketch false positives\n";
      // A key's estimate is the least of its cells, so once the mean cell
      // reaches the threshold, nearly every key clears it.
      const std::vector<std::uint32_t>& cells = result.sketch.cells;
      const std::uint64_t cell_sum =
          std::accumulate(cells.begin(), cells.end(), std::uint64_t{0});
      if (!cells.empty() &&
          cell_sum >= result.sketch.heavy_threshold * cells.size()) {
        out << "sketch saturated: mean cell value "
            << cell_sum / cells.size() << " >= threshold "
            << result.sketch.heavy_threshold
            << ", so pass 2 counts nearly every key exactly; raise "
               "--sketch-width\n";
      }
    }
  } else {
    out << "counted " << format_count(result.totals().counted_kmers)
        << " k-mer instances, " << format_count(result.total_unique())
        << " distinct\n";
  }
  const PhaseTimes breakdown = result.modeled_breakdown();
  out << "modeled Summit time:";
  bool first = true;
  const auto ordered = options.ooc.enabled()
                           ? breakdown.ordered(kOocPhaseOrder)
                           : breakdown.ordered(kPhaseOrder);
  for (const auto& [name, seconds] : ordered) {
    out << (first ? " " : ", ") << name << " " << format_seconds(seconds);
    first = false;
  }
  out << "\n";
  // Out-of-core / streamed footprint report: these lines only appear when
  // the new modes are on, so plain-run output is unchanged.
  const RankMetrics totals = result.totals();
  if (options.ooc.enabled()) {
    out << "out-of-core: " << options.ooc.bins << " bins, spilled "
        << format_bytes(totals.spill_bytes_written) << ", reloaded "
        << format_bytes(totals.spill_bytes_read) << "\n";
  }
  if (totals.peak_resident_bytes > 0) {
    out << "peak resident bytes: " << format_bytes(totals.peak_resident_bytes)
        << " per rank\n";
  }

  if (!trace_path.empty()) {
    const std::string chrome = trace::TraceSession::instance().write_files();
    out << "wrote Chrome trace to " << chrome << " (metrics: "
        << trace::TraceSession::metrics_path_for(chrome) << ")\n";
  }

  const std::string output = cli.get("output");
  if (!output.empty()) {
    CountsFile file;
    file.k = options.pipeline.k;
    file.encoding = options.pipeline.encoding();
    // Sketch runs gather no exact table; the heavy hitters (exact counts
    // from the second pass) are the writable artifact.
    file.counts = result.sketch.enabled ? result.sketch.heavy_hitters
                                        : result.global_counts;
    if (output.ends_with(".tsv")) {
      write_counts_tsv_file(output, file);
    } else {
      write_counts_binary_file(output, file);
    }
    out << "wrote " << file.counts.size() << " entries to " << output
        << "\n";
  }

  if (!store_out.empty()) {
    std::filesystem::create_directories(store_out);
    const store::Manifest manifest =
        write_store_from_result(store_out, result);
    out << "wrote store: " << manifest.routing.shards() << " shards, "
        << format_count(manifest.total_entries()) << " entries ("
        << to_string(manifest.routing.mode()) << " routing) to "
        << store_out << "\n";
  }
  return 0;
}

/// The query command's serve-side accounting, filled identically by the
/// single-rank and distributed paths so --json always carries every key.
struct QueryRunSummary {
  std::uint64_t queries = 0;
  std::uint64_t found = 0;
  std::uint64_t dedup_saved = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t admission_bypasses = 0;
  std::uint64_t staged_bytes = 0;
  std::uint64_t routed_queries = 0;
  std::uint64_t nic_bytes = 0;
  double lookup_seconds = 0.0;
  double exchange_seconds = 0.0;
  double serve_seconds = 0.0;
  double overlap_saved_seconds = 0.0;
};

void write_query_json(std::ostream& out, const std::string& dir, int ranks,
                      const QueryRunSummary& s,
                      const std::vector<std::string>& names,
                      const std::vector<std::uint64_t>& counts) {
  const auto d = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  out << "{\n";
  out << "  \"store\": \"" << dir << "\",\n";
  out << "  \"ranks\": " << ranks << ",\n";
  out << "  \"queries\": " << s.queries << ",\n";
  out << "  \"found\": " << s.found << ",\n";
  out << "  \"dedup_saved\": " << s.dedup_saved << ",\n";
  out << "  \"cache_hits\": " << s.cache_hits << ",\n";
  out << "  \"cache_misses\": " << s.cache_misses << ",\n";
  out << "  \"evictions\": " << s.evictions << ",\n";
  out << "  \"admission_bypasses\": " << s.admission_bypasses << ",\n";
  out << "  \"staged_bytes\": " << s.staged_bytes << ",\n";
  out << "  \"routed_queries\": " << s.routed_queries << ",\n";
  out << "  \"nic_bytes\": " << s.nic_bytes << ",\n";
  out << "  \"lookup_seconds\": " << d(s.lookup_seconds) << ",\n";
  out << "  \"exchange_seconds\": " << d(s.exchange_seconds) << ",\n";
  out << "  \"serve_seconds\": " << d(s.serve_seconds) << ",\n";
  out << "  \"overlap_saved_seconds\": " << d(s.overlap_saved_seconds)
      << ",\n";
  out << "  \"results\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out << ", ";
    out << "{\"kmer\": \"" << names[i] << "\", \"count\": " << counts[i]
        << "}";
  }
  out << "]\n";
  out << "}\n";
}

int cmd_query(const CliParser& cli, std::ostream& out) {
  const std::string dir = cli.get("store");
  DEDUKT_REQUIRE_MSG(!dir.empty(), "query needs --store=<dir>");
  const std::string kmers = cli.get("kmers");
  DEDUKT_REQUIRE_MSG(!kmers.empty(),
                     "query needs --kmers=<comma-separated k-mers>");

  const store::KmerStore kmer_store = store::KmerStore::open(dir);
  std::vector<std::string> names;
  std::vector<std::uint64_t> keys;
  std::size_t begin = 0;
  while (begin <= kmers.size()) {
    const std::size_t comma = std::min(kmers.find(',', begin), kmers.size());
    const std::string name = kmers.substr(begin, comma - begin);
    begin = comma + 1;
    if (name.empty()) continue;
    DEDUKT_REQUIRE_MSG(name.size() == static_cast<std::size_t>(
                                          kmer_store.k()),
                       "k-mer '" << name << "' is not " << kmer_store.k()
                                 << " bases long");
    names.push_back(name);
    keys.push_back(kmer::pack(name, kmer_store.encoding()));
  }

  const int ranks = cli.get_int_as<int>("ranks", 1);
  DEDUKT_REQUIRE_MSG(ranks >= 1, "--ranks must be >= 1");
  const auto batch = cli.get_uint<std::size_t>("batch", 0);
  const bool json = cli.get_bool("json", false);

  // Split the key list into batches (0 = serve everything in one round
  // trip). A distributed tier prices the batches as a pipeline.
  std::vector<std::vector<std::uint64_t>> batches;
  if (batch == 0 || batch >= keys.size()) {
    batches.push_back(keys);
  } else {
    for (std::size_t i = 0; i < keys.size(); i += batch) {
      const std::size_t n = std::min(batch, keys.size() - i);
      batches.emplace_back(keys.begin() + static_cast<std::ptrdiff_t>(i),
                           keys.begin() + static_cast<std::ptrdiff_t>(i + n));
    }
  }

  QueryRunSummary summary;
  std::vector<std::uint64_t> counts;
  if (ranks == 1) {
    gpusim::Device device;
    store::QueryEngineConfig config;
    config.cache_shards = cli.get_uint<std::uint32_t>("cache-shards", 0);
    config.freq_admission = cli.get_bool("freq-admission", false);
    store::QueryEngine engine(kmer_store, device, config);
    for (const auto& b : batches) {
      const std::vector<std::uint64_t> part = engine.lookup(b);
      counts.insert(counts.end(), part.begin(), part.end());
    }
    const store::QueryStats& st = engine.stats();
    summary.queries = st.queries;
    summary.found = st.found;
    summary.dedup_saved = st.dedup_saved;
    summary.cache_hits = st.cache_hits;
    summary.cache_misses = st.cache_misses;
    summary.evictions = st.evictions;
    summary.admission_bypasses = st.admission_bypasses;
    summary.staged_bytes = st.staged_bytes;
    summary.routed_queries = st.queries - st.dedup_saved;
    summary.lookup_seconds = st.modeled_seconds;
    summary.serve_seconds = st.modeled_seconds;
  } else {
    store::DistributedQueryConfig config;
    config.ranks = ranks;
    config.cache_shards = cli.get_uint<std::uint32_t>("cache-shards", 0);
    config.freq_admission = cli.get_bool("freq-admission", false);
    store::DistributedQueryEngine engine(kmer_store, config);
    const std::vector<std::vector<std::uint64_t>> answers =
        engine.lookup_batches(batches);
    for (const auto& part : answers) {
      counts.insert(counts.end(), part.begin(), part.end());
    }
    const store::DistributedQueryStats& st = engine.stats();
    summary.queries = st.queries;
    summary.found = st.found;
    summary.dedup_saved = st.dedup_saved;
    summary.routed_queries = st.routed_queries;
    summary.nic_bytes = st.nic_bytes;
    summary.lookup_seconds = st.lookup_seconds;
    summary.exchange_seconds = st.exchange_seconds;
    summary.serve_seconds = st.serve_seconds;
    summary.overlap_saved_seconds = st.overlap_saved_seconds;
    for (int r = 0; r < ranks; ++r) {
      const store::QueryStats& rs = engine.rank_stats(r);
      summary.cache_hits += rs.cache_hits;
      summary.cache_misses += rs.cache_misses;
      summary.evictions += rs.evictions;
      summary.admission_bypasses += rs.admission_bypasses;
      summary.staged_bytes += rs.staged_bytes;
    }
  }

  if (json) {
    write_query_json(out, dir, ranks, summary, names, counts);
    return 0;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << names[i] << "\t" << counts[i] << "\n";
  }
  out << "queried " << names.size() << " k-mers across "
      << kmer_store.shards() << " shards";
  if (ranks > 1) {
    out << " on " << ranks << " ranks, modeled serve "
        << format_seconds(summary.serve_seconds) << " (exchange "
        << format_seconds(summary.exchange_seconds) << ")";
    if (summary.overlap_saved_seconds != 0.0) {
      out << ", overlap saved "
          << format_seconds(summary.overlap_saved_seconds);
    }
    out << "\n";
  } else {
    out << ", modeled " << format_seconds(summary.serve_seconds) << "\n";
  }
  return 0;
}

int cmd_histo(const CliParser& cli, std::ostream& out) {
  const std::string path = cli.get("counts");
  DEDUKT_REQUIRE_MSG(!path.empty(), "histo needs --counts=<file>");
  const CountsFile file = read_counts_binary_file(path);

  Spectrum spectrum;
  for (const auto& [_, count] : file.counts) ++spectrum[count];

  out << "k-mer frequency spectrum (k=" << file.k << "):\n";
  for (const std::string& row : render_spectrum(
           spectrum, cli.get_uint<std::size_t>("max-rows", 25))) {
    out << "  " << row << "\n";
  }
  const SpectrumAnalysis analysis = analyze_spectrum(spectrum);
  out << "distinct k-mers      : " << format_count(analysis.distinct_kmers)
      << "\n";
  out << "total instances      : " << format_count(analysis.total_instances)
      << "\n";
  out << "coverage peak        : " << analysis.coverage_peak << "x\n";
  out << "genome size estimate : "
      << format_count(analysis.genome_size_estimate) << "\n";
  if (analysis.valley > 0) {
    out << "error/signal valley  : " << analysis.valley << " ("
        << format_count(analysis.error_kmers) << " likely-error k-mers)\n";
  }
  return 0;
}

int cmd_dump(const CliParser& cli, std::ostream& out) {
  const std::string path = cli.get("counts");
  DEDUKT_REQUIRE_MSG(!path.empty(), "dump needs --counts=<file>");
  const CountsFile file = read_counts_binary_file(path);
  const std::string output = cli.get("output");
  if (output.empty()) {
    write_counts_tsv(out, file);
  } else {
    write_counts_tsv_file(output, file);
    out << "wrote " << file.counts.size() << " rows to " << output << "\n";
  }
  return 0;
}

int cmd_graph(const CliParser& cli, std::ostream& out) {
  const std::string path = cli.get("counts");
  DEDUKT_REQUIRE_MSG(!path.empty(), "graph needs --counts=<file>");
  const CountsFile file = read_counts_binary_file(path);

  const auto min_count = cli.get_uint<std::uint64_t>("min-count", 1);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kept;
  for (const auto& entry : file.counts) {
    if (entry.second >= min_count) kept.push_back(entry);
  }
  const DeBruijnGraph graph(kept, file.k, file.encoding);
  const GraphStats stats = graph.stats();
  out << "weighted de Bruijn graph (k=" << file.k << ", count >= "
      << min_count << "):\n";
  out << "nodes                : " << format_count(stats.nodes) << "\n";
  out << "edges                : " << format_count(stats.edges) << "\n";
  out << "unitigs              : " << format_count(stats.unitigs) << "\n";
  out << "unitig N50           : " << format_count(stats.n50_bases)
      << " bases\n";
  out << "longest unitig       : "
      << format_count(stats.longest_unitig_bases) << " bases\n";
  out << "tips / junctions     : " << stats.tips << " / "
      << stats.junctions << "\n";
  return 0;
}

int cmd_info(const CliParser& cli, std::ostream& out) {
  const std::string path = cli.get("counts");
  DEDUKT_REQUIRE_MSG(!path.empty(), "info needs --counts=<file>");
  const CountsFile file = read_counts_binary_file(path);
  std::uint64_t total = 0, max_count = 0;
  for (const auto& [_, count] : file.counts) {
    total += count;
    max_count = std::max(max_count, count);
  }
  out << "counts file          : " << path << "\n";
  out << "k                    : " << file.k << "\n";
  out << "base encoding        : "
      << (file.encoding == io::BaseEncoding::kStandard ? "standard"
                                                       : "randomized")
      << "\n";
  out << "distinct k-mers      : " << format_count(file.counts.size())
      << "\n";
  out << "total instances      : " << format_count(total) << "\n";
  out << "max multiplicity     : " << max_count << "\n";
  return 0;
}

int cmd_compare(const CliParser& cli, std::ostream& out) {
  const std::string path_a = cli.get("a");
  const std::string path_b = cli.get("b");
  DEDUKT_REQUIRE_MSG(!path_a.empty() && !path_b.empty(),
                     "compare needs --a and --b");
  const CountsFile a = read_counts_binary_file(path_a);
  const CountsFile b = read_counts_binary_file(path_b);
  DEDUKT_REQUIRE_MSG(a.k == b.k, "counts files have different k: "
                                     << a.k << " vs " << b.k);
  DEDUKT_REQUIRE_MSG(a.encoding == b.encoding,
                     "counts files use different base encodings");

  const std::map<std::uint64_t, std::uint64_t> map_b(b.counts.begin(),
                                                     b.counts.end());
  std::uint64_t intersection = 0, shared_mass = 0, total_mass = 0;
  for (const auto& [key, count] : a.counts) {
    const auto it = map_b.find(key);
    if (it != map_b.end()) {
      ++intersection;
      shared_mass += std::min(count, it->second);
    }
    total_mass += count;
  }
  for (const auto& [_, count] : b.counts) total_mass += count;
  const std::uint64_t set_union =
      a.counts.size() + b.counts.size() - intersection;

  out << "distinct: A " << format_count(a.counts.size()) << ", B "
      << format_count(b.counts.size()) << ", shared "
      << format_count(intersection) << "\n";
  out << "jaccard              : "
      << format_fixed(set_union == 0
                          ? 0.0
                          : static_cast<double>(intersection) /
                                static_cast<double>(set_union),
                      4)
      << "\n";
  out << "containment A in B   : "
      << format_fixed(a.counts.empty()
                          ? 0.0
                          : static_cast<double>(intersection) /
                                static_cast<double>(a.counts.size()),
                      4)
      << "\n";
  out << "bray-curtis          : "
      << format_fixed(total_mass == 0
                          ? 0.0
                          : 1.0 - 2.0 * static_cast<double>(shared_mass) /
                                      static_cast<double>(total_mass),
                      4)
      << "\n";
  return 0;
}

}  // namespace

int run_app(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return 1;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    out << kUsage;
    return 0;
  }
  using Command = int (*)(const CliParser&, std::ostream&);
  const std::map<std::string, Command> commands = {
      {"count", cmd_count}, {"histo", cmd_histo}, {"dump", cmd_dump},
      {"graph", cmd_graph}, {"info", cmd_info}, {"compare", cmd_compare},
      {"query", cmd_query}};
  const auto it = commands.find(command);
  if (it == commands.end()) {
    err << "unknown command '" << command << "'\n" << kUsage;
    return 1;
  }
  // Re-parse flags with the subcommand stripped.
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  const CliParser cli(static_cast<int>(rest.size()), rest.data());

  try {
    // A misspelled or retired flag must not be silently ignored.
    const std::vector<std::string> unknown =
        cli.unknown_flags(usage_flags(command));
    DEDUKT_REQUIRE_MSG(unknown.empty(), "unknown flag --" << unknown.front()
                                            << " for dedukt " << command);
    return it->second(cli, out);
  } catch (const PreconditionError& e) {
    // A failed check's own message is what a user can act on; the failed
    // expression and source location stay in what().
    err << "error: " << (e.message().empty() ? e.what() : e.message())
        << "\n";
    return 1;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace dedukt::core
