#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "dedukt/core/counts_io.hpp"
#include "dedukt/core/driver.hpp"
#include "dedukt/core/store_export.hpp"
#include "dedukt/io/datasets.hpp"
#include "dedukt/io/fastq.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/store/distributed_query.hpp"
#include "dedukt/store/store.hpp"
#include "dedukt/trace/session.hpp"
#include "dedukt/util/timer.hpp"
#include "support.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace core = dedukt::core;
namespace io = dedukt::io;
namespace store = dedukt::store;
namespace tr = dedukt::trace;
using dedukt::Timer;

namespace {

constexpr std::uint64_t kOocBatchBytes = 16ull << 20;
constexpr int kOocBins = 8;
constexpr std::uint32_t kStoreShards = 32;
constexpr std::size_t kBatchKeys = 4096;
/// Distinct batches in one pass of serving traffic. Enough that the 99th
/// percentile of per-batch modeled time has at least ten samples beyond it.
constexpr std::size_t kPassBatches = 1152;
constexpr double kZipfSkew = 1.0;
/// Count jobs per run at least, however long they take.
constexpr std::size_t kMinJobs = 3;
/// Whole passes a traced run times untraced, for its overhead baseline.
constexpr std::size_t kMinPasses = 3;
/// Batches re-sent after the first pass to take each one's fastest send,
/// and the least number of times each is re-sent. Few batches sent many
/// times: under a busy hypervisor most sends are stalled, and only many
/// tries per batch reliably include an unstalled one.
constexpr std::size_t kProbeBatches = 32;
constexpr std::size_t kMinProbeRounds = 40;

core::PipelineConfig pipeline_config() {
  core::PipelineConfig config;
  config.kind = core::PipelineKind::kGpuSupermer;
  return config;
}

core::DriverOptions count_options() {
  core::DriverOptions options;
  options.pipeline = pipeline_config();
  options.nranks = kRanks;
  options.collect_counts = true;
  return options;
}

io::DatasetPreset preset_named(const char* key) {
  const auto preset = io::find_preset(key);
  if (!preset) throw std::logic_error(std::string("no preset ") + key);
  return *preset;
}

/// Wall seconds of the main thread's recorded spans named `name`.
double main_span_seconds(const char* name) {
  double total = 0.0;
  for (const tr::SpanRecord& span : tr::TraceSession::instance()
                                        .recorder(tr::SpanRecorder::kMainRank)
                                        .spans_snapshot()) {
    if (span.name == name) total += span.wall_seconds;
  }
  return total;
}

void start_tracing() {
  tr::TraceSession& session = tr::TraceSession::instance();
  session.reset();
  session.enable("");
}

void stop_tracing() {
  tr::TraceSession& session = tr::TraceSession::instance();
  session.disable();
  session.reset();
}

/// Times every pull of the wrapped stream, so FASTQ decode that happens
/// inside a streamed count call is measured as its own layer.
class TimedBatchStream final : public io::ReadBatchStream {
 public:
  explicit TimedBatchStream(io::ReadBatchStream& inner) : inner_(inner) {}

  [[nodiscard]] std::optional<io::ReadBatch> next() override {
    tr::ScopedSpan span(tr::kCategoryApp, kDecodeSpan);
    const Timer timer;
    std::optional<io::ReadBatch> batch = inner_.next();
    seconds_ += timer.seconds();
    return batch;
  }

  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  io::ReadBatchStream& inner_;
  double seconds_ = 0.0;
};

/// Expected digest of counting `reads`, computed once per seed and scale
/// with the serial reference counter and cached under `cache_file`.
DumpDigest expected_digest(const fs::path& cache_file,
                           const io::ReadBatch& reads, bool& computed) {
  computed = false;
  {
    std::ifstream in(cache_file);
    DumpDigest cached;
    if (in >> cached.distinct >> cached.total >> cached.hash) return cached;
  }
  const core::HostHashTable table =
      core::reference_count(reads, pipeline_config());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> dump;
  dump.reserve(table.unique());
  table.for_each([&dump](std::uint64_t key, std::uint64_t count) {
    dump.emplace_back(key, count);
  });
  std::sort(dump.begin(), dump.end());
  const DumpDigest digest = digest_of(dump);
  fs::create_directories(cache_file.parent_path());
  const fs::path tmp = cache_file.string() + ".tmp";
  {
    std::ofstream out(tmp);
    out << digest.distinct << ' ' << digest.total << ' ' << digest.hash
        << '\n';
  }
  fs::rename(tmp, cache_file);
  computed = true;
  return digest;
}

/// Read a file once so later timed reads find it in the page cache.
void warm_page_cache(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
  }
}

// ---- counting workloads ----------------------------------------------------

struct CountContext {
  bool ooc = false;
  fs::path fastq;
  fs::path counts_out;
  core::DriverOptions options;
  std::uint64_t bases = 0;
  std::uint64_t fastq_bytes = 0;
  DumpDigest expected;
};

struct CountJob {
  double wall_s = 0.0;
  double decode_s = 0.0;
  double count_s = 0.0;
  double output_s = 0.0;
  double rss_mib = 0.0;
  double modeled_s = 0.0;
  bool rss_reset = false;  ///< the kernel reset VmHWM before the job
  std::string problem;  ///< empty when the output checked out
  core::CountResult result;
};

/// One timed job: FASTQ decode, run_distributed_count, counts-file write.
/// The written file is read back and checked after the timer stops.
CountJob run_count_job(const CountContext& ctx, bool corrupt) {
  CountJob job;
  job.rss_reset = reset_peak_rss();
  core::CountsFile file;
  file.k = ctx.options.pipeline.k;
  file.encoding = ctx.options.pipeline.encoding();
  io::ReadBatch reads;
  {
    tr::ScopedSpan job_span(tr::kCategoryApp, kJobSpan);
    const Timer wall;
    if (ctx.ooc) {
      io::FastqBatchStream fastq(ctx.fastq.string(),
                                 io::BatchBounds{0, kOocBatchBytes});
      TimedBatchStream stream(fastq);
      tr::ScopedSpan span(tr::kCategoryApp, kCountSpan);
      const Timer timer;
      job.result = core::run_distributed_count(stream, ctx.options);
      job.count_s = timer.seconds();
      job.decode_s = stream.seconds();
    } else {
      {
        tr::ScopedSpan span(tr::kCategoryApp, kDecodeSpan);
        const Timer timer;
        reads = io::read_fastq_file(ctx.fastq.string());
        job.decode_s = timer.seconds();
      }
      tr::ScopedSpan span(tr::kCategoryApp, kCountSpan);
      const Timer timer;
      job.result = core::run_distributed_count(reads, ctx.options);
      job.count_s = timer.seconds();
    }
    file.counts = std::move(job.result.global_counts);
    {
      tr::ScopedSpan span(tr::kCategoryApp, kOutputSpan);
      const Timer timer;
      core::write_counts_binary_file(ctx.counts_out.string(), file);
      job.output_s = timer.seconds();
    }
    job.wall_s = wall.seconds();
  }
  job.rss_mib = peak_rss_mib();
  job.modeled_s = job.result.modeled_total_seconds();

  core::CountsFile back =
      core::read_counts_binary_file(ctx.counts_out.string());
  if (corrupt && !back.counts.empty()) back.counts.front().second += 1;
  const DumpDigest got = digest_of(back.counts);
  if (back.k != file.k) {
    job.problem = "counts file has the wrong k";
  } else if (got != ctx.expected) {
    job.problem = "counts differ from the reference: distinct " +
                  std::to_string(got.distinct) + " vs " +
                  std::to_string(ctx.expected.distinct) + ", total " +
                  std::to_string(got.total) + " vs " +
                  std::to_string(ctx.expected.total);
  } else if (job.result.total_kmers() != ctx.expected.total) {
    job.problem = "parsed k-mers differ from the reference total";
  }
  return job;
}

RunResult run_count_workload(const RunConfig& cfg, const char* preset_key,
                             bool ooc) {
  RunResult out;
  JsonObject details;
  const io::DatasetPreset preset = preset_named(preset_key);
  const std::uint64_t scale = cfg.scale != 0 ? cfg.scale
                                             : default_scale(cfg.workload);
  CountContext ctx;
  ctx.ooc = ooc;
  ctx.fastq = cfg.work_dir / "input.fastq";
  ctx.counts_out = cfg.work_dir / "counts.bin";
  ctx.options = count_options();
  if (ooc) {
    const fs::path spill = cfg.work_dir / "spill";
    fs::create_directories(spill);
    ctx.options.ooc.spill_root = spill.string();
    ctx.options.ooc.bins = kOocBins;
  }

  // Set-up: dataset generation and the FASTQ write, repeated.
  std::vector<double> setup_s;
  io::ReadBatch reads;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    const Timer timer;
    io::ReadBatch generated = io::make_dataset(preset, scale, cfg.seed);
    io::write_fastq_file(ctx.fastq.string(), generated);
    setup_s.push_back(timer.seconds());
    const std::uint64_t bytes = fs::file_size(ctx.fastq);
    if (rep > 0 && bytes != ctx.fastq_bytes) {
      out.errors.push_back("set-up is not deterministic for one seed");
    }
    ctx.fastq_bytes = bytes;
    ctx.bases = generated.total_bases();
    reads = std::move(generated);
  }
  bool computed = false;
  const fs::path cache = cfg.work_dir / "expected" /
                         ("seed" + std::to_string(cfg.seed) + "-scale" +
                          std::to_string(scale) + ".txt");
  const Timer reference_timer;
  ctx.expected = expected_digest(cache, reads, computed);
  details.add("reference_computed", computed);
  details.add("reference_s", reference_timer.seconds());
  reads = io::ReadBatch{};
  warm_page_cache(ctx.fastq);

  // One untimed job first: it pays first-touch page faults and pool
  // start-up that every later job finds done.
  if (const CountJob warm = run_count_job(ctx, false); !warm.problem.empty()) {
    out.errors.push_back("warm-up job: " + warm.problem);
  }

  // Timed jobs, untraced.
  std::vector<CountJob> jobs;
  const Timer window;
  while (jobs.size() < kMinJobs || window.seconds() < cfg.seconds) {
    CountJob job =
        run_count_job(ctx, cfg.corrupt_first_output && jobs.empty());
    job.result = core::CountResult{};
    jobs.push_back(std::move(job));
  }
  std::optional<CountJob> traced;
  TraceSummary summary;
  if (cfg.trace) {
    start_tracing();
    traced.emplace(run_count_job(ctx, /*corrupt=*/false));
    summary = summarize_session(kRanks);
    stop_tracing();
    for (std::string& error : accounting_errors(summary)) {
      out.errors.push_back(std::move(error));
    }
  }

  std::vector<double> walls, decode, count, output, rss, bases_rate, kmer_rate;
  const auto kmers = static_cast<double>(ctx.expected.total);
  for (const CountJob& job : jobs) {
    walls.push_back(job.wall_s);
    decode.push_back(job.decode_s);
    count.push_back(job.count_s);
    output.push_back(job.output_s);
    rss.push_back(job.rss_mib);
    bases_rate.push_back(static_cast<double>(ctx.bases) / job.wall_s);
    kmer_rate.push_back(kmers / job.wall_s);
  }
  const double modeled_s = jobs.front().modeled_s;
  std::vector<const CountJob*> all;
  for (const CountJob& job : jobs) all.push_back(&job);
  if (traced) all.push_back(&*traced);
  for (const CountJob* job : all) {
    ++out.attempted;
    if (!job->problem.empty()) {
      ++out.failed;
      out.errors.push_back(job->problem);
    } else if (job->modeled_s != modeled_s) {
      ++out.failed;
      out.errors.push_back("modeled time differs between identical jobs");
    }
  }

  details.add("preset", preset_key);
  details.add("scale", scale);
  details.add("bases", ctx.bases);
  details.add("fastq_bytes", ctx.fastq_bytes);
  details.add("kmers", ctx.expected.total);
  details.add("distinct", ctx.expected.distinct);
  details.add("jobs", static_cast<std::uint64_t>(jobs.size()));
  details.add("peak_rss_reset",
              std::all_of(jobs.begin(), jobs.end(),
                          [](const CountJob& job) { return job.rss_reset; }));
  details.add_raw("job_walls_s", json_array(walls));
  details.add("decode_p50_ms", median(decode) * 1e3);
  details.add("count_p50_ms", median(count) * 1e3);
  details.add("output_p50_ms", median(output) * 1e3);
  details.add("setup_reps", static_cast<std::uint64_t>(setup_s.size()));

  if (!cfg.trace) {
    out.metrics = {
        {"bases_per_s", median(bases_rate), "1/s"},
        {"modeled_s", modeled_s, "s"},
        {"peak_rss_mib", median(rss), "MiB"},
        {"setup_s", median(setup_s), "s"},
        {"qps", median(kmer_rate), "1/s"},
        {"batch_p50_ms", median(walls) * 1e3, "ms"},
        {"modeled_qps", kmers / modeled_s, "1/s"},
        {"modeled_batch_p99_ms", modeled_s * 1e3, "ms"},
    };
  } else {
    LayerInputs in;
    in.count = &traced->result;
    in.decode_bytes = ctx.fastq_bytes;
    in.untraced_job_s = median(walls);
    out.metrics = per_layer_metrics(summary, in);
  }
  out.details = details.str();
  return out;
}

// ---- serving workload ------------------------------------------------------

/// Sums of the per-rank engine ledgers.
struct ServeLedger {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t staged_bytes = 0;
  store::DistributedQueryStats tier;
};

ServeLedger ledger_of(const store::DistributedQueryEngine& engine) {
  ServeLedger ledger;
  for (int r = 0; r < engine.ranks(); ++r) {
    const store::QueryStats& s = engine.rank_stats(r);
    ledger.cache_hits += s.cache_hits;
    ledger.cache_misses += s.cache_misses;
    ledger.staged_bytes += s.staged_bytes;
  }
  ledger.tier = engine.stats();
  return ledger;
}

RunResult run_serve_workload(const RunConfig& cfg) {
  RunResult out;
  JsonObject details;
  const io::DatasetPreset preset = preset_named("ecoli30x");
  const std::uint64_t scale = cfg.scale != 0 ? cfg.scale
                                             : default_scale(cfg.workload);
  const fs::path store_dir = cfg.work_dir / "store";
  const core::DriverOptions options = count_options();

  // Set-up: generate, count, and write a 32-shard store, repeated.
  std::vector<double> setup_s;
  DumpDigest counted;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    const Timer timer;
    const io::ReadBatch reads = io::make_dataset(preset, scale, cfg.seed);
    const core::CountResult result =
        core::run_distributed_count(reads, options);
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);
    (void)store::write_store(
        store_dir.string(), result.global_counts,
        options.pipeline.encoding(),
        core::store_routing_for(options.pipeline, kStoreShards));
    setup_s.push_back(timer.seconds());
    const DumpDigest digest = digest_of(result.global_counts);
    if (rep > 0 && digest != counted) {
      out.errors.push_back("set-up is not deterministic for one seed");
    }
    counted = digest;
  }

  const auto open_store = [&store_dir] {
    tr::ScopedSpan span(tr::kCategoryApp, kStoreOpenSpan);
    return store::KmerStore::open(store_dir.string());
  };
  if (cfg.trace) start_tracing();
  const Timer open_timer;
  const store::KmerStore kstore = open_store();
  const double open_s = open_timer.seconds();
  double traced_open_s = 0.0;
  if (cfg.trace) {
    traced_open_s = main_span_seconds(kStoreOpenSpan);
    stop_tracing();
  }

  // The reference every answer is checked against: the store's own dump.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> flat =
      kstore.scan_all();
  if (digest_of(flat) != counted) {
    out.errors.push_back("store scan differs from the counted dump");
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(flat.size());
  for (const auto& entry : flat) keys.push_back(entry.first);
  const std::vector<std::uint64_t> traffic =
      make_zipf_traffic(keys, kstore.k(), kZipfSkew, kPassBatches * kBatchKeys,
                        cfg.seed);
  std::vector<std::uint64_t> expected(traffic.size(), 0);
  std::uint64_t absent = 0;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    const auto it = std::lower_bound(keys.begin(), keys.end(), traffic[i]);
    if (it != keys.end() && *it == traffic[i]) {
      expected[i] = flat[static_cast<std::size_t>(it - keys.begin())].second;
    } else {
      ++absent;
    }
  }

  store::DistributedQueryConfig tier;
  tier.ranks = kRanks;
  tier.cache_shards = kStoreShards / kRanks;
  store::DistributedQueryEngine engine(kstore, tier);
  const auto batch_of = [&traffic](std::size_t b) {
    return std::span<const std::uint64_t>(
        traffic.data() + (b % kPassBatches) * kBatchKeys, kBatchKeys);
  };

  // Warm every rank's cache: stage each owned shard once, evict nothing.
  const auto all_resident = [&engine] {
    for (int r = 0; r < engine.ranks(); ++r) {
      const store::QueryStats& s = engine.rank_stats(r);
      if (s.cache_misses != engine.owned_shards(r).size() ||
          s.evictions != 0) {
        return false;
      }
    }
    return true;
  };
  std::size_t warm_batches = 0;
  while (!all_resident() && warm_batches < kPassBatches) {
    (void)engine.lookup(batch_of(warm_batches++));
  }
  if (!all_resident()) {
    out.errors.push_back("warm-up left a shard non-resident or evicted one");
  }

  // One closed-loop client: the next batch goes out after the previous
  // lookup() returns; answers are checked after each batch's timer stops.
  std::vector<double> batch_wall;
  std::vector<double> pass_modeled;  // first pass only: deterministic
  bool corrupt_next = cfg.corrupt_first_output;
  const auto serve_batch = [&](std::size_t b) {
    const std::span<const std::uint64_t> queries = batch_of(b);
    const double modeled_before = engine.stats().serve_seconds;
    std::vector<std::uint64_t> answers;
    double wall = 0.0;
    {
      tr::ScopedSpan span(tr::kCategoryApp, kLookupSpan);
      const Timer timer;
      answers = engine.lookup(queries);
      wall = timer.seconds();
    }
    if (corrupt_next && !answers.empty()) {
      answers.front() += 1;
      corrupt_next = false;
    }
    const std::size_t base = (b % kPassBatches) * kBatchKeys;
    out.attempted += queries.size();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (i >= answers.size() || answers[i] != expected[base + i]) {
        ++out.failed;
      }
    }
    return std::pair<double, double>(
        wall, engine.stats().serve_seconds - modeled_before);
  };

  // Untraced: one pass over all the traffic, then (end-to-end runs) the
  // first kProbeBatches batches again and again until the window closes,
  // or (traced runs) whole passes, the traced job's baseline. A batch's
  // latency is its fastest send: the shared host's stalls only ever add
  // time, and the program's state is the same on every send (all shards
  // resident, nothing evicted).
  const bool rss_reset = reset_peak_rss();
  const ServeLedger at_start = ledger_of(engine);
  const Timer window;
  std::vector<double> best_wall(kPassBatches, 0.0);
  std::vector<double> pass_wall_s;
  std::size_t b = 0;
  const auto send = [&](std::size_t index) {
    const auto [wall, modeled] = serve_batch(index);
    batch_wall.push_back(wall);
    const std::size_t slot = index % kPassBatches;
    best_wall[slot] =
        index < kPassBatches ? wall : std::min(best_wall[slot], wall);
    if (index < kPassBatches) pass_modeled.push_back(modeled);
    return wall;
  };
  std::size_t probe_rounds = 0;
  while (b < kPassBatches || (cfg.trace && pass_wall_s.size() < kMinPasses)) {
    double pass_wall = 0.0;
    for (std::size_t i = 0; i < kPassBatches; ++i) pass_wall += send(b++);
    pass_wall_s.push_back(pass_wall);
  }
  // Peak memory of the fixed first pass; the re-sends add no state.
  const double peak_rss = peak_rss_mib();
  while (!cfg.trace &&
         (probe_rounds < kMinProbeRounds || window.seconds() < cfg.seconds)) {
    for (std::size_t i = 0; i < kProbeBatches; ++i) {
      (void)send(i + kPassBatches);
    }
    ++probe_rounds;
  }
  const ServeLedger at_end = ledger_of(engine);
  if (at_end.cache_misses != at_start.cache_misses) {
    out.errors.push_back("a timed batch missed the warm cache");
  }
  const std::vector<double> probe_best(best_wall.begin(),
                                       best_wall.begin() + kProbeBatches);

  const auto pass_queries = static_cast<double>(kPassBatches * kBatchKeys);
  double modeled_s = 0.0;
  for (const double m : pass_modeled) modeled_s += m;
  const TailPercentile modeled_tail =
      highest_supported_percentile(pass_modeled);
  if (modeled_tail.percentile != 99.0) {
    out.errors.push_back("too few batches for a modeled p99");
  }
  const TailPercentile wall_tail = highest_supported_percentile(batch_wall);

  details.add("preset", "ecoli30x");
  details.add("scale", scale);
  details.add("store_entries", static_cast<std::uint64_t>(flat.size()));
  details.add("store_shards", static_cast<std::uint64_t>(kStoreShards));
  details.add("batch_keys", static_cast<std::uint64_t>(kBatchKeys));
  details.add("absent_share", static_cast<double>(absent) /
                                  static_cast<double>(traffic.size()));
  details.add("warm_batches", static_cast<std::uint64_t>(warm_batches));
  details.add("batches", static_cast<std::uint64_t>(batch_wall.size()));
  details.add("passes", static_cast<std::uint64_t>(pass_wall_s.size()));
  details.add("probe_batches", static_cast<std::uint64_t>(kProbeBatches));
  details.add("probe_rounds", static_cast<std::uint64_t>(probe_rounds));
  details.add("raw_batch_p50_ms", median(batch_wall) * 1e3);
  details.add("store_open_s", open_s);
  details.add("peak_rss_reset", rss_reset);
  details.add("modeled_batch_tail_percentile", modeled_tail.percentile);
  details.add("modeled_batch_tail_samples",
              static_cast<std::uint64_t>(modeled_tail.samples));
  details.add("wall_batch_tail_percentile", wall_tail.percentile);
  details.add("wall_batch_tail_ms", wall_tail.value * 1e3);
  details.add("wall_batch_samples",
              static_cast<std::uint64_t>(wall_tail.samples));
  details.add("setup_reps", static_cast<std::uint64_t>(setup_s.size()));
  if (!cfg.trace) {
    double best_sum = 0.0;
    for (const double w : probe_best) best_sum += w;
    const double qps =
        static_cast<double>(kProbeBatches * kBatchKeys) / best_sum;
    out.metrics = {
        {"bases_per_s", qps * static_cast<double>(kstore.k()), "1/s"},
        {"modeled_s", modeled_s, "s"},
        {"peak_rss_mib", peak_rss, "MiB"},
        {"setup_s", median(setup_s), "s"},
        {"qps", qps, "1/s"},
        {"batch_p50_ms", median(probe_best) * 1e3, "ms"},
        {"modeled_qps", pass_queries / modeled_s, "1/s"},
        {"modeled_batch_p99_ms", modeled_tail.value * 1e3, "ms"},
    };
    out.details = details.str();
    return out;
  }

  // Traced run: one more pass with in-memory tracing on.
  start_tracing();
  const ServeLedger before = ledger_of(engine);
  for (std::size_t i = 0; i < kPassBatches; ++i) (void)serve_batch(i);
  const ServeLedger after = ledger_of(engine);
  const TraceSummary summary = summarize_session(kRanks);
  stop_tracing();
  for (std::string& error : accounting_errors(summary)) {
    out.errors.push_back(std::move(error));
  }

  LayerInputs in;
  in.store_open_s = traced_open_s;
  in.queries = after.tier.queries - before.tier.queries;
  in.dedup_saved = after.tier.dedup_saved - before.tier.dedup_saved;
  in.cache_hits = after.cache_hits - before.cache_hits;
  in.shard_touches = in.cache_hits + after.cache_misses - before.cache_misses;
  in.staged_bytes = after.staged_bytes - before.staged_bytes;
  in.nic_bytes = after.tier.nic_bytes - before.tier.nic_bytes;
  in.modeled_exchange_s =
      after.tier.exchange_seconds - before.tier.exchange_seconds;
  in.modeled_lookup_s = after.tier.lookup_seconds - before.tier.lookup_seconds;
  in.untraced_job_s = median(pass_wall_s);
  out.metrics = per_layer_metrics(summary, in);
  out.details = details.str();
  return out;
}

}  // namespace

std::uint64_t default_scale(const std::string& workload) {
  if (workload == "supermer-hsapiens") return 16000;
  if (workload == "ooc-ecoli-stream") return 20;
  if (workload == "serve-zipf") return 40;
  throw std::invalid_argument("unknown workload: " + workload);
}

RunResult run_workload(const RunConfig& config) {
  if (config.workload == "supermer-hsapiens") {
    return run_count_workload(config, "hsapiens54x", /*ooc=*/false);
  }
  if (config.workload == "ooc-ecoli-stream") {
    return run_count_workload(config, "ecoli30x", /*ooc=*/true);
  }
  if (config.workload == "serve-zipf") return run_serve_workload(config);
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace perfbench
