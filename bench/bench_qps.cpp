// Serving benchmark — modeled query throughput of the sharded k-mer store
// (src/store) under Zipf-skewed point-lookup traffic.
//
// Not a paper figure: the paper positions the counter as the front end of
// assembly/profiling/search pipelines, and this driver measures the other
// half of that story — what it costs to *serve* the counted spectrum from
// GPU-resident shards. A counting run builds the store; a deterministic
// seeded workload then sweeps skew x hot-shard cache size x batch size and
// reports modeled QPS plus per-batch latency percentiles.
//
// Self-checks (DEDUKT_CHECK, so a regression aborts the run): every query
// answer is bit-identical to a host map built from the flat counts dump,
// the device histogram matches the host capped spectrum, and caching must
// strictly beat the uncached configuration once traffic is skewed
// (skew >= 1.0 concentrates queries on few shards, so hot shards stay
// device-resident instead of being re-staged every batch).
//
// The second half sweeps the distributed serving tier
// (store::DistributedQueryEngine): the same traffic served by P ranks with
// shard i pinned to rank i mod P, across ranks x skew x cache discipline,
// lockstep and pipelined. The store is built from a 32-rank counting run
// so every tier size places multiple shards per rank.
// Tier self-checks: answers bit-identical to the single-rank engine (and
// therefore to the flat dump) at every rank count, 8-rank aggregate QPS
// >= 4x the single-rank engine on skewed traffic, and --overlap-batches
// strictly reduces modeled serve time whenever both the exchange and the
// lookups cost anything.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dedukt/core/store_export.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/store/distributed_query.hpp"
#include "dedukt/store/query.hpp"
#include "dedukt/store/store.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/rng.hpp"
#include "dedukt/util/table.hpp"

namespace {

using namespace dedukt;

/// Deterministic Zipf-over-keys sampler: key ranks are a seeded shuffle of
/// the stored keys, and rank r is drawn with probability proportional to
/// 1/(r+1)^skew (skew 0 = uniform). Sampling inverts a precomputed CDF.
class ZipfKeySampler {
 public:
  ZipfKeySampler(std::vector<std::uint64_t> keys, double skew,
                 std::uint64_t seed)
      : keys_(std::move(keys)), rng_(seed) {
    // Seeded Fisher-Yates so "popular" keys are spread across shards
    // rather than following store order.
    for (std::size_t i = keys_.size(); i > 1; --i) {
      std::swap(keys_[i - 1], keys_[rng_.below(i)]);
    }
    cdf_.reserve(keys_.size());
    double total = 0.0;
    for (std::size_t r = 0; r < keys_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::uint64_t draw() {
    // 30 uniform bits are plenty of resolution for laptop-scale key sets.
    const double u = static_cast<double>(rng_.below(1u << 30)) /
                     static_cast<double>(1u << 30);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t r = it == cdf_.end()
                              ? keys_.size() - 1
                              : static_cast<std::size_t>(it - cdf_.begin());
    return keys_[r];
  }

 private:
  std::vector<std::uint64_t> keys_;
  Xoshiro256 rng_;
  std::vector<double> cdf_;
};

/// The full deterministic traffic for one sweep configuration: Zipf draws
/// with ~1/8 absent-key (miss) queries mixed in.
std::vector<std::uint64_t> make_traffic(
    const std::vector<std::uint64_t>& keys, double skew, std::size_t n,
    int k, const std::map<std::uint64_t, std::uint64_t>& present,
    std::uint64_t seed) {
  ZipfKeySampler sampler(keys, skew, seed);
  Xoshiro256 rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<std::uint64_t> traffic;
  traffic.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.below(8) == 0) {
      std::uint64_t absent = rng.below(kmer::code_mask(k) + 1);
      while (present.count(absent) != 0) ++absent;
      traffic.push_back(absent);
    } else {
      traffic.push_back(sampler.draw());
    }
  }
  return traffic;
}

struct SweepResult {
  store::QueryStats stats;
  double p50 = 0.0;
  double p99 = 0.0;
};

double percentile(std::vector<double> sorted_ascending, double p) {
  if (sorted_ascending.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ascending.size() - 1));
  return sorted_ascending[idx];
}

SweepResult run_sweep(const store::KmerStore& kstore,
                      const std::vector<std::uint64_t>& traffic,
                      std::uint32_t cache_shards, std::size_t batch,
                      const std::map<std::uint64_t, std::uint64_t>& reference) {
  gpusim::Device device;
  store::QueryEngineConfig config;
  config.cache_shards = cache_shards;
  store::QueryEngine engine(kstore, device, config);

  std::vector<double> batch_seconds;
  for (std::size_t begin = 0; begin < traffic.size(); begin += batch) {
    const std::size_t len = std::min(batch, traffic.size() - begin);
    const std::vector<std::uint64_t> queries(
        traffic.begin() + static_cast<std::ptrdiff_t>(begin),
        traffic.begin() + static_cast<std::ptrdiff_t>(begin + len));
    const std::vector<std::uint64_t> counts = engine.lookup(queries);
    batch_seconds.push_back(engine.last_batch_seconds());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto it = reference.find(queries[i]);
      const std::uint64_t expected = it == reference.end() ? 0 : it->second;
      DEDUKT_CHECK_MSG(counts[i] == expected,
                       "query answer diverged from the flat counts dump for "
                       "key " << queries[i]);
    }
  }
  std::sort(batch_seconds.begin(), batch_seconds.end());
  SweepResult result;
  result.stats = engine.stats();
  result.p50 = percentile(batch_seconds, 0.5);
  result.p99 = percentile(batch_seconds, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::start(argc, argv, "Serving QPS",
               "Modeled query throughput of the sharded k-mer store under\n"
               "Zipf-skewed batched point lookups (not a paper figure).");

  const int nranks = 32;
  const std::size_t queries_total = 32768;

  // Build the store from a real counting run. bench::run_pipeline drops
  // the counts (benchmarks usually only need metrics), so set the driver
  // up directly with the same chunking policy but counts collected.
  const auto datasets = bench::load_datasets({"ecoli30x"});
  core::DriverOptions options;
  options.pipeline.kind = core::PipelineKind::kGpuSupermer;
  options.nranks = nranks;
  const std::uint64_t total_bases = datasets[0].reads.total_bases();
  const std::uint64_t chunk = std::max<std::uint64_t>(
      96, total_bases / (static_cast<std::uint64_t>(nranks) * 24));
  const core::CountResult counted = core::run_distributed_count(
      bench::chunk_reads(datasets[0].reads, chunk), options);
  DEDUKT_CHECK_MSG(!counted.global_counts.empty(),
                   "counting run produced no k-mers");
  const bench::ScratchDir store_dir("dedukt-bench-qps");
  (void)core::write_store_from_result(store_dir.path(), counted);
  const store::KmerStore kstore = store::KmerStore::open(store_dir.path());

  // Host-side reference: the flat dump as a map, for bit-exact checking.
  const auto flat = kstore.scan_all();
  DEDUKT_CHECK_MSG(flat == counted.global_counts,
                   "store scan diverged from the counting result");
  const std::map<std::uint64_t, std::uint64_t> reference(flat.begin(),
                                                         flat.end());
  std::vector<std::uint64_t> keys;
  keys.reserve(flat.size());
  for (const auto& [key, count] : flat) keys.push_back(key);

  // Device histogram must match the host capped spectrum exactly.
  {
    gpusim::Device device;
    store::QueryEngineConfig config;
    config.histogram_bins = 64;
    store::QueryEngine engine(kstore, device, config);
    const std::vector<std::uint64_t> bins = engine.histogram();
    std::vector<std::uint64_t> expected(64, 0);
    for (const auto& [key, count] : flat) {
      expected[std::min<std::uint64_t>(count, 63)] += 1;
    }
    DEDUKT_CHECK_MSG(bins == expected,
                     "device histogram diverged from the host spectrum");
  }

  std::printf("store: %u shards, %s entries, %s routing; %zu queries per "
              "configuration (~1/8 misses)\n\n",
              kstore.shards(), format_count(kstore.manifest().total_entries()).c_str(),
              to_string(kstore.routing().mode()), queries_total);

  // Cache sweep: none, half the shards, all shards. A batch's Zipf tail
  // plus its uniform miss traffic touches every shard, so the half-size
  // LRU thrashes (sequential scan over more shards than slots — the table
  // shows it honestly at ~0% hits); the full-size cache keeps every shard
  // resident after the first batch and removes the re-staging entirely.
  const std::vector<double> skews = {0.0, 1.0, 1.5};
  const std::uint32_t full_cache = kstore.shards();
  const std::vector<std::uint32_t> cache_sizes = {0, full_cache / 2,
                                                  full_cache};
  const std::vector<std::size_t> batches = {1024, 8192};

  TextTable table("Serving QPS — modeled, Zipf traffic over " +
                  datasets[0].preset.short_name);
  table.set_header({"skew", "cache", "batch", "modeled QPS", "p50 batch",
                    "p99 batch", "hit rate"});

  // cached-vs-uncached comparison, per (skew, batch) pair
  std::map<std::pair<double, std::size_t>, std::map<std::uint32_t, double>>
      qps_by_config;

  for (const double skew : skews) {
    const std::vector<std::uint64_t> traffic = make_traffic(
        keys, skew, queries_total, kstore.k(), reference,
        0xC0FFEEull + static_cast<std::uint64_t>(skew * 1000));
    for (const std::uint32_t cache : cache_sizes) {
      for (const std::size_t batch : batches) {
        const SweepResult sweep =
            run_sweep(kstore, traffic, cache, batch, reference);
        const double qps =
            static_cast<double>(sweep.stats.queries) /
            sweep.stats.modeled_seconds;
        const double hit_rate =
            sweep.stats.cache_hits + sweep.stats.cache_misses > 0
                ? static_cast<double>(sweep.stats.cache_hits) /
                      static_cast<double>(sweep.stats.cache_hits +
                                          sweep.stats.cache_misses)
                : 0.0;
        qps_by_config[{skew, batch}][cache] = qps;

        char skew_buf[16], hit_buf[16];
        std::snprintf(skew_buf, sizeof(skew_buf), "%.1f", skew);
        std::snprintf(hit_buf, sizeof(hit_buf), "%.0f%%", hit_rate * 100);
        table.add_row({skew_buf,
                       cache == 0 ? "off" : std::to_string(cache),
                       std::to_string(batch),
                       format_count(static_cast<std::uint64_t>(qps)),
                       format_seconds(sweep.p50),
                       format_seconds(sweep.p99), hit_buf});
      }
    }
  }
  table.print();
  std::printf("\n");

  // The modeled caching win: at skew >= 1.0 the hot shards dominate the
  // traffic, so keeping them resident must strictly beat re-staging.
  for (const auto& [config, by_cache] : qps_by_config) {
    const auto& [skew, batch] = config;
    if (skew < 1.0) continue;
    DEDUKT_CHECK_MSG(by_cache.at(full_cache) > by_cache.at(0),
                     "cached QPS did not beat uncached at skew "
                         << skew << " batch " << batch);
  }
  std::printf("check: cached (%u resident shards) beats uncached modeled "
              "QPS at every skew >= 1.0 configuration\n",
              full_cache);

  // ---- distributed serving tier sweep -------------------------------
  //
  // The same skewed traffic served by a rank-pinned tier: ranks x cache
  // discipline, lockstep and pipelined. Every configuration's answers are
  // checked bit-identical to a single-rank QueryEngine fed the identical
  // batches (which the first half already pinned to the flat dump).
  const std::size_t dist_batch = 8192;
  const std::vector<int> tier_sizes = {1, 2, 4, 8};
  const std::vector<double> dist_skews = {1.0, 1.5};

  TextTable dist_table(
      "Distributed serving tier — modeled aggregate QPS, batch " +
      std::to_string(dist_batch));
  dist_table.set_header({"skew", "discipline", "ranks", "overlap",
                         "modeled QPS", "serve", "exchange", "speedup"});

  for (const double skew : dist_skews) {
    const std::vector<std::uint64_t> traffic = make_traffic(
        keys, skew, queries_total, kstore.k(), reference,
        0xC0FFEEull + static_cast<std::uint64_t>(skew * 1000));
    std::vector<std::vector<std::uint64_t>> batch_list;
    for (std::size_t begin = 0; begin < traffic.size();
         begin += dist_batch) {
      const std::size_t len = std::min(dist_batch, traffic.size() - begin);
      batch_list.emplace_back(
          traffic.begin() + static_cast<std::ptrdiff_t>(begin),
          traffic.begin() + static_cast<std::ptrdiff_t>(begin + len));
    }

    // The bit-identity oracle: a fully cached single-rank engine fed the
    // same batches. Its per-key answers were already checked against the
    // flat dump above, so tier == oracle implies tier == dump.
    std::vector<std::vector<std::uint64_t>> oracle;
    double single_engine_seconds = 0.0;
    {
      gpusim::Device device;
      store::QueryEngineConfig config;
      config.cache_shards = full_cache;
      store::QueryEngine engine(kstore, device, config);
      for (const auto& b : batch_list) oracle.push_back(engine.lookup(b));
      single_engine_seconds = engine.stats().modeled_seconds;
      for (std::size_t b = 0; b < batch_list.size(); ++b) {
        for (std::size_t i = 0; i < batch_list[b].size(); ++i) {
          const auto it = reference.find(batch_list[b][i]);
          const std::uint64_t expected =
              it == reference.end() ? 0 : it->second;
          DEDUKT_CHECK_MSG(oracle[b][i] == expected,
                           "oracle answer diverged from the flat dump");
        }
      }
    }
    const double single_qps =
        static_cast<double>(queries_total) / single_engine_seconds;

    for (const bool freq : {false, true}) {
      for (const int tier : tier_sizes) {
        double lockstep_serve = 0.0;
        for (const bool overlap : {false, true}) {
          if (overlap && tier < 2) continue;
          store::DistributedQueryConfig config;
          config.ranks = tier;
          config.cache_shards =
              (kstore.shards() + static_cast<std::uint32_t>(tier) - 1) /
              static_cast<std::uint32_t>(tier);
          config.freq_admission = freq;
          config.overlap_batches = overlap;
          store::DistributedQueryEngine engine(kstore, config);
          const std::vector<std::vector<std::uint64_t>> answers =
              engine.lookup_batches(batch_list);
          DEDUKT_CHECK_MSG(answers == oracle,
                           "distributed answers diverged from the "
                           "single-rank engine at ranks "
                               << tier << " skew " << skew);
          const store::DistributedQueryStats& st = engine.stats();
          const double qps =
              static_cast<double>(st.queries) / st.serve_seconds;
          if (!overlap) {
            lockstep_serve = st.serve_seconds;
            DEDUKT_CHECK_MSG(st.overlap_saved_seconds == 0.0,
                             "lockstep run reported overlap savings");
          } else {
            // The pipelined run's components are bit-identical to the
            // lockstep run's, so its counterfactual lockstep time must
            // reproduce the lockstep run exactly — and the overlapped
            // schedule must be strictly cheaper (exchange and lookups
            // both cost something here).
            DEDUKT_CHECK_MSG(st.lockstep_seconds == lockstep_serve,
                             "pipelined run's lockstep model diverged "
                             "from the lockstep run");
            DEDUKT_CHECK_MSG(st.serve_seconds < lockstep_serve,
                             "--overlap-batches did not reduce modeled "
                             "serve time at ranks "
                                 << tier << " skew " << skew);
            DEDUKT_CHECK_MSG(st.overlap_saved_seconds > 0.0,
                             "pipelined run saved nothing");
          }

          char skew_buf[16], speedup_buf[16];
          std::snprintf(skew_buf, sizeof(skew_buf), "%.1f", skew);
          std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                        qps / single_qps);
          dist_table.add_row(
              {skew_buf, freq ? "freq" : "lru", std::to_string(tier),
               overlap ? "on" : "off",
               format_count(static_cast<std::uint64_t>(qps)),
               format_seconds(st.serve_seconds),
               format_seconds(st.exchange_seconds), speedup_buf});

          // The tentpole claim: pinning shards across 8 ranks must serve
          // skewed traffic at >= 4x the single-rank engine's QPS.
          if (tier == 8 && !overlap) {
            DEDUKT_CHECK_MSG(
                qps >= 4.0 * single_qps,
                "8-rank tier QPS " << qps << " is under 4x the single-rank "
                                   << single_qps << " at skew " << skew);
          }
        }
      }
    }
  }
  dist_table.print();
  std::printf(
      "\ncheck: tier answers bit-identical to the single-rank engine at "
      "every rank count; 8-rank QPS >= 4x single-rank; pipelining "
      "strictly reduces modeled serve time\n");
  return 0;
}
