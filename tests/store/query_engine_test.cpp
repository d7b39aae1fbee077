// QueryEngine tests: query results bit-identical to a linear scan of the
// flat dump, LRU hit/miss accounting (deterministic across pool sizes),
// and the modeled win of hot-shard caching on skewed traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/core/store_export.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/store/query.hpp"
#include "dedukt/store/store.hpp"
#include "dedukt/util/rng.hpp"
#include "dedukt/util/thread_pool.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::store {
namespace {

using test_support::fresh_dir;

/// One pipeline-built store shared by the whole battery (built once).
const std::string& pipeline_store_dir() {
  static const std::string dir = [] {
    io::GenomeSpec gspec;
    gspec.length = 8'000;
    gspec.seed = 29;
    io::ReadSpec rspec;
    rspec.coverage = 4.0;
    rspec.mean_read_length = 300;
    rspec.min_read_length = 80;
    const io::ReadBatch reads = io::generate_dataset(gspec, rspec);
    core::DriverOptions options;
    options.nranks = 6;
    const core::CountResult result =
        core::run_distributed_count(reads, options);
    const std::string path = fresh_dir("query_engine_store");
    (void)core::write_store_from_result(path, result);
    return path;
  }();
  return dir;
}

/// Deterministic query stream: stored keys plus ~1/4 absent keys.
std::vector<std::uint64_t> query_stream(const KmerStore& store,
                                        std::size_t n, std::uint64_t seed) {
  const auto flat = store.scan_all();
  std::map<std::uint64_t, std::uint64_t> present(flat.begin(), flat.end());
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  while (keys.size() < n) {
    if (rng.below(4) == 0) {
      std::uint64_t absent = rng.below(kmer::code_mask(store.k()) + 1);
      while (present.count(absent) != 0) ++absent;
      keys.push_back(absent);
    } else {
      keys.push_back(flat[rng.below(flat.size())].first);
    }
  }
  return keys;
}

TEST(QueryEngineTest, LookupBitIdenticalToLinearScan) {
  const KmerStore store = KmerStore::open(pipeline_store_dir());
  const auto flat = store.scan_all();
  const std::map<std::uint64_t, std::uint64_t> reference(flat.begin(),
                                                         flat.end());
  gpusim::Device device;
  QueryEngine engine(store, device, {.cache_shards = 3});

  const std::vector<std::uint64_t> keys = query_stream(store, 2048, 0xFEED);
  const std::vector<std::uint64_t> counts = engine.lookup(keys);
  ASSERT_EQ(counts.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto it = reference.find(keys[i]);
    EXPECT_EQ(counts[i], it == reference.end() ? 0u : it->second)
        << "key index " << i;
  }
  EXPECT_EQ(engine.stats().queries, keys.size());
  EXPECT_GT(engine.stats().found, 0u);
  EXPECT_GT(engine.stats().modeled_seconds, 0.0);
}

TEST(QueryEngineTest, ContainsMatchesLookup) {
  const KmerStore store = KmerStore::open(pipeline_store_dir());
  gpusim::Device device;
  QueryEngine engine(store, device);
  const std::vector<std::uint64_t> keys = query_stream(store, 512, 0xD00D);
  const std::vector<std::uint64_t> counts = engine.lookup(keys);
  const std::vector<std::uint8_t> members = engine.contains(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(members[i], counts[i] != 0 ? 1 : 0);
  }
}

TEST(QueryEngineTest, HistogramMatchesHostSpectrum) {
  const KmerStore store = KmerStore::open(pipeline_store_dir());
  gpusim::Device device;
  QueryEngineConfig config;
  config.histogram_bins = 16;
  QueryEngine engine(store, device, config);
  const std::vector<std::uint64_t> bins = engine.histogram();
  ASSERT_EQ(bins.size(), 16u);

  std::vector<std::uint64_t> expected(16, 0);
  for (const auto& [key, count] : store.scan_all()) {
    expected[std::min<std::uint64_t>(count, 15)] += 1;
  }
  EXPECT_EQ(bins, expected);
  EXPECT_EQ(bins[0], 0u);  // no zero counts in a store
}

TEST(QueryEngineTest, UncachedModeReleasesEveryShard) {
  const KmerStore store = KmerStore::open(pipeline_store_dir());
  gpusim::Device device;
  const std::uint64_t before = device.allocated_bytes();
  QueryEngine engine(store, device, {.cache_shards = 0});
  const std::vector<std::uint64_t> keys = query_stream(store, 256, 0xBEEF);
  (void)engine.lookup(keys);
  EXPECT_EQ(engine.resident_shards(), 0u);
  EXPECT_EQ(device.allocated_bytes(), before);
  // Without a cache every touched shard is a miss, every batch.
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_GT(engine.stats().cache_misses, 0u);
}

TEST(QueryEngineTest, LruEvictsLeastRecentlyTouchedShard) {
  // Hand-built store with 4 tiny shards so touch order is controllable:
  // kmer-hash routing, keys picked to land one per shard.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
  const StoreRouting routing = StoreRouting::kmer_hash(4, 17);
  std::vector<std::uint64_t> probe_key(4, 0);
  std::uint64_t key = 1;
  for (std::uint32_t want = 0; want < 4; ++want) {
    while (routing.shard_of(key) != want) ++key;
    probe_key[want] = key;
    counts.emplace_back(key, want + 1);
    ++key;
  }
  std::sort(counts.begin(), counts.end());
  const std::string dir = fresh_dir("query_lru");
  (void)write_store(dir, counts, io::BaseEncoding::kRandomized, routing);
  const KmerStore store = KmerStore::open(dir);

  gpusim::Device device;
  QueryEngine engine(store, device, {.cache_shards = 2});
  auto touch = [&](std::uint32_t shard) {
    const std::vector<std::uint64_t> one = {probe_key[shard]};
    (void)engine.lookup(one);
  };

  touch(0);  // resident: {0}
  touch(1);  // resident: {0, 1}
  EXPECT_EQ(engine.stats().cache_misses, 2u);
  EXPECT_EQ(engine.stats().evictions, 0u);
  touch(2);  // evicts 0 (least recently touched) -> {1, 2}
  EXPECT_EQ(engine.stats().evictions, 1u);
  touch(1);  // hit -> 1 is now newest
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  touch(3);  // evicts 2, not 1 -> {1, 3}
  EXPECT_EQ(engine.stats().evictions, 2u);
  touch(1);  // still resident: hit
  EXPECT_EQ(engine.stats().cache_hits, 2u);
  touch(0);  // 0 was evicted: miss again
  EXPECT_EQ(engine.stats().cache_misses, 5u);
  EXPECT_EQ(engine.resident_shards(), 2u);
}

TEST(QueryEngineTest, StatsAndModeledTimesIdenticalAcrossSimThreads) {
  const KmerStore store = KmerStore::open(pipeline_store_dir());
  const std::vector<std::uint64_t> keys =
      query_stream(store, 1024, 0x5EED);

  auto run_with_threads = [&](unsigned threads) {
    util::ThreadPool::set_global_threads(threads);
    gpusim::Device device;
    QueryEngine engine(store, device, {.cache_shards = 2});
    std::vector<std::uint64_t> counts;
    for (std::size_t begin = 0; begin < keys.size(); begin += 256) {
      const std::size_t len = std::min<std::size_t>(256, keys.size() - begin);
      const std::vector<std::uint64_t> batch(
          keys.begin() + static_cast<std::ptrdiff_t>(begin),
          keys.begin() + static_cast<std::ptrdiff_t>(begin + len));
      const std::vector<std::uint64_t> result = engine.lookup(batch);
      counts.insert(counts.end(), result.begin(), result.end());
    }
    (void)engine.histogram();
    return std::make_pair(counts, engine.stats());
  };

  const auto [counts1, stats1] = run_with_threads(1);
  const auto [counts4, stats4] = run_with_threads(4);
  util::ThreadPool::set_global_threads(0);  // restore default sizing

  EXPECT_EQ(counts1, counts4);
  EXPECT_EQ(stats1.batches, stats4.batches);
  EXPECT_EQ(stats1.queries, stats4.queries);
  EXPECT_EQ(stats1.found, stats4.found);
  EXPECT_EQ(stats1.cache_hits, stats4.cache_hits);
  EXPECT_EQ(stats1.cache_misses, stats4.cache_misses);
  EXPECT_EQ(stats1.evictions, stats4.evictions);
  EXPECT_EQ(stats1.staged_bytes, stats4.staged_bytes);
  // Bit-identical modeled time is the simulator's determinism contract.
  EXPECT_EQ(stats1.modeled_seconds, stats4.modeled_seconds);
  EXPECT_EQ(stats1.transfer_seconds, stats4.transfer_seconds);
}

TEST(QueryEngineTest, CachingWinsOnSkewedTraffic) {
  const KmerStore store = KmerStore::open(pipeline_store_dir());
  // Skewed stream: nearly all queries hit the keys of one hot shard.
  const ShardFile& hot = store.shard(0);
  ASSERT_GT(hot.entries(), 0u);
  Xoshiro256 rng(0x0DD);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(hot.keys[rng.below(hot.entries())]);
  }

  auto total_modeled = [&](std::uint32_t cache_shards) {
    gpusim::Device device;
    QueryEngine engine(store, device, {.cache_shards = cache_shards});
    for (std::size_t begin = 0; begin < keys.size(); begin += 128) {
      const std::vector<std::uint64_t> batch(
          keys.begin() + static_cast<std::ptrdiff_t>(begin),
          keys.begin() + static_cast<std::ptrdiff_t>(begin + 128));
      (void)engine.lookup(batch);
    }
    return engine.stats().modeled_seconds;
  };

  const double uncached = total_modeled(0);
  const double cached = total_modeled(2);
  // 8 batches at one shard: uncached stages the shard 8 times, cached
  // stages once — the modeled win must be strict.
  EXPECT_LT(cached, uncached);
}

TEST(QueryEngineTest, FullScanThrashesHalfSizeLruCache) {
  // Regression for the bench_qps scan-thrash: a hot working set that fits
  // the cache, interleaved with full-store histogram scans at cache_shards
  // = shards/2. Plain LRU lets every scan flush the hot set (each cold
  // shard evicts a hot one), so the hot queries that follow miss again;
  // frequency-aware admission stages the cold scan shards transiently and
  // must strictly beat LRU on misses, staged bytes and modeled time.
  const KmerStore store = KmerStore::open(pipeline_store_dir());
  const std::uint32_t cache = store.shards() / 2;
  ASSERT_GE(cache, 2u);

  // Hot keys drawn from the first `cache` shards only, so the hot set is
  // exactly cache-sized.
  Xoshiro256 rng(0xCAFE);
  std::vector<std::uint64_t> hot_keys;
  for (int i = 0; i < 256; ++i) {
    const ShardFile& shard = store.shard(
        static_cast<std::uint32_t>(rng.below(cache)));
    ASSERT_GT(shard.entries(), 0u);
    hot_keys.push_back(shard.keys[rng.below(shard.entries())]);
  }

  auto run_workload = [&](bool freq_admission) {
    gpusim::Device device;
    QueryEngineConfig config;
    config.cache_shards = cache;
    config.freq_admission = freq_admission;
    QueryEngine engine(store, device, config);
    std::vector<std::uint64_t> results;
    // Warm the hot set (and its touch counts), then alternate full scans
    // with hot batches — the thrash pattern.
    for (int round = 0; round < 4; ++round) {
      const std::vector<std::uint64_t> counts = engine.lookup(hot_keys);
      results.insert(results.end(), counts.begin(), counts.end());
      (void)engine.histogram();
    }
    const std::vector<std::uint64_t> counts = engine.lookup(hot_keys);
    results.insert(results.end(), counts.begin(), counts.end());
    return std::make_pair(results, engine.stats());
  };

  const auto [lru_results, lru] = run_workload(false);
  const auto [freq_results, freq] = run_workload(true);

  // The policy changes residency traffic, never answers.
  EXPECT_EQ(freq_results, lru_results);
  EXPECT_EQ(lru.admission_bypasses, 0u);
  EXPECT_GT(freq.admission_bypasses, 0u);
  EXPECT_LT(freq.cache_misses, lru.cache_misses);
  EXPECT_LT(freq.staged_bytes, lru.staged_bytes);
  EXPECT_LT(freq.modeled_seconds, lru.modeled_seconds);
}

TEST(QueryEngineTest, FreqAdmissionDeterministicAcrossSimThreads) {
  const KmerStore store = KmerStore::open(pipeline_store_dir());
  const std::vector<std::uint64_t> keys =
      query_stream(store, 1024, 0xFADE);
  auto run_with_threads = [&](unsigned threads) {
    util::ThreadPool::set_global_threads(threads);
    gpusim::Device device;
    QueryEngineConfig config;
    config.cache_shards = 2;
    config.freq_admission = true;
    QueryEngine engine(store, device, config);
    for (std::size_t begin = 0; begin < keys.size(); begin += 128) {
      const std::vector<std::uint64_t> batch(
          keys.begin() + static_cast<std::ptrdiff_t>(begin),
          keys.begin() + static_cast<std::ptrdiff_t>(begin + 128));
      (void)engine.lookup(batch);
    }
    (void)engine.histogram();
    return engine.stats();
  };
  const QueryStats stats1 = run_with_threads(1);
  const QueryStats stats4 = run_with_threads(4);
  util::ThreadPool::set_global_threads(0);  // restore default sizing
  EXPECT_EQ(stats1.cache_hits, stats4.cache_hits);
  EXPECT_EQ(stats1.cache_misses, stats4.cache_misses);
  EXPECT_EQ(stats1.evictions, stats4.evictions);
  EXPECT_EQ(stats1.admission_bypasses, stats4.admission_bypasses);
  EXPECT_EQ(stats1.staged_bytes, stats4.staged_bytes);
  EXPECT_EQ(stats1.modeled_seconds, stats4.modeled_seconds);
}

}  // namespace
}  // namespace dedukt::store
