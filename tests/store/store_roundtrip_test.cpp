// Store round-trip and routing-agreement tests: shard routing must replay
// the counting pipelines' destination logic exactly, and a store written
// from a run must merge back bit-identical to the flat counts_io dump.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dedukt/core/app.hpp"
#include "dedukt/core/counts_io.hpp"
#include "dedukt/core/driver.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/store_export.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/kmer/minimizer.hpp"
#include "dedukt/store/store.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/rng.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::store {
namespace {

using test_support::fresh_dir;

std::vector<std::uint64_t> random_keys(int k, std::size_t n,
                                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(rng.below(kmer::code_mask(k) + 1));
  }
  return keys;
}

io::ReadBatch small_dataset() {
  io::GenomeSpec gspec;
  gspec.length = 5'000;
  gspec.seed = 13;
  io::ReadSpec rspec;
  rspec.coverage = 3.0;
  rspec.mean_read_length = 400;
  rspec.min_read_length = 80;
  return io::generate_dataset(gspec, rspec);
}

TEST(StoreRoutingTest, KmerHashMatchesPipelinePartition) {
  const StoreRouting routing = StoreRouting::kmer_hash(6, 17);
  for (const std::uint64_t key : random_keys(17, 2000, 0xA11CE)) {
    EXPECT_EQ(routing.shard_of(key), kmer::kmer_partition(key, 6));
  }
}

TEST(StoreRoutingTest, MinimizerHashMatchesPipelinePartition) {
  const StoreRouting routing = StoreRouting::minimizer_hash(
      8, 17, 7, kmer::MinimizerOrder::kRandomized);
  const kmer::MinimizerPolicy policy(kmer::MinimizerOrder::kRandomized, 7);
  for (const std::uint64_t key : random_keys(17, 2000, 0xB0B)) {
    const kmer::KmerCode minimizer = kmer::minimizer_of(key, 17, policy);
    EXPECT_EQ(routing.shard_of(key),
              kmer::minimizer_partition(minimizer, 8));
  }
}

TEST(StoreRoutingTest, AssignmentTableAgreesWithMinimizerAssignment) {
  // An explicit bucket table, same shape MinimizerAssignment::build
  // produces (kBucketsPerRank buckets per rank), deliberately uneven.
  const std::uint32_t nranks = 4;
  const std::uint32_t nbuckets =
      nranks * core::MinimizerAssignment::kBucketsPerRank;
  Xoshiro256 rng(7);
  std::vector<std::uint32_t> table(nbuckets);
  for (auto& rank : table) {
    rank = static_cast<std::uint32_t>(rng.below(nranks));
  }
  const core::MinimizerAssignment assignment(table, nranks);
  const StoreRouting routing = StoreRouting::assignment_table(
      table, nranks, 17, 7, kmer::MinimizerOrder::kRandomized);
  const kmer::MinimizerPolicy policy(kmer::MinimizerOrder::kRandomized, 7);
  for (const std::uint64_t key : random_keys(17, 2000, 0xCAFE)) {
    const kmer::KmerCode minimizer = kmer::minimizer_of(key, 17, policy);
    EXPECT_EQ(routing.shard_of(key), assignment.rank_of(minimizer));
  }
}

TEST(StoreRoundTripTest, WriteThenScanRestoresFlatDump) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
  std::uint64_t key = 3;
  for (int i = 0; i < 500; ++i, key += 17 + (key % 5)) {
    counts.emplace_back(key & kmer::code_mask(17), (key % 90) + 1);
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               counts.end());

  const std::string dir = fresh_dir("store_roundtrip");
  const StoreRouting routing = StoreRouting::minimizer_hash(
      5, 17, 7, kmer::MinimizerOrder::kRandomized);
  const Manifest manifest = write_store(
      dir, counts, io::BaseEncoding::kRandomized, routing);
  EXPECT_EQ(manifest.total_entries(), counts.size());

  const KmerStore store = KmerStore::open(dir);
  EXPECT_EQ(store.scan_all(), counts);
  // Every key sits in the shard its routing says, and nowhere else.
  for (std::uint32_t s = 0; s < store.shards(); ++s) {
    for (const std::uint64_t k : store.shard(s).keys) {
      EXPECT_EQ(routing.shard_of(k), s);
    }
  }
}

TEST(StoreRoundTripTest, UnsortedInputRejected) {
  const std::string dir = fresh_dir("store_unsorted");
  const StoreRouting routing = StoreRouting::kmer_hash(2, 5);
  EXPECT_THROW(write_store(dir, {{9, 1}, {3, 1}},
                           io::BaseEncoding::kStandard, routing),
               PreconditionError);
}

TEST(StoreRoundTripTest, PipelineRunMatchesFlatDumpBitIdentical) {
  core::DriverOptions options;
  options.nranks = 4;
  const core::CountResult result =
      core::run_distributed_count(small_dataset(), options);
  ASSERT_FALSE(result.global_counts.empty());

  const std::string dir = fresh_dir("store_pipeline");
  const Manifest manifest = core::write_store_from_result(dir, result);
  EXPECT_EQ(manifest.routing.mode(), RoutingMode::kMinimizerHash);
  EXPECT_EQ(manifest.routing.shards(), 4u);

  const KmerStore store = KmerStore::open(dir);
  EXPECT_EQ(store.scan_all(), result.global_counts);
  EXPECT_EQ(store.manifest().total_count(),
            result.totals().counted_kmers);
}

TEST(StoreRoundTripTest, KmerPipelineUsesKmerHashRouting) {
  core::DriverOptions options;
  options.nranks = 3;
  options.pipeline.kind = core::PipelineKind::kGpuKmer;
  const core::CountResult result =
      core::run_distributed_count(small_dataset(), options);

  const std::string dir = fresh_dir("store_kmer_pipeline");
  const Manifest manifest = core::write_store_from_result(dir, result);
  EXPECT_EQ(manifest.routing.mode(), RoutingMode::kKmerHash);
  const KmerStore store = KmerStore::open(dir);
  EXPECT_EQ(store.scan_all(), result.global_counts);
  for (std::uint32_t s = 0; s < store.shards(); ++s) {
    for (const std::uint64_t key : store.shard(s).keys) {
      EXPECT_EQ(kmer::kmer_partition(key, 3), s);
    }
  }
}

// --- CLI integration: --store-out and the query subcommand ---

struct AppResult {
  int exit_code;
  std::string out;
  std::string err;
};

AppResult run_cli(std::vector<std::string> args) {
  std::vector<const char*> argv = {"dedukt"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out, err;
  const int code = core::run_app(static_cast<int>(argv.size()), argv.data(),
                                 out, err);
  return {code, out.str(), err.str()};
}

TEST(StoreCliTest, StoreOutBitIdenticalToFlatDump) {
  const std::string dir = fresh_dir("store_cli");
  const std::string counts_path = test_support::temp_path("store_cli.bin");
  const AppResult result = run_cli(
      {"count", "--synthetic=ecoli30x", "--scale=4000", "--ranks=4",
       "--output=" + counts_path, "--store-out=" + dir});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("wrote store: 4 shards"), std::string::npos);

  const core::CountsFile flat = core::read_counts_binary_file(counts_path);
  const KmerStore store = KmerStore::open(dir);
  EXPECT_EQ(store.scan_all(), flat.counts);
  EXPECT_EQ(store.k(), flat.k);
  EXPECT_EQ(store.encoding(), flat.encoding);
}

TEST(StoreCliTest, QuerySubcommandReturnsStoredCounts) {
  const std::string dir = fresh_dir("store_cli_query");
  const AppResult count_result =
      run_cli({"count", "--synthetic=ecoli30x", "--scale=4000", "--ranks=4",
               "--store-out=" + dir});
  ASSERT_EQ(count_result.exit_code, 0) << count_result.err;

  const KmerStore store = KmerStore::open(dir);
  ASSERT_GE(store.scan_all().size(), 2u);
  const auto [key0, count0] = store.scan_all().front();
  const auto [key1, count1] = store.scan_all().back();
  const std::string kmer0 = kmer::unpack(key0, store.k(), store.encoding());
  const std::string kmer1 = kmer::unpack(key1, store.k(), store.encoding());

  const AppResult query_result = run_cli(
      {"query", "--store=" + dir, "--kmers=" + kmer0 + "," + kmer1,
       "--cache-shards=2"});
  ASSERT_EQ(query_result.exit_code, 0) << query_result.err;
  EXPECT_NE(query_result.out.find(
                kmer0 + "\t" + std::to_string(count0)),
            std::string::npos);
  EXPECT_NE(query_result.out.find(
                kmer1 + "\t" + std::to_string(count1)),
            std::string::npos);
}

TEST(StoreCliTest, QueryRejectsWrongLengthKmer) {
  const std::string dir = fresh_dir("store_cli_badk");
  const AppResult count_result =
      run_cli({"count", "--synthetic=ecoli30x", "--scale=8000", "--ranks=2",
               "--store-out=" + dir});
  ASSERT_EQ(count_result.exit_code, 0) << count_result.err;
  const AppResult query_result =
      run_cli({"query", "--store=" + dir, "--kmers=ACGT"});
  EXPECT_NE(query_result.exit_code, 0);
  EXPECT_NE(query_result.err.find("bases long"), std::string::npos);
}

}  // namespace
}  // namespace dedukt::store
