#include "dedukt/core/partitioner.hpp"

#include <gtest/gtest.h>

#include <map>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/util/stats.hpp"
#include "dedukt/util/thread_pool.hpp"

namespace dedukt::core {
namespace {

TEST(LptAssignTest, BalancesEqualWeights) {
  std::vector<std::uint64_t> weights(12, 10);
  const auto assignment = lpt_assign(weights, 4);
  std::map<std::uint32_t, std::uint64_t> loads;
  for (std::size_t b = 0; b < weights.size(); ++b) {
    loads[assignment[b]] += weights[b];
  }
  ASSERT_EQ(loads.size(), 4u);
  for (const auto& [rank, load] : loads) {
    (void)rank;
    EXPECT_EQ(load, 30u);
  }
}

TEST(LptAssignTest, HeavyBucketsSpreadAcrossRanks) {
  // Three huge buckets among many light ones: LPT must give each heavy
  // bucket its own rank.
  std::vector<std::uint64_t> weights(30, 1);
  weights[0] = weights[1] = weights[2] = 1000;
  const auto assignment = lpt_assign(weights, 3);
  EXPECT_NE(assignment[0], assignment[1]);
  EXPECT_NE(assignment[1], assignment[2]);
  EXPECT_NE(assignment[0], assignment[2]);
}

TEST(LptAssignTest, SingleRankGetsEverything) {
  const auto assignment = lpt_assign({5, 3, 8}, 1);
  for (const auto rank : assignment) EXPECT_EQ(rank, 0u);
}

TEST(LptAssignTest, BeatsHashAssignmentOnSkewedWeights) {
  // Zipf-ish weights: LPT imbalance should be far below the naive
  // round-robin/hash imbalance.
  // Shifted-Zipf weights: skewed but with no single bucket exceeding a
  // rank's ideal share, so LPT can reach near-perfect balance.
  std::vector<std::uint64_t> weights;
  for (int i = 1; i <= 256; ++i) {
    weights.push_back(static_cast<std::uint64_t>(100000.0 / (i + 3)));
  }
  constexpr std::uint32_t kRanks = 8;
  const auto assignment = lpt_assign(weights, kRanks);

  std::vector<std::uint64_t> lpt_loads(kRanks, 0), hash_loads(kRanks, 0);
  for (std::size_t b = 0; b < weights.size(); ++b) {
    lpt_loads[assignment[b]] += weights[b];
    hash_loads[hash::to_partition(hash::hash_u64(b), kRanks)] += weights[b];
  }
  EXPECT_LT(load_imbalance(lpt_loads), 1.02);
  EXPECT_GT(load_imbalance(hash_loads), load_imbalance(lpt_loads));
}

TEST(MinimizerAssignmentTest, RejectsOutOfRangeRanks) {
  EXPECT_THROW(MinimizerAssignment({0, 1, 5}, 4), PreconditionError);
  EXPECT_THROW(MinimizerAssignment({}, 4), PreconditionError);
}

TEST(MinimizerAssignmentTest, RankOfIsStableAndInRange) {
  std::vector<std::uint32_t> table(64);
  for (std::size_t b = 0; b < table.size(); ++b) {
    table[b] = static_cast<std::uint32_t>(b % 4);
  }
  MinimizerAssignment assignment(table, 4);
  for (kmer::KmerCode minimizer = 0; minimizer < 1000; ++minimizer) {
    const auto rank = assignment.rank_of(minimizer);
    EXPECT_LT(rank, 4u);
    EXPECT_EQ(rank, assignment.rank_of(minimizer));
  }
}

class AssignmentBuildTest : public ::testing::Test {
 protected:
  io::ReadBatch reads_ = [] {
    io::GenomeSpec gspec;
    gspec.length = 20'000;
    gspec.seed = 77;
    io::ReadSpec rspec;
    rspec.coverage = 3.0;
    rspec.mean_read_length = 600;
    rspec.min_read_length = 100;
    return io::generate_dataset(gspec, rspec);
  }();
};

TEST_F(AssignmentBuildTest, AllRanksAgreeOnTheTable) {
  constexpr int kRanks = 5;
  const auto batches = io::partition_by_bases(reads_, kRanks);
  std::vector<std::vector<std::uint32_t>> tables(kRanks);
  mpisim::Runtime runtime(kRanks);
  runtime.run([&](mpisim::Comm& comm) {
    const auto assignment = MinimizerAssignment::build(
        comm, batches[static_cast<std::size_t>(comm.rank())],
        kmer::SupermerConfig{});
    tables[static_cast<std::size_t>(comm.rank())] = assignment.table();
  });
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(tables[static_cast<std::size_t>(r)], tables[0]);
  }
  EXPECT_EQ(tables[0].size(),
            MinimizerAssignment::kBucketsPerRank * kRanks);
}

TEST_F(AssignmentBuildTest, EveryRankOwnsSomeBuckets) {
  constexpr int kRanks = 4;
  const auto batches = io::partition_by_bases(reads_, kRanks);
  mpisim::Runtime runtime(kRanks);
  runtime.run([&](mpisim::Comm& comm) {
    const auto assignment = MinimizerAssignment::build(
        comm, batches[static_cast<std::size_t>(comm.rank())],
        kmer::SupermerConfig{});
    std::vector<bool> owns(kRanks, false);
    for (const auto rank : assignment.table()) {
      owns[rank] = true;
    }
    for (int r = 0; r < kRanks; ++r) EXPECT_TRUE(owns[static_cast<std::size_t>(r)]);
  });
}

TEST_F(AssignmentBuildTest, SampleStrideInvariantOnUniformReads) {
  // Uniform input: every read is identical, so a batch of stride * 2
  // copies sampled at `stride` always yields the same two reads — the
  // reduced weight vector, and therefore the broadcast table, must be
  // bit-identical whatever the stride.
  constexpr int kRanks = 3;
  std::vector<std::vector<std::uint32_t>> tables;
  for (const int stride : {1, 2, 4}) {
    io::ReadBatch uniform;
    uniform.reads.assign(static_cast<std::size_t>(stride) * 2,
                         reads_.reads.front());
    mpisim::Runtime runtime(kRanks);
    std::vector<std::uint32_t> table;
    runtime.run([&](mpisim::Comm& comm) {
      const auto assignment = MinimizerAssignment::build(
          comm, uniform, kmer::SupermerConfig{}, stride);
      if (comm.rank() == 0) table = assignment.table();
    });
    tables.push_back(std::move(table));
  }
  EXPECT_EQ(tables[1], tables[0]) << "stride 2 vs 1";
  EXPECT_EQ(tables[2], tables[0]) << "stride 4 vs 1";
}

TEST_F(AssignmentBuildTest, DeterministicAcrossSimThreads) {
  struct PoolGuard {
    ~PoolGuard() { util::ThreadPool::set_global_threads(1); }
  } guard;
  constexpr int kRanks = 4;
  const auto batches = io::partition_by_bases(reads_, kRanks);
  auto build_at = [&](unsigned threads) {
    util::ThreadPool::set_global_threads(threads);
    std::vector<std::uint32_t> table;
    mpisim::Runtime runtime(kRanks);
    runtime.run([&](mpisim::Comm& comm) {
      const auto assignment = MinimizerAssignment::build(
          comm, batches[static_cast<std::size_t>(comm.rank())],
          kmer::SupermerConfig{});
      if (comm.rank() == 0) table = assignment.table();
    });
    return table;
  };
  const auto sequential = build_at(1);
  EXPECT_EQ(build_at(2), sequential);
  EXPECT_EQ(build_at(8), sequential);
}

TEST_F(AssignmentBuildTest, MatchesPerKmerMinimizerReference) {
  // build() takes each sampled k-mer's minimizer from one block sliding
  // minimum (kmer::minimizers_of) per fragment. The reference rescans every sampled k-mer with minimizer_of,
  // sums the per-bucket weights over the ranks, gives unseen buckets
  // weight 1 and assigns them with LPT.
  const kmer::SupermerConfig config;
  const kmer::MinimizerPolicy policy = config.policy();
  constexpr int kStride = 4;
  for (const int ranks : {2, 3}) {
    SCOPED_TRACE(testing::Message() << ranks << " ranks");
    const auto batches = io::partition_by_bases(reads_, ranks);
    const auto nranks = static_cast<std::uint32_t>(ranks);
    const std::uint32_t nbuckets = MinimizerAssignment::kBucketsPerRank * nranks;
    const MinimizerAssignment hashing(std::vector<std::uint32_t>(nbuckets, 0),
                                      1);
    std::vector<std::uint64_t> weights(nbuckets, 0);
    for (const io::ReadView batch : batches) {
      for (std::size_t i = 0; i < batch.reads.size(); i += kStride) {
        for (const kmer::KmerCode code : kmer::extract_kmers(
                 batch.reads[i].bases, config.k, policy.encoding())) {
          ++weights[hashing.bucket_of(
              kmer::minimizer_of(code, config.k, policy))];
        }
      }
    }
    for (auto& w : weights) {
      if (w == 0) w = 1;
    }

    std::vector<std::uint32_t> table;
    mpisim::Runtime runtime(ranks);
    runtime.run([&](mpisim::Comm& comm) {
      const auto assignment = MinimizerAssignment::build(
          comm, batches[static_cast<std::size_t>(comm.rank())], config,
          kStride);
      if (comm.rank() == 0) table = assignment.table();
    });
    EXPECT_EQ(table, lpt_assign(weights, nranks));
  }
}

TEST(FrequencyBalancedPipelineTest, CountsStillMatchReference) {
  io::GenomeSpec gspec;
  gspec.length = 8'000;
  gspec.seed = 21;
  io::ReadSpec rspec;
  rspec.coverage = 4.0;
  rspec.mean_read_length = 500;
  rspec.min_read_length = 80;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);

  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.pipeline.partition = PartitionScheme::kFrequencyBalanced;
  options.nranks = 6;
  const CountResult result = run_distributed_count(reads, options);

  std::map<std::uint64_t, std::uint64_t> expected;
  reference_count(reads, options.pipeline)
      .for_each([&](std::uint64_t key, std::uint64_t count) {
        expected[key] = count;
      });
  const std::map<std::uint64_t, std::uint64_t> actual(
      result.global_counts.begin(), result.global_counts.end());
  EXPECT_EQ(actual, expected);
}

TEST(FrequencyBalancedPipelineTest, ImprovesLoadBalanceOnSkewedInput) {
  // Repeat-heavy genome: a few minimizers dominate, which is where the
  // paper's hash routing suffers (Table III) and the §VII extension helps.
  io::GenomeSpec gspec;
  gspec.length = 40'000;
  gspec.seed = 5;
  gspec.repeat_fraction = 0.3;
  gspec.repeat_unit = 800;
  io::ReadSpec rspec;
  rspec.coverage = 4.0;
  rspec.mean_read_length = 800;
  rspec.min_read_length = 100;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);

  DriverOptions hash_opts;
  hash_opts.pipeline.kind = PipelineKind::kGpuSupermer;
  hash_opts.nranks = 12;
  hash_opts.collect_counts = false;
  DriverOptions balanced_opts = hash_opts;
  balanced_opts.pipeline.partition = PartitionScheme::kFrequencyBalanced;

  const double hash_imbalance =
      run_distributed_count(reads, hash_opts).load_imbalance();
  const double balanced_imbalance =
      run_distributed_count(reads, balanced_opts).load_imbalance();
  EXPECT_LT(balanced_imbalance, hash_imbalance);
}

TEST(PartitionSchemeTest, ToString) {
  EXPECT_EQ(to_string(PartitionScheme::kMinimizerHash), "minimizer-hash");
  EXPECT_EQ(to_string(PartitionScheme::kFrequencyBalanced), "freq-balanced");
}

}  // namespace
}  // namespace dedukt::core
