#include "dedukt/core/kernels.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "dedukt/io/synthetic.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/util/rng.hpp"

namespace dedukt::core::kernels {
namespace {

io::ReadBatch small_batch() {
  io::GenomeSpec gspec;
  gspec.length = 4'000;
  gspec.seed = 3;
  io::ReadSpec rspec;
  rspec.coverage = 3.0;
  rspec.mean_read_length = 400;
  rspec.min_read_length = 60;
  return io::generate_dataset(gspec, rspec);
}

TEST(ParseKernelsTest, TwoPhaseProducesExactKmerMultiset) {
  const io::ReadBatch batch = small_batch();
  const int k = 17;
  const auto enc = io::BaseEncoding::kStandard;
  constexpr std::uint32_t kParts = 5;

  gpusim::Device device;
  const Staging staging = staging_of(batch, k);
  auto d_counts = device.alloc<std::uint32_t>(kParts, 0u);
  KmerRuns runs;
  parse_count_kmers(device, batch, staging, k, enc, kParts, d_counts, runs);

  std::vector<std::uint32_t> counts(kParts);
  device.copy_to_host(d_counts, std::span<std::uint32_t>(counts));
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_EQ(total, staging.kmers);

  // The count launch keeps each destination's k-mers as its run: together
  // the exact k-mer multiset of the input, every k-mer in its
  // hash-selected partition. The fill launch is priced over them and
  // places nothing.
  std::map<std::uint64_t, int> expected;
  for (const auto& read : batch.reads) {
    for (const auto code : kmer::extract_kmers(read.bases, k, enc)) {
      ++expected[code];
    }
  }
  std::map<std::uint64_t, int> actual;
  ASSERT_EQ(runs.size(), kParts);
  for (std::uint32_t p = 0; p < kParts; ++p) {
    ASSERT_EQ(runs[p].size(), counts[p]);
    for (const std::uint64_t code : runs[p]) {
      ++actual[code];
      EXPECT_EQ(kmer::kmer_partition(code, kParts), p);
    }
  }
  EXPECT_EQ(actual, expected);
  const auto fill = parse_fill_kmers(device, staging, k);
  EXPECT_EQ(fill.counters.atomics, total);
  EXPECT_EQ(fill.counters.gmem_write_bytes, total * sizeof(std::uint64_t));
}

TEST(SupermerKernelsTest, TwoPhaseMatchesHostBuilder) {
  const io::ReadBatch batch = small_batch();
  kmer::SupermerConfig cfg;  // paper defaults
  constexpr std::uint32_t kParts = 4;

  gpusim::Device device;
  const Staging staging = staging_of(batch, cfg.k, cfg.window);
  auto d_counts = device.alloc<std::uint32_t>(kParts, 0u);
  SupermerRuns<std::uint64_t> runs;
  supermer_count(device, batch, staging, cfg, kParts, d_counts, runs);
  std::vector<std::uint32_t> counts(kParts);
  device.copy_to_host(d_counts, std::span<std::uint32_t>(counts));
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});

  // Host reference: per-destination supermer multisets.
  std::map<std::uint64_t, std::map<std::pair<std::uint64_t, int>, int>>
      expected;
  std::uint64_t expected_total = 0;
  for (const auto& read : batch.reads) {
    for (const auto& d : kmer::build_supermers_read(read.bases, cfg, kParts)) {
      ++expected[d.dest][{d.smer.bases, d.smer.len}];
      ++expected_total;
    }
  }
  EXPECT_EQ(total, expected_total);

  // The count launch keeps each destination's supermers as its run; the
  // fill launch is priced over them and places nothing.
  ASSERT_EQ(runs.words.size(), kParts);
  ASSERT_EQ(runs.lens.size(), kParts);
  for (std::uint32_t p = 0; p < kParts; ++p) {
    ASSERT_EQ(runs.words[p].size(), counts[p]);
    ASSERT_EQ(runs.lens[p].size(), counts[p]);
    std::map<std::pair<std::uint64_t, int>, int> got;
    for (std::size_t i = 0; i < runs.words[p].size(); ++i) {
      ++got[{runs.words[p][i], runs.lens[p][i]}];
    }
    EXPECT_EQ(got, expected[p]) << "partition " << p;
  }
  const auto fill = supermer_fill<std::uint64_t>(device, staging, cfg, total);
  EXPECT_EQ(fill.counters.atomics, total);
  EXPECT_EQ(fill.counters.gmem_write_bytes, total * 9);
}

TEST(ParseKernelsTest, TraffickersReportTraffic) {
  const io::ReadBatch batch = small_batch();
  gpusim::Device device;
  const Staging staging = staging_of(batch, 17);
  auto d_counts = device.alloc<std::uint32_t>(4, 0u);
  KmerRuns runs;
  const auto stats = parse_count_kmers(device, batch, staging, 17,
                                       io::BaseEncoding::kStandard, 4,
                                       d_counts, runs);
  EXPECT_GT(stats.counters.gmem_read_bytes, staging.bases);
  EXPECT_EQ(stats.counters.atomics, staging.kmers);
  EXPECT_GT(stats.modeled_seconds, 0.0);
}

}  // namespace
}  // namespace dedukt::core::kernels
