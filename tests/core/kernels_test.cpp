#include "dedukt/core/kernels.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "dedukt/io/synthetic.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/util/error.hpp"
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

TEST(EncodedReadsTest, CountsKmersAndSeparates) {
  io::ReadBatch batch;
  batch.reads.push_back({"a", "ACGTACGT", ""});  // 8 bases
  batch.reads.push_back({"b", "TTTTT", ""});     // 5 bases
  const EncodedReads staged = EncodedReads::build(batch, 5);
  EXPECT_EQ(staged.total_kmers, 4u + 1u);
  EXPECT_EQ(staged.fragments.size(), 2u);
  // Separator between fragments and a k-length pad at the end.
  EXPECT_EQ(staged.bases[8], kSeparator);
  EXPECT_EQ(staged.bases.size(), 8u + 1 + 5 + 1 + 5);
}

TEST(EncodedReadsTest, DropsShortAndSplitsOnN) {
  io::ReadBatch batch;
  batch.reads.push_back({"a", "ACGNNACGTA", ""});  // frags: ACG(3), ACGTA(5)
  const EncodedReads staged = EncodedReads::build(batch, 4);
  ASSERT_EQ(staged.fragments.size(), 1u);  // ACG too short for k=4
  EXPECT_EQ(staged.fragments[0].second, 5u);
  EXPECT_EQ(staged.total_kmers, 2u);
}

TEST(EncodedReadsTest, EmptyBatch) {
  const EncodedReads staged = EncodedReads::build(io::ReadBatch{}, 7);
  EXPECT_EQ(staged.total_kmers, 0u);
  EXPECT_TRUE(staged.fragments.empty());
  EXPECT_EQ(staged.bases.size(), 7u);  // just the pad
}

TEST(WindowsTest, CoverEveryKmerExactlyOnce) {
  const io::ReadBatch batch = small_batch();
  const int k = 17;
  const EncodedReads staged = EncodedReads::build(batch, k);
  for (int window : {1, 7, 15}) {
    const auto windows = build_windows(staged, k, window);
    std::uint64_t covered = 0;
    for (const auto& w : windows) {
      EXPECT_GE(w.kmer_count, 1u);
      EXPECT_LE(w.kmer_count, static_cast<std::uint32_t>(window));
      covered += w.kmer_count;
    }
    EXPECT_EQ(covered, staged.total_kmers);
  }
}

TEST(ParseKernelsTest, TwoPhaseProducesExactKmerMultiset) {
  const io::ReadBatch batch = small_batch();
  const int k = 17;
  const auto enc = io::BaseEncoding::kStandard;
  constexpr std::uint32_t kParts = 5;

  gpusim::Device device;
  const EncodedReads staged = EncodedReads::build(batch, k);
  auto d_bases = device.alloc<char>(staged.bases.size());
  device.copy_to_device<char>(staged.bases, d_bases);

  auto d_counts = device.alloc<std::uint32_t>(kParts, 0u);
  parse_count_kmers(device, d_bases, staged.bases.size(), k, enc, kParts,
                    d_counts);

  std::vector<std::uint32_t> counts(kParts);
  device.copy_to_host(d_counts, std::span<std::uint32_t>(counts));
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_EQ(total, staged.total_kmers);

  std::vector<std::uint64_t> offsets(kParts);
  std::uint64_t running = 0;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    offsets[p] = running;
    running += counts[p];
  }
  auto d_offsets = device.alloc<std::uint64_t>(kParts);
  device.copy_to_device<std::uint64_t>(offsets, d_offsets);
  auto d_cursors = device.alloc<std::uint32_t>(kParts, 0u);
  auto d_out = device.alloc<std::uint64_t>(total);
  parse_fill_kmers(device, d_bases, staged.bases.size(), k, enc, kParts,
                   d_offsets, d_cursors, d_out);

  // The filled buffer must be the exact k-mer multiset of the input,
  // with every k-mer in its hash-selected partition.
  std::map<std::uint64_t, int> expected;
  for (const auto& read : batch.reads) {
    for (const auto code : kmer::extract_kmers(read.bases, k, enc)) {
      ++expected[code];
    }
  }
  std::map<std::uint64_t, int> actual;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    for (std::uint64_t i = offsets[p]; i < offsets[p] + counts[p]; ++i) {
      ++actual[d_out[i]];
      EXPECT_EQ(kmer::kmer_partition(d_out[i], kParts), p);
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(SupermerKernelsTest, TwoPhaseMatchesHostBuilder) {
  const io::ReadBatch batch = small_batch();
  kmer::SupermerConfig cfg;  // paper defaults
  constexpr std::uint32_t kParts = 4;

  gpusim::Device device;
  const EncodedReads staged = EncodedReads::build(batch, cfg.k);
  const auto windows = build_windows(staged, cfg.k, cfg.window);
  auto d_bases = device.alloc<char>(staged.bases.size());
  device.copy_to_device<char>(staged.bases, d_bases);
  auto d_windows = device.alloc<Window>(windows.size());
  device.copy_to_device<Window>(windows, d_windows);

  auto d_counts = device.alloc<std::uint32_t>(kParts, 0u);
  supermer_count(device, d_bases, d_windows, windows.size(), cfg, kParts,
                 d_counts);
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

  std::vector<std::uint64_t> offsets(kParts);
  std::uint64_t running = 0;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    offsets[p] = running;
    running += counts[p];
  }
  auto d_offsets = device.alloc<std::uint64_t>(kParts);
  device.copy_to_device<std::uint64_t>(offsets, d_offsets);
  auto d_cursors = device.alloc<std::uint32_t>(kParts, 0u);
  auto d_words = device.alloc<std::uint64_t>(total);
  auto d_lens = device.alloc<std::uint8_t>(total);
  supermer_fill(device, d_bases, d_windows, windows.size(), cfg, kParts,
                d_offsets, d_cursors, d_words, d_lens);

  for (std::uint32_t p = 0; p < kParts; ++p) {
    std::map<std::pair<std::uint64_t, int>, int> got;
    for (std::uint64_t i = offsets[p]; i < offsets[p] + counts[p]; ++i) {
      ++got[{d_words[i], d_lens[i]}];
    }
    EXPECT_EQ(got, expected[p]) << "partition " << p;
  }
}

TEST(SupermerKernelsTest, RejectsWindowsThatDoNotTileAtConfigWindow) {
  // The launches walk whole fragments, so windows cut at another width
  // than config.window are refused rather than walked as something else.
  const io::ReadBatch batch = small_batch();
  kmer::SupermerConfig cfg;  // window 15
  gpusim::Device device;
  const EncodedReads staged = EncodedReads::build(batch, cfg.k);
  const auto windows = build_windows(staged, cfg.k, 7);
  auto d_bases = device.alloc<char>(staged.bases.size());
  device.copy_to_device<char>(staged.bases, d_bases);
  auto d_windows = device.alloc<Window>(windows.size());
  device.copy_to_device<Window>(windows, d_windows);
  auto d_counts = device.alloc<std::uint32_t>(4, 0u);
  EXPECT_THROW(supermer_count(device, d_bases, d_windows, windows.size(), cfg,
                              4, d_counts),
               PreconditionError);
}

TEST(ParseKernelsTest, TraffickersReportTraffic) {
  const io::ReadBatch batch = small_batch();
  gpusim::Device device;
  const EncodedReads staged = EncodedReads::build(batch, 17);
  auto d_bases = device.alloc<char>(staged.bases.size());
  device.copy_to_device<char>(staged.bases, d_bases);
  auto d_counts = device.alloc<std::uint32_t>(4, 0u);
  const auto stats =
      parse_count_kmers(device, d_bases, staged.bases.size(), 17,
                        io::BaseEncoding::kStandard, 4, d_counts);
  EXPECT_GT(stats.counters.gmem_read_bytes, staged.bases.size());
  EXPECT_EQ(stats.counters.atomics, staged.total_kmers);
  EXPECT_GT(stats.modeled_seconds, 0.0);
}

}  // namespace
}  // namespace dedukt::core::kernels
