// Wide (two-word) supermers — the packing extension that lifts the
// paper's single-word window cap (§IV-C).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "dedukt/kmer/supermer.hpp"
#include "dedukt/util/rng.hpp"

namespace dedukt::kmer {
namespace {

std::string random_seq(Xoshiro256& rng, int len) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string s;
  for (int i = 0; i < len; ++i) s.push_back(kBases[rng.below(4)]);
  return s;
}

SupermerConfig wide_config(int window) {
  SupermerConfig cfg;
  cfg.window = window;
  cfg.wide = true;
  return cfg;
}

TEST(WideSupermerConfigTest, AcceptsWindowsBeyondSingleWord) {
  EXPECT_NO_THROW(wide_config(47).validate());  // 17+47-1 = 63 bases
  EXPECT_THROW(wide_config(48).validate(), PreconditionError);
  // Without `wide` the same window is rejected.
  SupermerConfig narrow;
  narrow.window = 47;
  EXPECT_THROW(narrow.validate(), PreconditionError);
}

TEST(WideSupermerTest, DecompositionReconstructsKmerMultiset) {
  Xoshiro256 rng(91);
  for (const int window : {15, 30, 47}) {
    const SupermerConfig cfg = wide_config(window);
    const io::BaseEncoding enc = cfg.policy().encoding();
    for (int trial = 0; trial < 10; ++trial) {
      const std::string read = random_seq(rng, 400);
      std::map<KmerCode, int> reconstructed;
      for (const auto& d : build_wide_supermers_read(read, cfg, 7)) {
        for_each_kmer_in_wide_supermer(
            d.smer, cfg.k, [&](KmerCode code) { ++reconstructed[code]; });
      }
      std::map<KmerCode, int> expected;
      for (const KmerCode code : extract_kmers(read, cfg.k, enc)) {
        ++expected[code];
      }
      EXPECT_EQ(reconstructed, expected) << "window=" << window;
    }
  }
}

TEST(WideSupermerTest, AgreesWithNarrowBuilderAtWindow15) {
  // At the paper's window the wide builder must produce the same supermer
  // sequence, just in the wider representation.
  Xoshiro256 rng(92);
  const std::string read = random_seq(rng, 500);
  SupermerConfig narrow;
  const SupermerConfig wide = wide_config(15);

  const auto narrow_out = build_supermers_read(read, narrow, 5);
  const auto wide_out = build_wide_supermers_read(read, wide, 5);
  ASSERT_EQ(narrow_out.size(), wide_out.size());
  for (std::size_t i = 0; i < narrow_out.size(); ++i) {
    EXPECT_EQ(narrow_out[i].dest, wide_out[i].dest);
    EXPECT_EQ(narrow_out[i].smer.len, wide_out[i].smer.len);
    EXPECT_EQ(static_cast<WideCode>(narrow_out[i].smer.bases),
              from_key(wide_out[i].smer.bases));
  }
}

TEST(WideSupermerTest, LargerWindowsYieldFewerSupermers) {
  Xoshiro256 rng(93);
  const std::string read = random_seq(rng, 3000);
  std::size_t previous = ~std::size_t{0};
  for (const int window : {7, 15, 31, 47}) {
    const auto supermers =
        build_wide_supermers_read(read, wide_config(window), 5);
    EXPECT_LT(supermers.size(), previous) << "window=" << window;
    previous = supermers.size();
    for (const auto& d : supermers) {
      EXPECT_LE(static_cast<int>(d.smer.len), 17 + window - 1);
    }
  }
}

TEST(WideSupermerTest, DestMatchesMinimizerPartition) {
  Xoshiro256 rng(94);
  const SupermerConfig cfg = wide_config(40);
  const MinimizerPolicy policy = cfg.policy();
  const std::string read = random_seq(rng, 300);
  for (const auto& d : build_wide_supermers_read(read, cfg, 13)) {
    for_each_kmer_in_wide_supermer(d.smer, cfg.k, [&](KmerCode code) {
      EXPECT_EQ(minimizer_partition(minimizer_of(code, cfg.k, policy), 13),
                d.dest);
    });
  }
}

TEST(WideSupermerTest, ReportsTheMinimizerOfEveryKmer) {
  Xoshiro256 rng(95);
  for (const int window : {1, 7, 20, 40}) {
    const SupermerConfig cfg = wide_config(window);
    const MinimizerPolicy policy = cfg.policy();
    const std::string read = random_seq(rng, 300);
    for (const auto& d : build_wide_supermers_read(read, cfg, 13)) {
      for_each_kmer_in_wide_supermer(d.smer, cfg.k, [&](KmerCode code) {
        EXPECT_EQ(minimizer_of(code, cfg.k, policy), d.minimizer);
      });
    }
  }
}

TEST(WideSupermerTest, RequiresWideFlag) {
  std::vector<DestinedWideSupermer> out;
  SupermerConfig narrow;  // wide = false
  EXPECT_THROW(build_wide_supermers("ACGTACGTACGTACGTACGT", narrow, 4, out),
               PreconditionError);
}

}  // namespace
}  // namespace dedukt::kmer
