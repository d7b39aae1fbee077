#include "dedukt/kmer/supermer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "dedukt/util/rng.hpp"

namespace dedukt::kmer {
namespace {

std::string random_seq(Xoshiro256& rng, int len) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string s;
  for (int i = 0; i < len; ++i) s.push_back(kBases[rng.below(4)]);
  return s;
}

std::map<KmerCode, int> kmer_multiset(const std::string& read, int k,
                                      io::BaseEncoding enc) {
  std::map<KmerCode, int> counts;
  for (const KmerCode code : extract_kmers(read, k, enc)) ++counts[code];
  return counts;
}

TEST(SupermerConfigTest, DefaultsAreThePaperOperatingPoint) {
  SupermerConfig config;
  EXPECT_EQ(config.k, 17);
  EXPECT_EQ(config.m, 7);
  EXPECT_EQ(config.window, 15);
  EXPECT_EQ(config.order, MinimizerOrder::kRandomized);
  EXPECT_EQ(config.max_supermer_bases(), 31);  // one 64-bit word (§IV-C)
  EXPECT_NO_THROW(config.validate());
}

TEST(SupermerConfigTest, RejectsUnpackableWindow) {
  SupermerConfig config;
  config.k = 17;
  config.window = 16;  // 17+16-1 = 32 bases > one word
  EXPECT_THROW(config.validate(), PreconditionError);
}

TEST(SupermerConfigTest, RejectsBadMAndK) {
  SupermerConfig config;
  config.m = 17;  // must be < k
  EXPECT_THROW(config.validate(), PreconditionError);
  config = SupermerConfig{};
  config.k = 1;
  EXPECT_THROW(config.validate(), PreconditionError);
  config = SupermerConfig{};
  config.window = 0;
  EXPECT_THROW(config.validate(), PreconditionError);
}

// --- the central invariants, swept over (k, m, window, order) ---

using SweepParam = std::tuple<int, int, int, MinimizerOrder>;

class SupermerSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  SupermerConfig config() const {
    SupermerConfig c;
    c.k = std::get<0>(GetParam());
    c.m = std::get<1>(GetParam());
    c.window = std::get<2>(GetParam());
    c.order = std::get<3>(GetParam());
    return c;
  }
};

TEST_P(SupermerSweep, DecompositionReconstructsKmerMultiset) {
  const SupermerConfig cfg = config();
  const io::BaseEncoding enc = cfg.policy().encoding();
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string read =
        random_seq(rng, cfg.k + static_cast<int>(rng.below(120)));
    const auto supermers = build_supermers_read(read, cfg, /*parts=*/7);
    std::map<KmerCode, int> reconstructed;
    for (const auto& d : supermers) {
      for_each_kmer_in_supermer(d.smer, cfg.k,
                                [&](KmerCode code) { ++reconstructed[code]; });
    }
    EXPECT_EQ(reconstructed, kmer_multiset(read, cfg.k, enc))
        << "read=" << read;
  }
}

TEST_P(SupermerSweep, AllKmersInASupermerShareItsMinimizerAndDest) {
  const SupermerConfig cfg = config();
  const MinimizerPolicy policy = cfg.policy();
  Xoshiro256 rng(32);
  constexpr std::uint32_t kParts = 13;
  for (int trial = 0; trial < 10; ++trial) {
    const std::string read = random_seq(rng, 150);
    for (const auto& d : build_supermers_read(read, cfg, kParts)) {
      for_each_kmer_in_supermer(d.smer, cfg.k, [&](KmerCode code) {
        const KmerCode minimizer = minimizer_of(code, cfg.k, policy);
        EXPECT_EQ(minimizer, d.minimizer);
        EXPECT_EQ(minimizer_partition(minimizer, kParts), d.dest);
      });
    }
  }
}

TEST_P(SupermerSweep, WindowCapsLength) {
  const SupermerConfig cfg = config();
  Xoshiro256 rng(33);
  const std::string read = random_seq(rng, 400);
  for (const auto& d : build_supermers_read(read, cfg, 5)) {
    EXPECT_GE(static_cast<int>(d.smer.len), cfg.k);
    EXPECT_LE(static_cast<int>(d.smer.len), cfg.max_supermer_bases());
  }
}

TEST_P(SupermerSweep, StructuralLengthIdentity) {
  // sum(len) == nkmers + (k-1) * nsupermers: every supermer re-spends k-1
  // bases of overlap context.
  const SupermerConfig cfg = config();
  Xoshiro256 rng(34);
  const std::string read = random_seq(rng, 300);
  const auto supermers = build_supermers_read(read, cfg, 3);
  std::uint64_t total_len = 0, total_kmers = 0;
  for (const auto& d : supermers) {
    total_len += d.smer.len;
    total_kmers += static_cast<std::uint64_t>(kmers_in_supermer(d.smer, cfg.k));
  }
  EXPECT_EQ(total_kmers, count_kmers(read, cfg.k));
  EXPECT_EQ(total_len,
            total_kmers + static_cast<std::uint64_t>(cfg.k - 1) *
                              supermers.size());
}

TEST_P(SupermerSweep, SupermersAreSubstringsOfTheRead) {
  const SupermerConfig cfg = config();
  const io::BaseEncoding enc = cfg.policy().encoding();
  Xoshiro256 rng(35);
  const std::string read = random_seq(rng, 200);
  for (const auto& d : build_supermers_read(read, cfg, 4)) {
    EXPECT_NE(read.find(unpack_supermer(d.smer, enc)), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, SupermerSweep,
    ::testing::Values(
        SweepParam{17, 7, 15, MinimizerOrder::kRandomized},   // paper default
        SweepParam{17, 9, 15, MinimizerOrder::kRandomized},   // paper m=9
        SweepParam{17, 7, 15, MinimizerOrder::kLexicographic},
        SweepParam{17, 7, 15, MinimizerOrder::kKmc2},
        SweepParam{8, 4, 10, MinimizerOrder::kLexicographic}, // Fig. 4 shape
        SweepParam{5, 3, 4, MinimizerOrder::kRandomized},
        SweepParam{31, 9, 1, MinimizerOrder::kRandomized},    // window of 1
        SweepParam{11, 5, 21, MinimizerOrder::kKmc2}));

TEST(SupermerWindowingTest, WindowOfOneGivesOneSupermerPerKmer) {
  SupermerConfig cfg;
  cfg.k = 9;
  cfg.m = 4;
  cfg.window = 1;
  const std::string read = "ACGTACGTACGTACGTACGT";
  const auto supermers = build_supermers_read(read, cfg, 3);
  EXPECT_EQ(supermers.size(), count_kmers(read, cfg.k));
  for (const auto& d : supermers) {
    EXPECT_EQ(static_cast<int>(d.smer.len), cfg.k);
  }
}

TEST(SupermerWindowingTest, HomopolymerCompressesMaximally) {
  // In AAAA...A every k-mer shares the minimizer, so each window yields one
  // supermer of maximal length.
  SupermerConfig cfg;
  cfg.k = 17;
  cfg.m = 7;
  cfg.window = 15;
  const std::string read(100, 'A');
  const auto supermers = build_supermers_read(read, cfg, 5);
  const std::uint64_t nkmers = count_kmers(read, cfg.k);
  const std::uint64_t expected_supermers =
      (nkmers + static_cast<std::uint64_t>(cfg.window) - 1) /
      static_cast<std::uint64_t>(cfg.window);
  EXPECT_EQ(supermers.size(), expected_supermers);
  EXPECT_EQ(static_cast<int>(supermers[0].smer.len),
            cfg.max_supermer_bases());
}

TEST(SupermerWindowingTest, ReadShorterThanKYieldsNothing) {
  SupermerConfig cfg;
  EXPECT_TRUE(build_supermers_read("ACGT", cfg, 4).empty());
  EXPECT_TRUE(build_supermers_read("", cfg, 4).empty());
}

TEST(SupermerWindowingTest, NonAcgtBreaksSupermers) {
  SupermerConfig cfg;
  cfg.k = 5;
  cfg.m = 3;
  cfg.window = 10;
  const std::string read = "ACGTACGTNNACGTACGT";
  const auto supermers = build_supermers_read(read, cfg, 4);
  std::uint64_t total_kmers = 0;
  for (const auto& d : supermers) {
    total_kmers += static_cast<std::uint64_t>(kmers_in_supermer(d.smer, cfg.k));
  }
  EXPECT_EQ(total_kmers, count_kmers(read, cfg.k));  // 4 + 4, no spanning
}

// --- maximal (reference) builder ---

TEST(MaximalSupermerTest, AdjacentSupermersHaveDistinctMinimizers) {
  MinimizerPolicy policy(MinimizerOrder::kRandomized, 5);
  Xoshiro256 rng(36);
  const std::string read = random_seq(rng, 300);
  const auto supermers = build_supermers_maximal(read, 11, policy, 4);
  for (std::size_t i = 1; i < supermers.size(); ++i) {
    EXPECT_NE(supermers[i - 1].minimizer, supermers[i].minimizer);
  }
}

TEST(MaximalSupermerTest, CoversTheWholeRead) {
  MinimizerPolicy policy(MinimizerOrder::kLexicographic, 4);
  Xoshiro256 rng(37);
  const std::string read = random_seq(rng, 200);
  const int k = 9;
  const auto supermers = build_supermers_maximal(read, k, policy, 4);
  std::uint64_t total_kmers = 0;
  for (const auto& s : supermers) {
    total_kmers += s.bases.size() - static_cast<std::size_t>(k) + 1;
  }
  EXPECT_EQ(total_kmers, read.size() - static_cast<std::size_t>(k) + 1);
}

TEST(MaximalSupermerTest, WindowedIsARefinementOfMaximal) {
  // Concatenating the windowed supermers' k-mer streams reproduces the
  // maximal ones': windows only introduce extra cuts.
  SupermerConfig cfg;
  cfg.k = 11;
  cfg.m = 5;
  cfg.window = 8;
  Xoshiro256 rng(38);
  const std::string read = random_seq(rng, 250);

  std::vector<KmerCode> windowed_stream;
  for (const auto& d : build_supermers_read(read, cfg, 3)) {
    for_each_kmer_in_supermer(d.smer, cfg.k, [&](KmerCode code) {
      windowed_stream.push_back(code);
    });
  }
  std::vector<KmerCode> maximal_stream;
  const io::BaseEncoding enc = cfg.policy().encoding();
  for (const auto& s :
       build_supermers_maximal(read, cfg.k, cfg.policy(), 3)) {
    for (const KmerCode code : extract_kmers(s.bases, cfg.k, enc)) {
      maximal_stream.push_back(code);
    }
  }
  EXPECT_EQ(windowed_stream, maximal_stream);
  EXPECT_GE(build_supermers_read(read, cfg, 3).size(),
            build_supermers_maximal(read, cfg.k, cfg.policy(), 3).size());
}

TEST(MaximalSupermerTest, DestMatchesMinimizerPartition) {
  MinimizerPolicy policy(MinimizerOrder::kRandomized, 7);
  Xoshiro256 rng(39);
  const std::string read = random_seq(rng, 120);
  for (const auto& s : build_supermers_maximal(read, 17, policy, 11)) {
    EXPECT_EQ(s.dest, minimizer_partition(s.minimizer, 11));
  }
}

TEST(SupermerCompressionTest, FewerSupermersThanKmers) {
  // The whole point of §IV: supermers reduce the number of exchanged units.
  SupermerConfig cfg;  // paper defaults
  Xoshiro256 rng(40);
  const std::string read = random_seq(rng, 2000);
  const auto supermers = build_supermers_read(read, cfg, 8);
  const std::uint64_t nkmers = count_kmers(read, cfg.k);
  EXPECT_LT(supermers.size(), nkmers / 2);
}

}  // namespace
}  // namespace dedukt::kmer
