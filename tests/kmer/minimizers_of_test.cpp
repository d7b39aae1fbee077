// minimizers_of (the block sliding minimum) must be bit-identical to the
// O(k)-per-call rescan minimizer_of on every k-mer, for all three orders,
// every minimizer length from m = 1 (blocks of k m-mers) to m = k − 1
// (blocks of 2), fragments shorter than one block, and low-entropy
// fragments whose m-mers repeat. The three supermer builders that ride on
// it must emit exactly what naive builders that rescan every k-mer emit.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/minimizer.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/rng.hpp"

namespace dedukt::kmer {
namespace {

constexpr MinimizerOrder kOrders[] = {MinimizerOrder::kLexicographic,
                                      MinimizerOrder::kKmc2,
                                      MinimizerOrder::kRandomized};

/// The smallest minimizer length an order accepts (KMC2 reads a 3-base
/// prefix).
int min_m(MinimizerOrder order) {
  return order == MinimizerOrder::kKmc2 ? 3 : 1;
}

/// Random bases over the whole alphabet, or over two bases (low entropy:
/// long equal-score runs and repeated m-mers).
std::string random_fragment(Xoshiro256& rng, std::size_t len,
                            bool low_entropy) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string seq;
  seq.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    seq.push_back(kBases[rng.below(low_entropy ? 2 : 4)]);
  }
  return seq;
}

std::vector<KmerCode> codes_of(std::string_view fragment, int k,
                               const MinimizerPolicy& policy) {
  std::vector<KmerCode> codes;
  for_each_kmer(fragment, k, policy.encoding(),
                [&](KmerCode code) { codes.push_back(code); });
  return codes;
}

/// minimizers_of over `fragment` against minimizer_of on each k-mer.
void expect_matches_rescan(std::string_view fragment, int k,
                           const MinimizerPolicy& policy) {
  const std::vector<KmerCode> codes = codes_of(fragment, k, policy);
  // Poison the output: every element must be written.
  std::vector<KmerCode> minimizers(codes.size(), 0);
  minimizers_of(codes, k, policy, minimizers);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(minimizers[i], minimizer_of(codes[i], k, policy))
        << "order=" << to_string(policy.order()) << " k=" << k
        << " m=" << policy.m() << " k-mer " << i << " of " << fragment;
  }
}

TEST(MinimizersOfTest, MatchesRescanOnRandomFragments) {
  Xoshiro256 rng(401);
  for (int trial = 0; trial < 300; ++trial) {
    const MinimizerOrder order = kOrders[rng.below(3)];
    const int k = 4 + static_cast<int>(rng.below(kMaxPackedK - 3));  // 4..31
    const int lo = min_m(order);
    const int m = lo + static_cast<int>(rng.below(
                           static_cast<std::uint64_t>(k - lo)));  // lo..k-1
    const std::string seq = random_fragment(
        rng, static_cast<std::size_t>(k) + rng.below(150), trial % 2 == 0);
    expect_matches_rescan(seq, k, MinimizerPolicy(order, m));
  }
}

TEST(MinimizersOfTest, EveryMinimizerLengthAndFragmentLength) {
  // Per order and k, every m from the smallest the order accepts to k − 1,
  // and fragments of exactly k bases (one k-mer), of fewer k-mers than one
  // block, of one block, of one more, and of several blocks.
  Xoshiro256 rng(402);
  for (const MinimizerOrder order : kOrders) {
    for (const int k : {2, 5, 9, 17, 31}) {
      for (int m = min_m(order); m < k; ++m) {
        const MinimizerPolicy policy(order, m);
        const auto span = static_cast<std::size_t>(k - m + 1);
        for (const std::size_t kmers :
             {std::size_t{1}, span - 1, span, span + 1, 3 * span + 2}) {
          if (kmers == 0) continue;
          for (const bool low_entropy : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "order=" << to_string(order) << " k=" << k
                         << " m=" << m << " kmers=" << kmers);
            expect_matches_rescan(
                random_fragment(rng, kmers + static_cast<std::size_t>(k) - 1,
                                low_entropy),
                k, policy);
          }
        }
      }
    }
  }
}

TEST(MinimizersOfTest, HomopolymersAndRepeats) {
  // Every m-mer equal, or a short period: the same minimal m-mer at many
  // positions of one k-mer.
  for (const MinimizerOrder order : kOrders) {
    for (const std::string& seq :
         {std::string(60, 'A'), std::string(60, 'C'), std::string(60, 'T'),
          std::string("ACACACACACACACACACACACACACACACACACACACAC"),
          std::string("AACAACAACAACAACAACAACAACAACAACAACAACAACAAC")}) {
      for (const int m : {3, 4, 7}) {
        SCOPED_TRACE(seq);
        expect_matches_rescan(seq, 17, MinimizerPolicy(order, m));
      }
    }
  }
}

TEST(MinimizersOfTest, OverwritesAReusedOutputBuffer) {
  // A caller reuses one output buffer across fragments of different
  // lengths, as MinimizerAssignment::build does; nothing of an earlier
  // fragment may leak into a later one.
  const MinimizerPolicy policy(MinimizerOrder::kRandomized, 4);
  const int k = 9;
  std::vector<KmerCode> minimizers;
  Xoshiro256 rng(403);
  for (int frag = 0; frag < 40; ++frag) {
    const std::string seq = random_fragment(
        rng, static_cast<std::size_t>(k) + rng.below(60), frag % 3 == 0);
    const std::vector<KmerCode> codes = codes_of(seq, k, policy);
    minimizers.resize(codes.size());
    minimizers_of(codes, k, policy, minimizers);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      ASSERT_EQ(minimizers[i], minimizer_of(codes[i], k, policy));
    }
  }
}

TEST(MinimizersOfTest, EmptyFragmentAndBadArguments) {
  const MinimizerPolicy policy(MinimizerOrder::kRandomized, 7);
  std::vector<KmerCode> none;
  minimizers_of(none, 17, policy, none);  // no k-mers, nothing written
  const std::vector<KmerCode> codes = codes_of("ACGTACGTACGTACGTACGT", 17,
                                               policy);
  std::vector<KmerCode> short_out(codes.size() - 1);
  EXPECT_THROW(minimizers_of(codes, 17, policy, short_out),
               PreconditionError);
  std::vector<KmerCode> out(codes.size());
  EXPECT_THROW(minimizers_of(codes, 7, policy, out), PreconditionError);
}

// --- the builders against naive builders that rescan every k-mer ---

struct Trial {
  SupermerConfig config;
  std::uint32_t parts = 1;
  std::string fragment;
};

/// A random builder configuration (max_bases caps k + window − 1) and a
/// fragment of at least k bases for it.
Trial random_trial(Xoshiro256& rng, int trial, int max_bases) {
  Trial t;
  t.config.order = kOrders[rng.below(3)];
  t.config.m = min_m(t.config.order) + static_cast<int>(rng.below(5));
  t.config.k = t.config.m + 1 + static_cast<int>(rng.below(12));
  t.config.window = 1 + static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(max_bases - t.config.k)));
  t.parts = 1 + static_cast<std::uint32_t>(rng.below(8));
  t.fragment = random_fragment(
      rng, static_cast<std::size_t>(t.config.k) + rng.below(200),
      trial % 2 == 0);
  return t;
}

/// The windowed builder, one minimizer_of rescan per k-mer.
void naive_build_supermers(std::string_view fragment,
                           const SupermerConfig& config, std::uint32_t parts,
                           std::vector<DestinedSupermer>& out) {
  const int k = config.k;
  const MinimizerPolicy policy = config.policy();
  const std::vector<KmerCode> codes = codes_of(fragment, k, policy);
  const auto window = static_cast<std::size_t>(config.window);
  for (std::size_t wstart = 0; wstart < codes.size(); wstart += window) {
    const std::size_t wend = std::min(wstart + window, codes.size());
    PackedSupermer current{codes[wstart], static_cast<std::uint8_t>(k)};
    KmerCode prev_min = minimizer_of(codes[wstart], k, policy);
    for (std::size_t p = wstart + 1; p < wend; ++p) {
      const KmerCode minimizer = minimizer_of(codes[p], k, policy);
      if (minimizer == prev_min) {
        current.bases = append_base(
            current.bases, static_cast<io::BaseCode>(codes[p] & 3));
        current.len += 1;
      } else {
        out.push_back(
            {current, minimizer_partition(prev_min, parts), prev_min});
        current = PackedSupermer{codes[p], static_cast<std::uint8_t>(k)};
        prev_min = minimizer;
      }
    }
    out.push_back({current, minimizer_partition(prev_min, parts), prev_min});
  }
}

/// The wide windowed builder, one minimizer_of rescan per k-mer.
void naive_build_wide_supermers(std::string_view fragment,
                                const SupermerConfig& config,
                                std::uint32_t parts,
                                std::vector<DestinedWideSupermer>& out) {
  const int k = config.k;
  const MinimizerPolicy policy = config.policy();
  const std::vector<KmerCode> codes = codes_of(fragment, k, policy);
  const auto window = static_cast<std::size_t>(config.window);
  for (std::size_t wstart = 0; wstart < codes.size(); wstart += window) {
    const std::size_t wend = std::min(wstart + window, codes.size());
    WideCode current = codes[wstart];
    auto len = static_cast<std::uint8_t>(k);
    KmerCode prev_min = minimizer_of(codes[wstart], k, policy);
    for (std::size_t p = wstart + 1; p < wend; ++p) {
      const KmerCode minimizer = minimizer_of(codes[p], k, policy);
      if (minimizer == prev_min) {
        current = wide_append(current,
                              static_cast<io::BaseCode>(codes[p] & 3));
        len += 1;
      } else {
        out.push_back({PackedWideSupermer{to_key(current), len},
                       minimizer_partition(prev_min, parts), prev_min});
        current = codes[p];
        len = static_cast<std::uint8_t>(k);
        prev_min = minimizer;
      }
    }
    out.push_back({PackedWideSupermer{to_key(current), len},
                   minimizer_partition(prev_min, parts), prev_min});
  }
}

TEST(SupermerBuildersTest, BuildSupermersBitIdenticalToNaive) {
  Xoshiro256 rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    const Trial t = random_trial(rng, trial, kMaxPackedK);
    std::vector<DestinedSupermer> fast, naive;
    build_supermers(t.fragment, t.config, t.parts, fast);
    naive_build_supermers(t.fragment, t.config, t.parts, naive);
    ASSERT_EQ(fast.size(), naive.size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i].smer, naive[i].smer) << "trial " << trial;
      ASSERT_EQ(fast[i].dest, naive[i].dest) << "trial " << trial;
      ASSERT_EQ(fast[i].minimizer, naive[i].minimizer) << "trial " << trial;
    }
  }
}

TEST(SupermerBuildersTest, BuildWideSupermersBitIdenticalToNaive) {
  Xoshiro256 rng(405);
  for (int trial = 0; trial < 200; ++trial) {
    Trial t = random_trial(rng, trial, kMaxWideK);
    t.config.wide = true;
    std::vector<DestinedWideSupermer> fast, naive;
    build_wide_supermers(t.fragment, t.config, t.parts, fast);
    naive_build_wide_supermers(t.fragment, t.config, t.parts, naive);
    ASSERT_EQ(fast.size(), naive.size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i].smer, naive[i].smer) << "trial " << trial;
      ASSERT_EQ(fast[i].dest, naive[i].dest) << "trial " << trial;
      ASSERT_EQ(fast[i].minimizer, naive[i].minimizer) << "trial " << trial;
    }
  }
}

TEST(SupermerBuildersTest, BuildSupermersMaximalBitIdenticalToNaive) {
  // The maximal builder cuts wherever consecutive k-mers' rescanned
  // minimizers differ.
  Xoshiro256 rng(406);
  for (int trial = 0; trial < 200; ++trial) {
    const Trial t = random_trial(rng, trial, kMaxPackedK);
    const int k = t.config.k;
    const MinimizerPolicy policy = t.config.policy();
    const std::vector<KmerCode> codes = codes_of(t.fragment, k, policy);
    std::vector<MaximalSupermer> naive;
    std::size_t start = 0;
    for (std::size_t p = 1; p <= codes.size(); ++p) {
      const KmerCode prev_min = minimizer_of(codes[p - 1], k, policy);
      if (p == codes.size() || minimizer_of(codes[p], k, policy) != prev_min) {
        naive.push_back(
            {t.fragment.substr(start, p - 1 + static_cast<std::size_t>(k) -
                                          start),
             prev_min, minimizer_partition(prev_min, t.parts)});
        start = p;
      }
    }
    const std::vector<MaximalSupermer> fast =
        build_supermers_maximal(t.fragment, k, policy, t.parts);
    ASSERT_EQ(fast.size(), naive.size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i].bases, naive[i].bases) << "trial " << trial;
      ASSERT_EQ(fast[i].minimizer, naive[i].minimizer) << "trial " << trial;
      ASSERT_EQ(fast[i].dest, naive[i].dest) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace dedukt::kmer
