#include "dedukt/kmer/minimizer.hpp"

#include <algorithm>
#include <array>

#include "dedukt/util/error.hpp"

namespace dedukt::kmer {

std::string to_string(MinimizerOrder order) {
  switch (order) {
    case MinimizerOrder::kLexicographic: return "lexicographic";
    case MinimizerOrder::kKmc2: return "kmc2";
    case MinimizerOrder::kRandomized: return "randomized";
  }
  return "?";
}

MinimizerPolicy::MinimizerPolicy(MinimizerOrder order, int m)
    : order_(order), m_(m) {
  DEDUKT_REQUIRE_MSG(m >= 1 && m <= kMaxPackedK,
                     "minimizer length m out of range: " << m);
  DEDUKT_REQUIRE_MSG(order != MinimizerOrder::kKmc2 || m >= 3,
                     "KMC2 ordering needs m >= 3");
  // score() shifts by 2*m for the KMC2 penalty; keep it in-word.
  DEDUKT_REQUIRE_MSG(order != MinimizerOrder::kKmc2 || m <= 30,
                     "KMC2 ordering needs m <= 30");
}

KmerCode minimizer_of(KmerCode code, int k, const MinimizerPolicy& policy) {
  const int m = policy.m();
  DEDUKT_REQUIRE_MSG(m < k, "minimizer length must be < k");
  // The score is injective, so the least score of the k − m + 1 m-mers
  // names one m-mer, and masks back to it.
  const KmerCode mask = code_mask(m);
  const auto least = [&](auto score) {
    KmerCode rest = code;
    std::uint64_t best = score(rest & mask);
    for (int pos = k - m; pos > 0; --pos) {
      rest >>= 2;
      best = std::min(best, score(rest & mask));
    }
    return best & mask;
  };
  if (policy.order() == MinimizerOrder::kKmc2) {
    return least([&](KmerCode mmer) { return policy.score(mmer); });
  }
  return least([](KmerCode mmer) { return mmer; });  // score() is identity
}

void minimizers_of(std::span<const KmerCode> codes, int k,
                   const MinimizerPolicy& policy, std::span<KmerCode> out) {
  const int m = policy.m();
  DEDUKT_REQUIRE_MSG(m < k && k <= kMaxPackedK,
                     "need m < k <= " << kMaxPackedK << ", got m=" << m
                                      << " k=" << k);
  DEDUKT_REQUIRE(out.size() == codes.size());
  const std::size_t n = codes.size();
  if (n == 0) return;
  const auto w = static_cast<std::size_t>(k - m + 1);
  const std::size_t mmers = n + w - 1;
  const int lead = 2 * (k - m);  // shift of a k-mer's leading m-mer
  const KmerCode mask = code_mask(m);

  // M-mer j starts at base j: for j < n it leads k-mer j, and the w − 1
  // after those lie in the last k-mer, at offsets 1 .. w − 1.
  std::array<std::uint64_t, kMaxPackedK> tail{};
  for (std::size_t t = 1; t < w; ++t) {
    tail[t - 1] =
        policy.score(sub_code(codes[n - 1], k, static_cast<int>(t), m));
  }
  const auto score_at = [&](std::size_t j) {
    return j < n ? policy.score((codes[j] >> lead) & mask) : tail[j - n];
  };

  // Backward: out[j] = the minimum score from m-mer j to the end of its
  // block, for the k-mer starts j < n.
  for (std::size_t end = mmers; end > 0;) {
    const std::size_t begin = (end - 1) / w * w;
    std::uint64_t suffix = ~std::uint64_t{0};
    std::size_t j = end;
    for (; j > std::max(n, begin); --j) {
      suffix = std::min(suffix, tail[j - 1 - n]);
    }
    while (j > begin) {
      --j;
      suffix = std::min(suffix, policy.score((codes[j] >> lead) & mask));
      out[j] = suffix;
    }
    end = begin;
  }

  // Forward: k-mer i's m-mers are i .. i + w − 1, so fold in the minimum
  // from the start of m-mer (i + w − 1)'s block up to it, and mask the
  // score back to its m-mer.
  std::uint64_t prefix = ~std::uint64_t{0};
  for (std::size_t j = 0; j + 1 < w; ++j) {
    prefix = std::min(prefix, score_at(j));
  }
  for (std::size_t begin = 0; begin < mmers; begin += w) {
    if (begin > 0) prefix = ~std::uint64_t{0};
    const std::size_t end = std::min(begin + w, mmers);
    for (std::size_t j = std::max(begin, w - 1); j < end; ++j) {
      prefix = std::min(prefix, score_at(j));
      KmerCode& best = out[j + 1 - w];
      best = std::min(best, prefix) & mask;
    }
  }
}

}  // namespace dedukt::kmer
