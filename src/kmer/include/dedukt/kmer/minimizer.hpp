// Minimizers (§II-B, §IV-A).
//
// A minimizer of a k-mer is its smallest m-mer (m < k) under an ordering.
// Three orderings from the paper and its citations are implemented:
//
//  * kLexicographic — Roberts' original ordering: plain lexicographic
//    comparison (integer comparison of standard-encoded packed m-mers).
//    Known to produce skewed partitions.
//  * kKmc2 — KMC2's modification: m-mers starting with AAA or ACA get
//    lower priority (are avoided), spreading out the bins.
//  * kRandomized — the paper's choice (§IV-A): bases are mapped to 2-bit
//    codes in the order A=1, C=0, T=2, G=3, which implicitly defines a
//    pseudo-random ordering (as in Squeakr). This is the default policy.
//
// A policy fixes both the BaseEncoding in which the pipeline packs codes
// and the score function that ranks m-mers; smaller score wins. The score
// is injective, so the smallest score names exactly one m-mer and no tie
// break is needed: minimizer_of (one k-mer) and minimizers_of (every
// k-mer of a fragment, by a block sliding minimum) agree bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "dedukt/hash/murmur3.hpp"
#include "dedukt/io/dna.hpp"
#include "dedukt/kmer/kmer.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::kmer {

enum class MinimizerOrder {
  kLexicographic,
  kKmc2,
  kRandomized,
};

[[nodiscard]] std::string to_string(MinimizerOrder order);

/// Policy = ordering + minimizer length. Copyable value type used
/// throughout the pipelines.
class MinimizerPolicy {
 public:
  MinimizerPolicy(MinimizerOrder order, int m);

  [[nodiscard]] MinimizerOrder order() const { return order_; }
  [[nodiscard]] int m() const { return m_; }

  /// The base encoding codes must be packed with for score() to be valid.
  [[nodiscard]] io::BaseEncoding encoding() const {
    return order_ == MinimizerOrder::kRandomized
               ? io::BaseEncoding::kRandomized
               : io::BaseEncoding::kStandard;
  }

  /// Rank of an m-mer code (packed under encoding()); smaller is preferred.
  /// Injective, and `score(mmer) & code_mask(m())` is `mmer` again: the
  /// identity for the lexicographic and randomized orders, and the KMC2
  /// penalty adds 4^m, above every unpenalized code (m <= 30).
  [[nodiscard]] std::uint64_t score(KmerCode mmer) const {
    if (order_ == MinimizerOrder::kKmc2) {
      // Penalize m-mers starting with AAA or ACA (standard encoding:
      // A=0b00, C=0b01) by pushing them above every unpenalized m-mer.
      const KmerCode prefix3 = mmer >> (2 * (m_ - 3));
      if (prefix3 == 0b000000 /*AAA*/ || prefix3 == 0b000100 /*ACA*/) {
        return mmer + (KmerCode{1} << (2 * m_));
      }
    }
    return mmer;
  }

 private:
  MinimizerOrder order_;
  int m_;
};

/// The minimizer m-mer of a k-mer `code` (packed with policy.encoding(),
/// holding `k` bases). Returns the m-mer code, not its score.
///
/// Rescans all k-m+1 m-mers of the k-mer — O(k) per call. Fine for a
/// single k-mer; for the consecutive k-mers of a fragment use
/// minimizers_of, which is O(1) per k-mer.
[[nodiscard]] KmerCode minimizer_of(KmerCode code, int k,
                                    const MinimizerPolicy& policy);

/// The minimizer of every k-mer of one fragment: `out[i]` is
/// minimizer_of(codes[i], k, policy), where `codes` are the fragment's
/// consecutive k-mer codes, left to right (each one base after the
/// previous). `out` must have codes.size() elements and must not alias
/// `codes`.
///
/// A block sliding minimum (van Herk / Gil-Werman): the fragment's m-mers
/// are cut into blocks of w = k − m + 1, the m-mers of one k-mer. Each
/// k-mer's w m-mers span at most two adjacent blocks, so its minimum
/// score is the smaller of the suffix minimum of the first block from its
/// first m-mer and the prefix minimum of the next block up to its last.
/// One backward pass writes the suffix minima into `out`, one forward
/// pass folds in the prefix minima: about three comparisons per k-mer
/// whatever w is, with no scratch beyond `out` and the scores of the
/// last k-mer's w − 1 trailing m-mers (on the stack). Because the score
/// is injective, the minimum score masks back to the one m-mer
/// minimizer_of returns.
void minimizers_of(std::span<const KmerCode> codes, int k,
                   const MinimizerPolicy& policy, std::span<KmerCode> out);

/// Seed separating the destination hash from the table-probing hash.
inline constexpr std::uint64_t kDestinationHashSeed = 0xD35Cu;

/// Destination partition of a minimizer (supermer routing, §IV-A): all
/// k-mers sharing a minimizer land on the same partition.
[[nodiscard]] inline std::uint32_t minimizer_partition(KmerCode minimizer,
                                                       std::uint32_t parts) {
  return hash::to_partition(hash::hash_u64(minimizer, kDestinationHashSeed),
                            parts);
}

/// Destination partition of a whole k-mer (the k-mer-based pipeline,
/// Algorithm 1 line 5).
[[nodiscard]] inline std::uint32_t kmer_partition(KmerCode kmer,
                                                  std::uint32_t parts) {
  return hash::to_partition(hash::hash_u64(kmer, kDestinationHashSeed),
                            parts);
}

}  // namespace dedukt::kmer
