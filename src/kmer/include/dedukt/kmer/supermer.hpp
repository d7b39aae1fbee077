// Supermers (§IV) — contiguous base runs whose k-mers share one minimizer.
//
// Two builders are provided:
//
//  * build_supermers() — the windowed GPU algorithm (Algorithm 2, §IV-B):
//    reads are cut into windows of `window` k-mer starts; one (simulated)
//    thread owns a window and grows supermers in a private register,
//    so supermers never span windows and never exceed k + window - 1 bases.
//    With the paper's k=17, window=15 a supermer packs into a single 64-bit
//    machine word (§IV-C), plus one length byte.
//
//  * build_supermers_maximal() — the reference builder with no window cap,
//    producing maximal supermers. Used by tests (the windowed output must
//    be a refinement of it) and by the compression-potential analyses.
//
// Every builder, the wide one included, packs a fragment's k-mer codes
// once and takes every k-mer's minimizer from one block sliding minimum
// over them (minimizers_of), O(1) per k-mer.
//
// Invariants (property-tested):
//  - every k-mer of the input appears in exactly one supermer;
//  - a supermer's k-mers all share its minimizer, which the windowed
//    builders report with it;
//  - the destination is a function of the minimizer alone, so every
//    occurrence of a k-mer routes to the same partition (§IV-A).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/kmer.hpp"
#include "dedukt/kmer/minimizer.hpp"
#include "dedukt/kmer/wide.hpp"

namespace dedukt::kmer {

/// Supermer pipeline parameters. The defaults are the paper's operating
/// point: k=17, m=7, window=15, randomized minimizer ordering.
struct SupermerConfig {
  int k = 17;
  int m = 7;
  int window = 15;  ///< max k-mers per supermer
  MinimizerOrder order = MinimizerOrder::kRandomized;
  /// Two-word supermer packing (extension): lifts the single-word cap of
  /// k + window - 1 <= 31 bases (§IV-C) to 63 bases, allowing windows the
  /// paper could not use, at 17 wire bytes per supermer instead of 9.
  bool wide = false;

  [[nodiscard]] MinimizerPolicy policy() const {
    return MinimizerPolicy(order, m);
  }

  /// Longest supermer the window permits, in bases.
  [[nodiscard]] int max_supermer_bases() const { return k + window - 1; }

  /// Throws PreconditionError unless the configuration is valid and packs
  /// into one 64-bit word (or two when `wide`).
  void validate() const;
};

/// A supermer packed into one machine word: `len` bases (k <= len <= 31),
/// first base in the most significant occupied 2-bit group.
struct PackedSupermer {
  KmerCode bases = 0;
  std::uint8_t len = 0;

  friend bool operator==(const PackedSupermer&,
                         const PackedSupermer&) = default;
};

/// A packed supermer together with its destination partition and the
/// minimizer all of its k-mers share.
struct DestinedSupermer {
  PackedSupermer smer;
  std::uint32_t dest = 0;
  KmerCode minimizer = 0;
};

/// Invoke fn(kmer_code) for each k-mer of a packed supermer, in order.
template <typename Fn>
void for_each_kmer_in_supermer(const PackedSupermer& smer, int k, Fn&& fn) {
  for (int j = 0; j + k <= static_cast<int>(smer.len); ++j) {
    fn(sub_code(smer.bases, smer.len, j, k));
  }
}

/// Number of k-mers a packed supermer carries.
[[nodiscard]] constexpr int kmers_in_supermer(const PackedSupermer& smer,
                                              int k) {
  return static_cast<int>(smer.len) - k + 1;
}

/// Windowed builder over one ACGT-only fragment; appends to `out`.
/// `parts` is the number of destination partitions (ranks).
void build_supermers(std::string_view fragment, const SupermerConfig& config,
                     std::uint32_t parts, std::vector<DestinedSupermer>& out);

/// Windowed builder over a full read (handles non-ACGT breaks).
[[nodiscard]] std::vector<DestinedSupermer> build_supermers_read(
    std::string_view read, const SupermerConfig& config, std::uint32_t parts);

// --- wide supermers (two-word packing extension) ---

/// A supermer of up to 63 bases packed into two machine words.
struct PackedWideSupermer {
  WideKey bases;
  std::uint8_t len = 0;

  friend bool operator==(const PackedWideSupermer&,
                         const PackedWideSupermer&) = default;
};

/// A wide packed supermer with its destination partition and minimizer.
struct DestinedWideSupermer {
  PackedWideSupermer smer;
  std::uint32_t dest = 0;
  KmerCode minimizer = 0;
};

/// Invoke fn(kmer_code) for each (narrow, k <= 31) k-mer of a wide
/// supermer, in order.
template <typename Fn>
void for_each_kmer_in_wide_supermer(const PackedWideSupermer& smer, int k,
                                    Fn&& fn) {
  const WideCode code = from_key(smer.bases);
  for (int j = 0; j + k <= static_cast<int>(smer.len); ++j) {
    fn(wide_sub(code, smer.len, j, k));
  }
}

/// Windowed builder emitting wide supermers (config.wide must be true).
void build_wide_supermers(std::string_view fragment,
                          const SupermerConfig& config, std::uint32_t parts,
                          std::vector<DestinedWideSupermer>& out);

/// Windowed wide builder over a full read (handles non-ACGT breaks).
[[nodiscard]] std::vector<DestinedWideSupermer> build_wide_supermers_read(
    std::string_view read, const SupermerConfig& config,
    std::uint32_t parts);

/// A maximal (unbounded-length) supermer, for analyses and testing.
struct MaximalSupermer {
  std::string bases;
  KmerCode minimizer = 0;
  std::uint32_t dest = 0;
};

/// Reference builder: maximal supermers of one fragment (no window cap).
[[nodiscard]] std::vector<MaximalSupermer> build_supermers_maximal(
    std::string_view fragment, int k, const MinimizerPolicy& policy,
    std::uint32_t parts);

/// Decode a packed supermer to ASCII under `enc`.
[[nodiscard]] inline std::string unpack_supermer(const PackedSupermer& smer,
                                                 io::BaseEncoding enc) {
  return unpack(smer.bases, smer.len, enc);
}

}  // namespace dedukt::kmer
