// Core sequence record types shared by the readers, generators and pipelines.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dedukt::io {

/// One sequencing read: identifier, bases, and (optionally) qualities.
struct Read {
  std::string id;       ///< record name, without the '@'/'>' sigil
  std::string bases;    ///< ACGT (upper case once validated)
  std::string quality;  ///< phred+33 string, empty for FASTA records
};

/// A contiguous run of reads that a ReadBatch owns: what a rank reads. It
/// copies nothing and must not outlive the batch it views.
struct ReadView {
  std::span<const Read> reads;

  [[nodiscard]] std::size_t size() const { return reads.size(); }
  [[nodiscard]] bool empty() const { return reads.empty(); }

  /// Total number of bases across all reads.
  [[nodiscard]] std::uint64_t total_bases() const {
    std::uint64_t n = 0;
    for (const auto& r : reads) n += r.bases.size();
    return n;
  }

  /// Number of k-mers these reads yield for a given k
  /// (reads shorter than k contribute none).
  [[nodiscard]] std::uint64_t total_kmers(int k) const {
    std::uint64_t n = 0;
    for (const auto& r : reads) {
      if (r.bases.size() >= static_cast<std::size_t>(k)) {
        n += r.bases.size() - static_cast<std::size_t>(k) + 1;
      }
    }
    return n;
  }
};

/// A batch of reads: the unit the readers produce and the streams yield.
/// It converts to a ReadView of all its reads.
struct ReadBatch {
  std::vector<Read> reads;

  operator ReadView() const { return ReadView{reads}; }  // NOLINT(*-explicit-*)

  [[nodiscard]] std::size_t size() const { return reads.size(); }
  [[nodiscard]] bool empty() const { return reads.empty(); }
  [[nodiscard]] std::uint64_t total_bases() const {
    return ReadView(*this).total_bases();
  }
  [[nodiscard]] std::uint64_t total_kmers(int k) const {
    return ReadView(*this).total_kmers(k);
  }
};

}  // namespace dedukt::io
