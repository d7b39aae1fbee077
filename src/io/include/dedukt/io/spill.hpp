// On-disk supermer/k-mer spill bins — the out-of-core staging format.
//
// Pass 1 of the out-of-core flow appends destination-tagged runs of packed
// payload to per-rank per-bin files; pass 2 replays each bin through the
// exchange/count machinery with a working set of one bin. The format is a
// fixed header (magic, version, payload kind, k, rank count) followed by
// length-prefixed runs. Readers validate everything — wrong
// magic/version/kind/k/rank-count, out-of-range destinations, truncated
// runs and supermer lengths outside [k, 31] (two words: [k, 63]) all raise
// typed ParseError — and check a run's declared size against the bytes
// actually remaining in the file before allocating, so a corrupt count can
// never drive a huge reserve (the counts_io hardening precedent).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace dedukt::io {

/// What one spill-bin file carries. The payload of every kind is `count`
/// packed 64-bit words per item (1 or 2) plus, for supermer kinds, one
/// length byte per item.
enum class SpillKind : std::uint32_t {
  kKmerKeys = 1,      ///< one-word packed k-mer keys (CPU/GPU k-mer paths)
  kWideKmerKeys = 2,  ///< two-word wide keys (CPU wide pipeline, k > 31)
  kSupermers = 3,     ///< one-word packed supermers + length bytes
  kWideSupermers = 4, ///< two-word packed supermers + length bytes
};

[[nodiscard]] inline std::string to_string(SpillKind kind) {
  switch (kind) {
    case SpillKind::kKmerKeys: return "kmer-keys";
    case SpillKind::kWideKmerKeys: return "wide-kmer-keys";
    case SpillKind::kSupermers: return "supermers";
    case SpillKind::kWideSupermers: return "wide-supermers";
  }
  return "?";
}

/// Packed 64-bit words per item of a kind.
[[nodiscard]] constexpr std::uint32_t spill_words_per_item(SpillKind kind) {
  return (kind == SpillKind::kWideKmerKeys ||
          kind == SpillKind::kWideSupermers)
             ? 2u
             : 1u;
}

/// Whether items of a kind carry a per-item length byte.
[[nodiscard]] constexpr bool spill_has_lens(SpillKind kind) {
  return kind == SpillKind::kSupermers || kind == SpillKind::kWideSupermers;
}

/// RAII scratch directory for one out-of-core run: a uniquely named
/// subdirectory of `root` (created on construction, parents included),
/// recursively removed on destruction — success and exception paths
/// alike. Names combine the process id with a process-wide counter so
/// concurrent runs (and concurrent processes) never collide.
class SpillDir {
 public:
  explicit SpillDir(const std::string& root);
  ~SpillDir();

  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Canonical bin-file path for (rank, bin).
  [[nodiscard]] std::string bin_path(int rank, int bin) const;

 private:
  std::string path_;
};

/// One destination-tagged run replayed from a bin file.
struct SpillRun {
  std::uint32_t dest = 0;
  std::uint64_t count = 0;             ///< items in the run
  std::vector<std::uint64_t> words;    ///< count * words_per_item
  std::vector<std::uint8_t> lens;      ///< count, empty for key kinds
};

/// Appends runs to one bin file. Each rank owns its bin writers, so no
/// synchronization is needed. Tracks bytes and append operations for the
/// DiskModel charge.
class SpillBinWriter {
 public:
  SpillBinWriter(const std::string& path, SpillKind kind, int k,
                 std::uint32_t nranks);

  SpillBinWriter(const SpillBinWriter&) = delete;
  SpillBinWriter& operator=(const SpillBinWriter&) = delete;

  /// Append one run of `count` items for destination `dest`. `words` must
  /// hold count * spill_words_per_item(kind) entries; `lens` must hold
  /// `count` entries for supermer kinds and is ignored otherwise.
  void append_run(std::uint32_t dest, const std::uint64_t* words,
                  std::uint64_t count, const std::uint8_t* lens = nullptr);

  /// Flush buffered output; throws Error if the filesystem reported a
  /// write failure. Called by the destructor (errors swallowed there).
  void close();

  ~SpillBinWriter();

  /// Run payload bytes appended so far (the fixed file header is excluded,
  /// so bytes_written on the spill side and bytes_read on the replay side
  /// are the same ledger).
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }
  [[nodiscard]] std::uint64_t runs() const { return runs_; }

 private:
  std::ofstream out_;
  std::string path_;
  SpillKind kind_;
  std::uint64_t bytes_ = 0;
  std::uint64_t runs_ = 0;
  bool closed_ = false;
};

/// Replays the runs of one bin file, validating as it goes.
class SpillBinReader {
 public:
  /// Opens and validates the header against the expected kind/k/nranks.
  SpillBinReader(const std::string& path, SpillKind kind, int k,
                 std::uint32_t nranks);

  SpillBinReader(const SpillBinReader&) = delete;
  SpillBinReader& operator=(const SpillBinReader&) = delete;

  /// Read the next run into `run`. Returns false at a clean end of file;
  /// throws ParseError on truncation, bad destinations, a run whose
  /// declared size exceeds the bytes remaining, or a supermer length
  /// outside [k, 31] (kSupermers) or [k, 63] (kWideSupermers).
  bool next(SpillRun& run);

  /// Run payload bytes replayed so far (header excluded; mirrors
  /// SpillBinWriter::bytes_written).
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_; }
  [[nodiscard]] std::uint64_t runs() const { return runs_; }

 private:
  std::ifstream in_;
  std::string path_;
  SpillKind kind_;
  std::uint32_t k_;
  std::uint32_t nranks_;
  std::uint64_t remaining_ = 0;  ///< payload bytes left after the header
  std::uint64_t bytes_ = 0;
  std::uint64_t runs_ = 0;
};

}  // namespace dedukt::io
