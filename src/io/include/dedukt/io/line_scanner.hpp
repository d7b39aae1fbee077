// Block line scanner — the one line reader under the FASTQ and FASTA
// readers (fastq.hpp, fasta.hpp, read_stream.hpp's FastqBatchStream).
//
// It fills a fixed block with istream::read and finds line ends with
// memchr, so decoding costs one bulk read per block instead of one
// std::getline per line. A line cut by the end of the block moves to the
// block's front before the refill, so every line shorter than the block
// reaches its destination string in one append, at its exact size. (A line
// appended in two pieces grows by the string's doubling and leaves an
// odd-size chunk behind; on long reads that raised a streamed count's
// peak RSS by about 12 MiB.) The block never grows: a line longer than the
// block reaches its destination piece by piece. It stays below glibc's
// 128 KiB mmap threshold, so it comes from the heap like the reads it
// feeds. The input is read, not mapped: mapped page-cache pages would
// count towards the process's peak RSS.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

namespace dedukt::io {

class LineScanner {
 public:
  /// Bytes of input one refill reads.
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

  explicit LineScanner(std::istream& in);

  LineScanner(const LineScanner&) = delete;
  LineScanner& operator=(const LineScanner&) = delete;

  /// Append the next line to `out`, without its '\n' and without one
  /// trailing '\r' (CRLF input), upper-casing ASCII letters when `upper`.
  /// Returns false, appending nothing, once the input is exhausted; a last
  /// line without a final '\n' is still a line. The same lines as
  /// std::getline.
  bool append_line(std::string& out, bool upper = false);

  /// The next line's first byte without consuming it, or -1 once the
  /// input is exhausted.
  [[nodiscard]] int peek();

 private:
  /// Read input into the block behind its end_ bytes; false once the
  /// input is exhausted.
  bool refill();

  std::istream& in_;
  std::unique_ptr<char[]> block_;
  std::size_t pos_ = 0;  ///< next unread byte of the block
  std::size_t end_ = 0;  ///< bytes of the block that hold input
};

}  // namespace dedukt::io
