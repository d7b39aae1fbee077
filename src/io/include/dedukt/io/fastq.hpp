// FASTQ reading and writing (the paper's input format; Table I sizes are
// FASTQ bytes).
#pragma once

#include <iosfwd>
#include <string>

#include "dedukt/io/line_scanner.hpp"
#include "dedukt/io/sequence.hpp"

namespace dedukt::io {

/// Incremental single-record FASTQ parser — the one implementation of the
/// 4-line record grammar, shared by the whole-stream reader below and the
/// chunked FastqBatchStream (read_stream.hpp). It reads its lines through
/// a LineScanner, which reads the stream ahead of the records returned so
/// far, a block at a time. Malformed or truncated records mid-stream raise
/// typed ParseError (never a precondition error, never bad_alloc: every
/// allocation is bounded by a line already read); a clean end of input
/// returns false.
class FastqRecordReader {
 public:
  explicit FastqRecordReader(std::istream& in) : lines_(in) {}

  FastqRecordReader(const FastqRecordReader&) = delete;
  FastqRecordReader& operator=(const FastqRecordReader&) = delete;

  /// Parse the next record into `read` (bases upper-cased). Returns false
  /// once the stream is exhausted; throws ParseError on malformed input,
  /// leaving `read` unspecified.
  bool next(Read& read);

 private:
  LineScanner lines_;
  // The header and '+' lines, reused across records; the sequence and
  // quality lines go straight into the read.
  std::string header_, plus_;
};

/// Parse all FASTQ records from a stream. Bases are upper-cased. Throws
/// ParseError on malformed records (missing '+', quality length mismatch...).
[[nodiscard]] ReadBatch read_fastq(std::istream& in);

/// Parse a FASTQ file from disk.
[[nodiscard]] ReadBatch read_fastq_file(const std::string& path);

/// Write records as FASTQ; reads without qualities get 'I' (phred 40).
void write_fastq(std::ostream& out, const ReadBatch& batch);

/// Write records as a FASTQ file on disk.
void write_fastq_file(const std::string& path, const ReadBatch& batch);

/// Size in bytes this batch would occupy as FASTQ (the "Fastq Size" metric
/// of Table I), without writing it out.
[[nodiscard]] std::uint64_t fastq_size_bytes(const ReadBatch& batch);

}  // namespace dedukt::io
