// Pull-based read ingestion — the stream-not-vector boundary the pipelines
// consume.
//
// A ReadBatchStream yields bounded ReadBatches one at a time, so a counting
// job's resident footprint is one batch plus its exchange buffers instead
// of the whole dataset. The in-memory path needs no stream: the driver
// cuts the caller's batch into slices by the same BatchBounds rule
// (BatchBounds::slice), in place, and an unbounded run is one slice of the
// whole input.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "dedukt/io/fastq.hpp"
#include "dedukt/io/sequence.hpp"

namespace dedukt::io {

/// Bounds on one pulled batch; 0 means unlimited. A batch closes once it
/// meets either bound, and always admits at least one read — so a batch
/// may overshoot max_bytes by at most one record, and a bound smaller
/// than one record still makes progress.
struct BatchBounds {
  std::uint64_t max_reads = 0;  ///< reads per batch (--batch-reads)
  std::uint64_t max_bytes = 0;  ///< FASTQ bytes per batch (--batch-bytes)

  [[nodiscard]] bool unbounded() const {
    return max_reads == 0 && max_bytes == 0;
  }

  /// True once a batch holding `reads`/`bytes` must close.
  [[nodiscard]] bool full(std::uint64_t reads, std::uint64_t bytes) const {
    if (max_reads != 0 && reads >= max_reads) return true;
    if (max_bytes != 0 && bytes >= max_bytes) return true;
    return false;
  }

  /// The batch that starts at `reads[first]`: it admits reads, counting
  /// their fastq_record_bytes, until it is full() or `reads` ends — the
  /// rule FastqBatchStream applies as it decodes. A view into `reads`;
  /// unbounded, the whole rest.
  [[nodiscard]] ReadView slice(ReadView reads, std::size_t first) const;
};

/// FASTQ-bytes footprint of one read (Table I's size metric) — the unit
/// BatchBounds::max_bytes is stated in. Matches fastq_size_bytes summed
/// over the batch.
[[nodiscard]] std::uint64_t fastq_record_bytes(const Read& read);

/// In-memory footprint of some reads (id + bases + quality payload) — the
/// ingest share of a streamed run's peak_resident_bytes ledger.
[[nodiscard]] std::uint64_t resident_read_bytes(ReadView reads);

/// Abstract pull-based source of read batches.
class ReadBatchStream {
 public:
  virtual ~ReadBatchStream() = default;

  /// Pull the next non-empty batch; nullopt once the input is exhausted.
  /// Implementations may throw ParseError on malformed input.
  [[nodiscard]] virtual std::optional<ReadBatch> next() = 0;
};

/// Stream over an already-materialized batch, for callers that need the
/// streamed path over reads they hold (tests). Holds a reference — the
/// batch must outlive the stream — and yields a copy of each
/// BatchBounds::slice; unbounded, the whole input once.
class VectorBatchStream final : public ReadBatchStream {
 public:
  explicit VectorBatchStream(const ReadBatch& reads, BatchBounds bounds = {})
      : reads_(reads), bounds_(bounds) {}

  [[nodiscard]] std::optional<ReadBatch> next() override;

 private:
  const ReadBatch& reads_;
  BatchBounds bounds_;
  std::size_t cursor_ = 0;
};

/// Chunked FASTQ file decoder: parses records incrementally through
/// FastqRecordReader (identical grammar and errors to read_fastq_file) and
/// never holds more than one batch of reads. Throws ParseError if the file
/// cannot be opened or a record is malformed/truncated.
class FastqBatchStream final : public ReadBatchStream {
 public:
  explicit FastqBatchStream(const std::string& path, BatchBounds bounds = {});

  [[nodiscard]] std::optional<ReadBatch> next() override;

 private:
  std::ifstream in_;
  FastqRecordReader reader_;
  BatchBounds bounds_;
};

}  // namespace dedukt::io
