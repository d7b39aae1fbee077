#include "dedukt/io/read_stream.hpp"

#include "dedukt/util/error.hpp"

namespace dedukt::io {

std::uint64_t fastq_record_bytes(const Read& read) {
  // '@' + id + '\n' + bases + '\n' + "+\n" + quality + '\n'
  return 1 + read.id.size() + 1 + read.bases.size() + 1 + 2 +
         read.bases.size() + 1;
}

ReadView BatchBounds::slice(ReadView reads, std::size_t first) const {
  std::size_t end = first;
  std::uint64_t bytes = 0;
  while (end < reads.size() && !full(end - first, bytes)) {
    bytes += fastq_record_bytes(reads.reads[end++]);
  }
  return ReadView{reads.reads.subspan(first, end - first)};
}

std::uint64_t resident_read_bytes(ReadView reads) {
  std::uint64_t bytes = 0;
  for (const Read& read : reads.reads) {
    bytes += read.id.size() + read.bases.size() + read.quality.size();
  }
  return bytes;
}

std::optional<ReadBatch> VectorBatchStream::next() {
  if (cursor_ >= reads_.reads.size()) return std::nullopt;
  const ReadView slice = bounds_.slice(reads_, cursor_);
  cursor_ += slice.size();
  return ReadBatch{{slice.reads.begin(), slice.reads.end()}};
}

FastqBatchStream::FastqBatchStream(const std::string& path,
                                   BatchBounds bounds)
    : in_(path), reader_(in_), bounds_(bounds) {
  if (!in_) throw ParseError("cannot open FASTQ file: " + path);
}

std::optional<ReadBatch> FastqBatchStream::next() {
  ReadBatch batch;
  std::uint64_t bytes = 0;
  Read read;
  while (!bounds_.full(batch.reads.size(), bytes) && reader_.next(read)) {
    bytes += fastq_record_bytes(read);
    batch.reads.push_back(std::move(read));
    read = Read{};
  }
  if (batch.reads.empty()) return std::nullopt;
  return batch;
}

}  // namespace dedukt::io
