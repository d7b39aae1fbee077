#include "dedukt/io/fastq.hpp"

#include <fstream>
#include <istream>
#include <ostream>

#include "dedukt/util/error.hpp"

namespace dedukt::io {

bool FastqRecordReader::next(Read& read) {
  do {
    header_.clear();
    if (!lines_.append_line(header_)) return false;
  } while (header_.empty());
  if (header_[0] != '@') {
    throw ParseError("FASTQ record must start with '@', got: " + header_);
  }
  read.id = header_.substr(1);
  read.bases.clear();
  if (!lines_.append_line(read.bases, /*upper=*/true)) {
    throw ParseError("FASTQ record '" + header_ + "' truncated at sequence");
  }
  plus_.clear();
  if (!lines_.append_line(plus_)) {
    throw ParseError("FASTQ record '" + header_ + "' truncated at '+'");
  }
  read.quality.clear();
  if (!lines_.append_line(read.quality)) {
    throw ParseError("FASTQ record '" + header_ + "' truncated at quality");
  }
  if (plus_.empty() || plus_[0] != '+') {
    throw ParseError("FASTQ record '" + header_ + "' missing '+' separator");
  }
  if (read.quality.size() != read.bases.size()) {
    throw ParseError("FASTQ record '" + header_ +
                     "' quality length does not match sequence length");
  }
  return true;
}

ReadBatch read_fastq(std::istream& in) {
  ReadBatch batch;
  FastqRecordReader reader(in);
  Read read;
  while (reader.next(read)) {
    batch.reads.push_back(std::move(read));
    read = Read{};
  }
  return batch;
}

ReadBatch read_fastq_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open FASTQ file: " + path);
  return read_fastq(in);
}

void write_fastq(std::ostream& out, const ReadBatch& batch) {
  for (const auto& read : batch.reads) {
    out << '@' << read.id << '\n' << read.bases << "\n+\n";
    if (read.quality.size() == read.bases.size()) {
      out << read.quality << '\n';
    } else {
      out << std::string(read.bases.size(), 'I') << '\n';
    }
  }
}

void write_fastq_file(const std::string& path, const ReadBatch& batch) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot open FASTQ file for writing: " + path);
  write_fastq(out, batch);
}

std::uint64_t fastq_size_bytes(const ReadBatch& batch) {
  std::uint64_t total = 0;
  for (const auto& read : batch.reads) {
    // '@' + id + '\n' + bases + '\n' + "+\n" + quality + '\n'
    total += 1 + read.id.size() + 1 + read.bases.size() + 1 + 2 +
             read.bases.size() + 1;
  }
  return total;
}

}  // namespace dedukt::io
