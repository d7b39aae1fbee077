#include "dedukt/io/fasta.hpp"

#include <fstream>
#include <istream>
#include <ostream>

#include "dedukt/io/line_scanner.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::io {

ReadBatch read_fasta(std::istream& in) {
  ReadBatch batch;
  LineScanner lines(in);
  std::string line;
  Read current;
  bool in_record = false;

  auto flush = [&] {
    if (in_record) {
      if (current.bases.empty()) {
        throw ParseError("FASTA record '" + current.id + "' has no sequence");
      }
      batch.reads.push_back(std::move(current));
      current = Read{};
    }
  };

  // A line's first byte decides where it goes: a '>' line is a header, and
  // every other line of a record appends its bases (a blank line appends
  // none). Only a line before the first header is read on its own, to
  // tell a blank one from a stray sequence.
  for (int first = lines.peek(); first != -1; first = lines.peek()) {
    if (first == '>') {
      flush();
      in_record = true;
      line.clear();
      lines.append_line(line);
      current.id.assign(line, 1);
    } else if (in_record) {
      lines.append_line(current.bases, /*upper=*/true);
    } else {
      line.clear();
      lines.append_line(line);
      if (!line.empty()) throw ParseError("FASTA sequence before first '>'");
    }
  }
  flush();
  return batch;
}

ReadBatch read_fasta_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open FASTA file: " + path);
  return read_fasta(in);
}

void write_fasta(std::ostream& out, const ReadBatch& batch,
                 std::size_t line_width) {
  for (const auto& read : batch.reads) {
    out << '>' << read.id << '\n';
    if (line_width == 0) {
      out << read.bases << '\n';
    } else {
      for (std::size_t i = 0; i < read.bases.size(); i += line_width) {
        out << std::string_view(read.bases).substr(i, line_width) << '\n';
      }
    }
  }
}

void write_fasta_file(const std::string& path, const ReadBatch& batch,
                      std::size_t line_width) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot open FASTA file for writing: " + path);
  write_fasta(out, batch, line_width);
}

}  // namespace dedukt::io
