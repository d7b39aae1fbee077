#include "dedukt/io/line_scanner.hpp"

#include <array>
#include <cstring>
#include <istream>

namespace dedukt::io {

namespace {

/// ASCII upper case, byte for byte (what std::toupper does in the "C"
/// locale); every other byte maps to itself.
constexpr std::array<char, 256> kUpper = [] {
  std::array<char, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[c] = static_cast<char>(c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c);
  }
  return table;
}();

void append(std::string& out, const char* bytes, std::size_t n, bool upper) {
  const std::size_t at = out.size();
  out.append(bytes, n);
  if (!upper) return;
  char* appended = out.data() + at;
  for (std::size_t i = 0; i < n; ++i) {
    appended[i] = kUpper[static_cast<unsigned char>(appended[i])];
  }
}

}  // namespace

LineScanner::LineScanner(std::istream& in)
    : in_(in), block_(std::make_unique_for_overwrite<char[]>(kBlockBytes)) {}

bool LineScanner::refill() {
  in_.read(block_.get() + end_,
           static_cast<std::streamsize>(kBlockBytes - end_));
  const auto got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  return got > 0;
}

bool LineScanner::append_line(std::string& out, bool upper) {
  const std::size_t start = out.size();
  std::size_t scanned = pos_;  // [pos_, scanned) holds no '\n'
  bool flushed = false;        // a block-long piece of the line is in `out`
  for (;;) {
    const char* bytes = block_.get();
    const auto* newline = static_cast<const char*>(
        std::memchr(bytes + scanned, '\n', end_ - scanned));
    if (newline != nullptr) {
      const auto at = static_cast<std::size_t>(newline - bytes);
      append(out, bytes + pos_, at - pos_, upper);
      pos_ = at + 1;
      break;
    }
    if (pos_ == 0 && end_ == kBlockBytes) {
      // A line longer than the block goes out one block at a time.
      append(out, bytes, end_, upper);
      flushed = true;
      end_ = 0;
    } else if (pos_ > 0) {
      // The unfinished line moves to the block's front, so that it reaches
      // `out` in one piece, at its exact size.
      std::memmove(block_.get(), bytes + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    scanned = end_;
    if (!refill()) {
      if (end_ == 0 && !flushed) return false;
      append(out, bytes, end_, upper);  // the last line has no '\n'
      pos_ = end_;
      break;
    }
  }
  if (out.size() > start && out.back() == '\r') out.pop_back();
  return true;
}

int LineScanner::peek() {
  if (pos_ == end_) {
    pos_ = end_ = 0;
    if (!refill()) return -1;
  }
  return static_cast<unsigned char>(block_[pos_]);
}

}  // namespace dedukt::io
