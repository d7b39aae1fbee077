// Differential test of the block-scanned readers (line_scanner.hpp) against
// the line-at-a-time std::getline parsers they replaced, which this file
// keeps as the reference. read_fastq, FastqBatchStream and read_fasta must
// each return the reference's reads, or throw ParseError with the
// reference's message, on seeded texts larger than one scanner block
// (records straddling the block boundary at every offset of a window, lines
// longer than a block, CRLF, lowercase bases, blank lines, '+header'
// lines, no final newline) and on every truncation of a small input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dedukt/io/fasta.hpp"
#include "dedukt/io/fastq.hpp"
#include "dedukt/io/line_scanner.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/util/error.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::io {
namespace {

constexpr std::size_t kBlock = LineScanner::kBlockBytes;

// ---- the reference: the std::getline parsers ---------------------------

void strip_cr(std::string& s) {
  if (!s.empty() && s.back() == '\r') s.pop_back();
}

std::string upper(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return out;
}

ReadBatch reference_fastq(std::istream& in) {
  ReadBatch batch;
  std::string header, bases, plus, quality;
  while (std::getline(in, header)) {
    strip_cr(header);
    if (header.empty()) continue;
    if (header[0] != '@') {
      throw ParseError("FASTQ record must start with '@', got: " + header);
    }
    if (!std::getline(in, bases)) {
      throw ParseError("FASTQ record '" + header + "' truncated at sequence");
    }
    if (!std::getline(in, plus)) {
      throw ParseError("FASTQ record '" + header + "' truncated at '+'");
    }
    if (!std::getline(in, quality)) {
      throw ParseError("FASTQ record '" + header + "' truncated at quality");
    }
    strip_cr(bases);
    strip_cr(plus);
    strip_cr(quality);
    if (plus.empty() || plus[0] != '+') {
      throw ParseError("FASTQ record '" + header + "' missing '+' separator");
    }
    if (quality.size() != bases.size()) {
      throw ParseError("FASTQ record '" + header +
                       "' quality length does not match sequence length");
    }
    batch.reads.push_back({header.substr(1), upper(bases), quality});
  }
  return batch;
}

ReadBatch reference_fasta(std::istream& in) {
  ReadBatch batch;
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
  while (std::getline(in, line)) {
    strip_cr(line);
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      in_record = true;
      current.id = line.substr(1);
    } else {
      if (!in_record) throw ParseError("FASTA sequence before first '>'");
      current.bases += upper(line);
    }
  }
  flush();
  return batch;
}

// ---- outcomes ------------------------------------------------------------

/// What a parse returned: its reads, or the message of its ParseError.
struct Outcome {
  std::optional<ReadBatch> reads;
  std::string error;
};

template <typename Parse>
Outcome outcome_of(Parse&& parse) {
  try {
    return {parse(), ""};
  } catch (const ParseError& e) {
    return {std::nullopt, e.what()};
  }
}

Outcome reference_fastq_of(const std::string& text) {
  return outcome_of([&] {
    std::istringstream in(text);
    return reference_fastq(in);
  });
}

Outcome fastq_of(const std::string& text) {
  return outcome_of([&] {
    std::istringstream in(text);
    return read_fastq(in);
  });
}

Outcome reference_fasta_of(const std::string& text) {
  return outcome_of([&] {
    std::istringstream in(text);
    return reference_fasta(in);
  });
}

Outcome fasta_of(const std::string& text) {
  return outcome_of([&] {
    std::istringstream in(text);
    return read_fasta(in);
  });
}

/// `text` written to a file and pulled through FastqBatchStream in small
/// batches, alternating a read bound and a byte bound, concatenated.
Outcome streamed_of(const std::string& text, std::size_t variant) {
  const std::string path = test_support::temp_path("differential.fastq");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  BatchBounds bounds;
  if (variant % 2 == 0) {
    bounds.max_reads = 3;
  } else {
    bounds.max_bytes = 512;
  }
  Outcome outcome = outcome_of([&] {
    FastqBatchStream stream(path, bounds);
    ReadBatch all;
    while (auto batch = stream.next()) {
      for (Read& read : batch->reads) all.reads.push_back(std::move(read));
    }
    return all;
  });
  std::remove(path.c_str());
  return outcome;
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& what) {
  ASSERT_EQ(got.reads.has_value(), want.reads.has_value())
      << what << ": got error '" << got.error << "', want error '"
      << want.error << "'";
  if (!want.reads) {
    EXPECT_EQ(got.error, want.error) << what;
    return;
  }
  ASSERT_EQ(got.reads->size(), want.reads->size()) << what;
  for (std::size_t i = 0; i < want.reads->size(); ++i) {
    const Read& a = got.reads->reads[i];
    const Read& b = want.reads->reads[i];
    ASSERT_EQ(a.id, b.id) << what << ", read " << i;
    ASSERT_EQ(a.bases, b.bases) << what << ", read " << i;
    ASSERT_EQ(a.quality, b.quality) << what << ", read " << i;
  }
}

/// All three readers against the reference on one FASTQ and one FASTA
/// text.
void expect_all_match(const std::string& fastq, const std::string& fasta,
                      const std::string& what, std::size_t variant = 0) {
  const Outcome want = reference_fastq_of(fastq);
  expect_same(fastq_of(fastq), want, "read_fastq, " + what);
  expect_same(streamed_of(fastq, variant), want,
              "FastqBatchStream, " + what);
  expect_same(fasta_of(fasta), reference_fasta_of(fasta),
              "read_fasta, " + what);
}

// ---- seeded texts --------------------------------------------------------

/// Writes seeded records as FASTQ and FASTA texts: lowercase and N bases,
/// CR before some line ends, blank lines between records (and inside FASTA
/// records), '+header' separators, FASTA sequences wrapped at varying
/// widths.
class TextWriter {
 public:
  explicit TextWriter(std::uint64_t seed) : rng_(seed) {}

  void record(std::size_t length, std::size_t id_length = 0) {
    std::string id = "r" + std::to_string(count_++);
    if (id_length > id.size()) id.append(id_length - id.size(), 'x');
    if (pick(3) == 0) id += " desc=" + std::to_string(pick(1000));
    std::string bases, quality;
    for (std::size_t i = 0; i < length; ++i) {
      bases.push_back("ACGTacgtN"[pick(9)]);
      quality.push_back(static_cast<char>('!' + pick(42)));
    }
    blank_lines(fastq);
    fastq += '@' + id + end();
    fastq += bases + end();
    fastq += (pick(2) == 0 ? "+" : "+" + id) + end();
    fastq += quality + end();

    blank_lines(fasta);
    fasta += '>' + id + end();
    const std::size_t width = pick(2) == 0 ? length : 1 + pick(80);
    for (std::size_t i = 0; i < length; i += width) {
      fasta += bases.substr(i, width) + end();
      if (pick(8) == 0) fasta += end();
    }
  }

  /// Blank lines until both texts are exactly `bytes` long (each must be
  /// shorter), so that what follows starts at a chosen offset.
  void pad_to(std::size_t bytes) {
    fastq.append(bytes - fastq.size(), '\n');
    fasta.append(bytes - fasta.size(), '\n');
  }

  std::string fastq;
  std::string fasta;

 private:
  std::size_t pick(std::size_t n) { return rng_() % n; }
  std::string end() { return pick(3) == 0 ? "\r\n" : "\n"; }
  void blank_lines(std::string& text) {
    for (std::size_t n = pick(6); n > 3; --n) text += end();
  }

  std::mt19937_64 rng_;
  std::size_t count_ = 0;
};

/// `n` short records, a few hundred bytes of FASTQ.
void short_records(TextWriter& text, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) text.record(5 + i * 13 % 70);
}

TEST(DecoderDifferentialTest, LargeSeededTextsMatchTheReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    TextWriter text(seed);
    for (int i = 0; i < 400; ++i) text.record(20 + i * 37 % 300);
    text.record(kBlock + kBlock / 2);       // a sequence longer than a block
    text.record(50, kBlock + 100);           // a header longer than a block
    for (int i = 0; i < 400; ++i) text.record(20 + i * 53 % 250);
    ASSERT_GT(text.fastq.size(), 3 * kBlock);
    ASSERT_GT(text.fasta.size(), 3 * kBlock);
    const std::string what = "seed " + std::to_string(seed);
    expect_all_match(text.fastq, text.fasta, what, seed);

    // No final newline: the last line still counts.
    while (text.fastq.back() == '\n' || text.fastq.back() == '\r') {
      text.fastq.pop_back();
    }
    while (text.fasta.back() == '\n' || text.fasta.back() == '\r') {
      text.fasta.pop_back();
    }
    expect_all_match(text.fastq, text.fasta, what + ", no final newline",
                     seed + 1);
  }
}

TEST(DecoderDifferentialTest, RecordsStraddleTheBlockBoundaryAtEveryOffset) {
  // Blank lines pad a seeded head so that the records after it start at
  // every offset of a window ending at the block boundary, and the
  // boundary falls on every byte of them: inside a header, between '\r'
  // and '\n', on a blank line, right after a line end. The padding draws
  // nothing from the seed, so every shift writes the same records.
  const auto head = [](TextWriter& text) {
    for (int i = 0; i < 50; ++i) text.record(100 + i % 60);
  };
  TextWriter unpadded(7);
  head(unpadded);
  const std::size_t head_fastq = unpadded.fastq.size();
  const std::size_t head_fasta = unpadded.fasta.size();
  short_records(unpadded, 4);
  const std::size_t window =
      std::max(unpadded.fastq.size() - head_fastq,
               unpadded.fasta.size() - head_fasta);
  ASSERT_LT(std::max(head_fastq, head_fasta) + window, kBlock);
  for (std::size_t shift = 0; shift <= window; ++shift) {
    TextWriter text(7);
    head(text);
    text.pad_to(kBlock - shift);
    short_records(text, 4);
    expect_all_match(text.fastq, text.fasta,
                     "records starting " + std::to_string(shift) +
                         " bytes before the block boundary",
                     shift);
  }
}

TEST(DecoderDifferentialTest, LastLineEndingWhereARefillEnds) {
  // A last line whose bytes end exactly where a refill ends, with and
  // without a final newline: the scanner has already passed part of it on
  // when it meets the end of the input.
  for (const std::size_t length :
       {kBlock - 4, kBlock - 3, kBlock, kBlock + 1, 2 * kBlock - 3}) {
    for (const char* end : {"", "\n", "\r\n"}) {
      const std::string bases(length, 'a');
      const std::string fastq = "@r\n" + bases + "\n+\n" +
                                std::string(length, 'I') + end;
      const std::string fasta = ">s\n" + bases + end;
      expect_all_match(fastq, fasta,
                       "a " + std::to_string(length) + "-byte last line",
                       length);
    }
  }
}

TEST(DecoderDifferentialTest, EveryTruncationOfASmallInputMatches) {
  TextWriter text(11);
  short_records(text, 4);
  // The same records again, with a malformed tail to cut into.
  text.fastq += "@bad\r\nACGT\r\nIIII\r\n+\r\n";
  text.fasta += "\n>empty\n>ok\nacgt\n";
  const std::size_t longest = std::max(text.fastq.size(), text.fasta.size());
  for (std::size_t cut = 0; cut <= longest; ++cut) {
    expect_all_match(text.fastq.substr(0, cut), text.fasta.substr(0, cut),
                     "prefix of " + std::to_string(cut) + " bytes", cut);
  }
}

TEST(DecoderDifferentialTest, MalformedRecordsGiveTheReferenceMessages) {
  const std::vector<std::string> fastq = {
      "r1\nACGT\n+\nIIII\n",           // no '@'
      "@r1\nACGT\nIIII\nIIII\n",       // no '+'
      "@r1\r\nACGT\r\n+\r\nIII\r\n",   // quality length
      "@r1\nACGT\n+\n",                // truncated at quality
      "@r1\nACGT\n",                   // truncated at '+'
      "@r1\n",                         // truncated at sequence
      "@ok\nAC\n+\nII\n\n\nnot-a-header\nAC\n+\nII\n",
  };
  for (const std::string& text : fastq) {
    const Outcome want = reference_fastq_of(text);
    ASSERT_FALSE(want.reads.has_value()) << text;
    expect_same(fastq_of(text), want, "read_fastq on " + text);
    expect_same(streamed_of(text, 0), want, "FastqBatchStream on " + text);
  }
  const std::vector<std::string> fasta = {
      "ACGT\n>s\nAC\n",   // sequence before the first header
      ">only-header\n",   // no sequence
      ">a\nAC\n>b\r\n\r\n>c\nGT\n",
  };
  for (const std::string& text : fasta) {
    const Outcome want = reference_fasta_of(text);
    ASSERT_FALSE(want.reads.has_value()) << text;
    expect_same(fasta_of(text), want, "read_fasta on " + text);
  }
}

}  // namespace
}  // namespace dedukt::io
