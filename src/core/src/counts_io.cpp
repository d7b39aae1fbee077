#include "dedukt/core/counts_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>

#include "dedukt/kmer/kmer.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

namespace {

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("truncated counts file (u32)");
  return v;
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("truncated counts file (u64)");
  return v;
}

void check(const CountsFile& file) {
  DEDUKT_REQUIRE_MSG(file.k >= 1 && file.k <= kmer::kMaxPackedK,
                     "counts file k out of range: " << file.k);
}

// Bounded reserve for on-disk entry counts: a corrupt header must surface
// as the typed ParseError its truncated payload raises, not a bad_alloc
// from trusting a garbage length for the allocation.
constexpr std::uint64_t kMaxReserve = 1u << 20;

// The payload moves through a staging block of this many entries, one
// stream call per block: 64 KiB, below glibc's mmap threshold.
constexpr std::size_t kBlockEntries = 4096;
constexpr std::size_t kEntryBytes = 2 * sizeof(std::uint64_t);

// Strict decimal u64: the whole field must be digits, no sign, no
// trailing garbage, no overflow. strtoull accepted "-1", "7x" and
// silently saturated on overflow — all of which are corrupt rows.
std::uint64_t parse_count_field(const std::string& row, std::size_t begin) {
  std::size_t end = row.size();
  if (end > begin && row[end - 1] == '\r') --end;  // CRLF interop
  if (begin >= end) throw ParseError("TSV counts row with empty count: " + row);
  std::uint64_t value = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = row[i];
    if (c < '0' || c > '9') {
      throw ParseError("TSV counts row with bad count: " + row);
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      throw ParseError("TSV counts row with overflowing count: " + row);
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

void write_counts_binary(std::ostream& out, const CountsFile& file) {
  check(file);
  out.write(kCountsMagic, sizeof(kCountsMagic));
  write_u32(out, kCountsVersion);
  write_u32(out, static_cast<std::uint32_t>(file.k));
  write_u32(out, file.encoding == io::BaseEncoding::kStandard ? 0u : 1u);
  write_u64(out, file.counts.size());
  const auto block =
      std::make_unique_for_overwrite<std::uint64_t[]>(2 * kBlockEntries);
  for (std::size_t first = 0; first < file.counts.size();
       first += kBlockEntries) {
    const std::size_t n = std::min(kBlockEntries, file.counts.size() - first);
    for (std::size_t i = 0; i < n; ++i) {
      block[2 * i] = file.counts[first + i].first;
      block[2 * i + 1] = file.counts[first + i].second;
    }
    out.write(reinterpret_cast<const char*>(block.get()),
              static_cast<std::streamsize>(n * kEntryBytes));
  }
  if (!out) throw ParseError("failed writing counts stream");
}

void write_counts_binary_file(const std::string& path,
                              const CountsFile& file) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ParseError("cannot open for writing: " + path);
  write_counts_binary(out, file);
}

CountsFile read_counts_binary(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCountsMagic, sizeof(magic)) != 0) {
    throw ParseError("not a DEDUKT counts file (bad magic)");
  }
  const std::uint32_t version = read_u32(in);
  if (version != kCountsVersion) {
    throw ParseError("unsupported counts file version " +
                     std::to_string(version));
  }
  CountsFile file;
  file.k = static_cast<int>(read_u32(in));
  // Corrupt input raises ParseError, not the writer-side precondition.
  if (file.k < 1 || file.k > kmer::kMaxPackedK) {
    throw ParseError("counts file k out of range: " +
                     std::to_string(file.k));
  }
  const std::uint32_t encoding = read_u32(in);
  if (encoding > 1) throw ParseError("bad encoding tag in counts file");
  file.encoding = encoding == 0 ? io::BaseEncoding::kStandard
                                : io::BaseEncoding::kRandomized;
  const std::uint64_t n = read_u64(in);
  file.counts.reserve(std::min(n, kMaxReserve));
  const std::uint64_t mask = kmer::code_mask(file.k);
  const auto block =
      std::make_unique_for_overwrite<std::uint64_t[]>(2 * kBlockEntries);
  for (std::uint64_t left = n; left > 0;) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, kBlockEntries));
    in.read(reinterpret_cast<char*>(block.get()),
            static_cast<std::streamsize>(want * kEntryBytes));
    // A short block's whole entries are checked before the truncation is
    // reported, so the first fault in file order is the one reported.
    const std::size_t got = static_cast<std::size_t>(in.gcount()) / kEntryBytes;
    for (std::size_t i = 0; i < got; ++i) {
      const std::uint64_t key = block[2 * i];
      const std::uint64_t count = block[2 * i + 1];
      if (key > mask) {
        throw ParseError("counts file key wider than 2k bits: " +
                         std::to_string(key));
      }
      if (count == 0) throw ParseError("counts file entry with zero count");
      if (!file.counts.empty() && file.counts.back().first >= key) {
        throw ParseError("counts file keys are not strictly increasing");
      }
      file.counts.emplace_back(key, count);
    }
    if (got < want) throw ParseError("truncated counts file (u64)");
    left -= want;
  }
  return file;
}

CountsFile read_counts_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open counts file: " + path);
  CountsFile file = read_counts_binary(in);
  if (in.peek() != std::ifstream::traits_type::eof()) {
    throw ParseError("trailing bytes after counts payload: " + path);
  }
  return file;
}

void write_counts_tsv(std::ostream& out, const CountsFile& file) {
  check(file);
  for (const auto& [key, count] : file.counts) {
    out << kmer::unpack(key, file.k, file.encoding) << '\t' << count
        << '\n';
  }
  if (!out) throw ParseError("failed writing TSV counts stream");
}

void write_counts_tsv_file(const std::string& path, const CountsFile& file) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot open for writing: " + path);
  write_counts_tsv(out, file);
}

CountsFile read_counts_tsv(std::istream& in, io::BaseEncoding encoding) {
  CountsFile file;
  file.encoding = encoding;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      throw ParseError("TSV counts row without tab: " + line);
    }
    const std::string kmer_str = line.substr(0, tab);
    if (file.k == 0) {
      file.k = static_cast<int>(kmer_str.size());
      if (file.k < 1 || file.k > kmer::kMaxPackedK) {
        throw ParseError("TSV counts k-mer length out of range: " + line);
      }
    } else if (kmer_str.size() != static_cast<std::size_t>(file.k)) {
      throw ParseError("TSV counts rows have mixed k-mer lengths");
    }
    const std::uint64_t count = parse_count_field(line, tab + 1);
    if (count == 0) {
      throw ParseError("TSV counts row with zero count: " + line);
    }
    file.counts.emplace_back(kmer::pack(kmer_str, encoding), count);
  }
  return file;
}

}  // namespace dedukt::core
