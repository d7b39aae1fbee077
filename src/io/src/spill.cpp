#include "dedukt/io/spill.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "dedukt/util/error.hpp"

namespace dedukt::io {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kSpillMagic = 0x50534B44;  // "DKSP" little-endian
constexpr std::uint32_t kSpillVersion = 1;

struct SpillHeader {
  std::uint32_t magic = kSpillMagic;
  std::uint32_t version = kSpillVersion;
  std::uint32_t kind = 0;
  std::uint32_t k = 0;
  std::uint32_t nranks = 0;
};

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

[[nodiscard]] std::uint64_t item_bytes(SpillKind kind) {
  return sizeof(std::uint64_t) * spill_words_per_item(kind) +
         (spill_has_lens(kind) ? 1 : 0);
}

}  // namespace

SpillDir::SpillDir(const std::string& root) {
  static std::atomic<std::uint64_t> sequence{0};
  fs::create_directories(root);
  // Loop on the sequence number until create_directory claims a fresh name:
  // robust against leftovers from a crashed earlier run with the same pid.
  for (;;) {
    const std::uint64_t seq = sequence.fetch_add(1);
    char leaf[64];
    std::snprintf(leaf, sizeof(leaf), "dedukt-spill-%ld-%llu",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(seq));
    fs::path candidate = fs::path(root) / leaf;
    std::error_code ec;
    if (fs::create_directory(candidate, ec)) {
      path_ = candidate.string();
      return;
    }
    if (ec) {
      throw Error("cannot create spill directory " + candidate.string() +
                  ": " + ec.message());
    }
    // Directory already existed — try the next sequence number.
  }
}

SpillDir::~SpillDir() {
  if (path_.empty()) return;
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort; never throws from a destructor
}

std::string SpillDir::bin_path(int rank, int bin) const {
  char leaf[48];
  std::snprintf(leaf, sizeof(leaf), "rank%04d-bin%04d.dksp", rank, bin);
  return (fs::path(path_) / leaf).string();
}

SpillBinWriter::SpillBinWriter(const std::string& path, SpillKind kind, int k,
                               std::uint32_t nranks)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      kind_(kind) {
  if (!out_) throw Error("cannot open spill bin for writing: " + path);
  SpillHeader header;
  header.kind = static_cast<std::uint32_t>(kind);
  header.k = static_cast<std::uint32_t>(k);
  header.nranks = nranks;
  write_pod(out_, header);
}

void SpillBinWriter::append_run(std::uint32_t dest,
                                const std::uint64_t* words,
                                std::uint64_t count,
                                const std::uint8_t* lens) {
  write_pod(out_, dest);
  write_pod(out_, count);
  const std::uint64_t nwords = count * spill_words_per_item(kind_);
  out_.write(reinterpret_cast<const char*>(words),
             static_cast<std::streamsize>(nwords * sizeof(std::uint64_t)));
  bytes_ += sizeof(dest) + sizeof(count) + nwords * sizeof(std::uint64_t);
  if (spill_has_lens(kind_)) {
    out_.write(reinterpret_cast<const char*>(lens),
               static_cast<std::streamsize>(count));
    bytes_ += count;
  }
  ++runs_;
}

void SpillBinWriter::close() {
  if (closed_) return;
  closed_ = true;
  out_.flush();
  if (!out_) throw Error("write failure on spill bin: " + path_);
  out_.close();
}

SpillBinWriter::~SpillBinWriter() {
  try {
    close();
  } catch (const Error&) {
    // Destructor path: a close failure must not terminate; the reader's
    // validation will surface any resulting truncation.
  }
}

SpillBinReader::SpillBinReader(const std::string& path, SpillKind kind, int k,
                               std::uint32_t nranks)
    : in_(path, std::ios::binary), path_(path), kind_(kind),
      k_(static_cast<std::uint32_t>(k)), nranks_(nranks) {
  if (!in_) throw ParseError("cannot open spill bin: " + path);
  std::uint64_t file_bytes = 0;
  {
    std::error_code ec;
    file_bytes = std::filesystem::file_size(path, ec);
    if (ec) throw ParseError("cannot stat spill bin: " + path);
  }
  SpillHeader header;
  if (!read_pod(in_, header) || file_bytes < sizeof(SpillHeader)) {
    throw ParseError("truncated spill bin header: " + path);
  }
  if (header.magic != kSpillMagic) {
    throw ParseError("bad spill bin magic in " + path);
  }
  if (header.version != kSpillVersion) {
    throw ParseError("unsupported spill bin version " +
                     std::to_string(header.version) + " in " + path);
  }
  if (header.kind != static_cast<std::uint32_t>(kind)) {
    throw ParseError("spill bin kind mismatch in " + path + ": expected " +
                     to_string(kind));
  }
  if (header.k != static_cast<std::uint32_t>(k)) {
    throw ParseError("spill bin k mismatch in " + path + ": file has k=" +
                     std::to_string(header.k) + ", expected k=" +
                     std::to_string(k));
  }
  if (header.nranks != nranks) {
    throw ParseError("spill bin rank-count mismatch in " + path);
  }
  remaining_ = file_bytes - sizeof(SpillHeader);
}

bool SpillBinReader::next(SpillRun& run) {
  if (remaining_ == 0) return false;
  constexpr std::uint64_t kRunHeaderBytes =
      sizeof(std::uint32_t) + sizeof(std::uint64_t);
  if (remaining_ < kRunHeaderBytes) {
    throw ParseError("truncated spill run header in " + path_);
  }
  std::uint32_t dest = 0;
  std::uint64_t count = 0;
  if (!read_pod(in_, dest) || !read_pod(in_, count)) {
    throw ParseError("truncated spill run header in " + path_);
  }
  remaining_ -= kRunHeaderBytes;
  if (dest >= nranks_) {
    throw ParseError("spill run destination " + std::to_string(dest) +
                     " out of range in " + path_);
  }
  // Bound the declared size by the bytes actually left in the file before
  // reserving anything, so a corrupt count cannot drive a huge allocation.
  const std::uint64_t payload = count * item_bytes(kind_);
  if (count != 0 && payload / count != item_bytes(kind_)) {
    throw ParseError("spill run count overflows in " + path_);
  }
  if (payload > remaining_) {
    throw ParseError("spill run payload exceeds file size in " + path_);
  }
  const std::uint64_t nwords = count * spill_words_per_item(kind_);
  run.dest = dest;
  run.count = count;
  run.words.resize(nwords);
  if (nwords != 0 &&
      !in_.read(reinterpret_cast<char*>(run.words.data()),
                static_cast<std::streamsize>(nwords * sizeof(std::uint64_t)))) {
    throw ParseError("truncated spill run payload in " + path_);
  }
  if (spill_has_lens(kind_)) {
    run.lens.resize(count);
    if (count != 0 &&
        !in_.read(reinterpret_cast<char*>(run.lens.data()),
                  static_cast<std::streamsize>(count))) {
      throw ParseError("truncated spill run lengths in " + path_);
    }
    // Pass 2 extracts len - k + 1 k-mers from each supermer; one word
    // packs 31 bases, two pack 63.
    const std::uint32_t max_len = 32 * spill_words_per_item(kind_) - 1;
    for (const std::uint8_t len : run.lens) {
      if (len < k_ || len > max_len) {
        throw ParseError("spill run supermer length " + std::to_string(len) +
                         " out of range in " + path_);
      }
    }
  } else {
    run.lens.clear();
  }
  remaining_ -= payload;
  bytes_ += kRunHeaderBytes + payload;
  ++runs_;
  return true;
}

}  // namespace dedukt::io
