// Concurrency contract (audited for block-parallel Device::launch): every
// cross-thread write in these kernels is a std::atomic_ref CAS/add on the
// destination counters/cursors, and output slots are made exclusive by the
// atomic cursor claim before the plain store. The count-only kernels are
// order-insensitive and run block-parallel. The fill kernels use
// launch_ordered: their output PLACEMENT follows cursor claim order, and
// the occurrence order they produce reaches counts downstream — the
// Bloom-filtered count kernels absorb whichever occurrence of a key comes
// first (and its false positives depend on that order too), and the
// conservative sketch update's cells depend on update order. Pinning the
// canonical block order keeps outgoing buffers — and every count and
// charge derived from them — bit-identical for every pool size.
#include "dedukt/core/kernels.hpp"

#include <atomic>
#include <type_traits>

#include "dedukt/kmer/extract.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core::kernels {

EncodedReads EncodedReads::build(const io::ReadBatch& reads, int k) {
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  EncodedReads out;
  std::uint64_t bases_needed = 0;
  for (const auto& read : reads.reads) bases_needed += read.bases.size() + 1;
  out.bases.reserve(bases_needed + static_cast<std::uint64_t>(k));

  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      if (fragment.size() < static_cast<std::size_t>(k)) continue;
      out.fragments.emplace_back(
          out.bases.size(), static_cast<std::uint32_t>(fragment.size()));
      out.bases.insert(out.bases.end(), fragment.begin(), fragment.end());
      out.bases.push_back(kSeparator);
      out.total_kmers += fragment.size() - static_cast<std::size_t>(k) + 1;
    }
  }
  // Trailing pad so a thread at the last base can always read k bytes.
  out.bases.insert(out.bases.end(), static_cast<std::size_t>(k), kSeparator);
  return out;
}

std::vector<Window> build_windows(const EncodedReads& reads, int k,
                                  int window) {
  DEDUKT_REQUIRE(window >= 1);
  std::vector<Window> windows;
  for (const auto& [offset, len] : reads.fragments) {
    const auto nkmers =
        static_cast<std::uint32_t>(len - static_cast<std::uint32_t>(k) + 1);
    for (std::uint32_t start = 0; start < nkmers;
         start += static_cast<std::uint32_t>(window)) {
      Window w;
      w.frag_offset = offset;
      w.frag_len = len;
      w.kmer_start = start;
      w.kmer_count =
          std::min(static_cast<std::uint32_t>(window), nkmers - start);
      windows.push_back(w);
    }
  }
  return windows;
}

namespace {

/// Pack the k-mer starting at `p`; returns false if the window crosses a
/// separator (or other non-ACGT byte).
inline bool pack_at(const char* bases, std::uint64_t p, int k,
                    io::BaseEncoding enc, kmer::KmerCode& code) {
  kmer::KmerCode c = 0;
  for (int j = 0; j < k; ++j) {
    const std::int8_t b = io::encode_base_or_invalid(bases[p + j], enc);
    if (b < 0) return false;
    c = kmer::append_base(c, static_cast<io::BaseCode>(b));
  }
  code = c;
  return true;
}

/// Route a minimizer to its destination rank: the §VII frequency-balanced
/// table when present, the paper's hash otherwise.
inline std::uint32_t route(kmer::KmerCode minimizer, std::uint32_t parts,
                           const DestinationTable& routing,
                           gpusim::ThreadCtx& ctx) {
  if (!routing.enabled()) {
    ctx.count_ops(4);
    return kmer::minimizer_partition(minimizer, parts);
  }
  const std::uint32_t bucket = hash::to_partition(
      hash::hash_u64(minimizer, kmer::kDestinationHashSeed),
      routing.nbuckets);
  ctx.count_gmem_read(sizeof(std::uint32_t));  // table lookup
  ctx.count_ops(6);
  return routing.bucket_to_rank[bucket];
}

/// Algorithm 2's per-window walk: grows supermers in thread-private state
/// and invokes emit(supermer, minimizer) for each flushed supermer.
/// Shared by the count and fill kernels so both passes agree exactly.
/// Word is std::uint64_t (single-word regime, the paper's; emits
/// PackedSupermer) or kmer::WideKey (two-word extension; emits
/// PackedWideSupermer).
template <typename Word, typename Emit>
void walk_window(const char* bases, const Window& w,
                 const kmer::SupermerConfig& config,
                 const kmer::MinimizerPolicy& policy, io::BaseEncoding enc,
                 gpusim::ThreadCtx& ctx, Emit&& emit) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  const int k = config.k;
  const std::uint64_t first = w.frag_offset + w.kmer_start;

  // Seed with the window's first k-mer (fragment bases are pure ACGT).
  kmer::KmerCode code = 0;
  [[maybe_unused]] const bool ok = pack_at(bases, first, k, enc, code);
  DEDUKT_CHECK(ok);
  ctx.count_gmem_read(static_cast<std::uint64_t>(k));
  ctx.count_ops(static_cast<std::uint64_t>(2 * k));

  // The supermer accumulator lives in thread-private registers: a single
  // word in the paper's regime, two words for the wide extension.
  kmer::WideCode accumulator = code;
  std::uint8_t len = static_cast<std::uint8_t>(k);
  kmer::KmerCode prev_min = kmer::minimizer_of(code, k, policy);
  ctx.count_ops(static_cast<std::uint64_t>(3 * (k - policy.m() + 1)));

  auto flush = [&] {
    if constexpr (kWide) {
      emit(kmer::PackedWideSupermer{kmer::to_key(accumulator), len},
           prev_min);
    } else {
      emit(kmer::PackedSupermer{static_cast<kmer::KmerCode>(accumulator),
                                len},
           prev_min);
    }
  };

  const kmer::KmerCode mask = kmer::code_mask(k);
  for (std::uint32_t j = 1; j < w.kmer_count; ++j) {
    // Roll in the next base.
    const char next = bases[first + j + static_cast<std::uint32_t>(k) - 1];
    const std::int8_t b = io::encode_base_or_invalid(next, enc);
    DEDUKT_CHECK(b >= 0);
    code = kmer::append_base(code, static_cast<io::BaseCode>(b)) & mask;
    ctx.count_gmem_read(1);

    const kmer::KmerCode minimizer = kmer::minimizer_of(code, k, policy);
    ctx.count_ops(static_cast<std::uint64_t>(3 * (k - policy.m() + 1)));
    if (minimizer == prev_min) {
      accumulator = kmer::wide_append(accumulator,
                                      static_cast<io::BaseCode>(code & 3));
      len += 1;
    } else {
      flush();
      accumulator = code;
      len = static_cast<std::uint8_t>(k);
      prev_min = minimizer;
    }
  }
  flush();
}

}  // namespace

gpusim::LaunchStats parse_count_kmers(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    std::size_t total_len, int k, io::BaseEncoding enc, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts) {
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  const char* in = bases.data();
  std::uint32_t* counters = dest_counts.data();

  const auto shape = device.shape_for(total_len);
  return device.launch("parse_count_kmers", shape.grid_dim, shape.block_dim,
                       [=](gpusim::ThreadCtx& ctx) {
    const std::uint64_t i = ctx.global_id();
    if (i >= total_len) return;
    kmer::KmerCode code;
    ctx.count_gmem_read(static_cast<std::uint64_t>(k));
    if (!pack_at(in, i, k, enc, code)) return;
    ctx.count_ops(static_cast<std::uint64_t>(2 * k) + 8);
    const std::uint32_t dest = kmer::kmer_partition(code, parts);
    std::atomic_ref<std::uint32_t>(counters[dest])
        .fetch_add(1, std::memory_order_relaxed);
    ctx.count_atomic();
  });
}

gpusim::LaunchStats parse_fill_kmers(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    std::size_t total_len, int k, io::BaseEncoding enc, std::uint32_t parts,
    const gpusim::DeviceBuffer<std::uint64_t>& offsets,
    gpusim::DeviceBuffer<std::uint32_t>& cursors,
    gpusim::DeviceBuffer<std::uint64_t>& out_kmers) {
  DEDUKT_REQUIRE(offsets.size() >= parts);
  DEDUKT_REQUIRE(cursors.size() >= parts);
  const char* in = bases.data();
  const std::uint64_t* offs = offsets.data();
  std::uint32_t* curs = cursors.data();
  std::uint64_t* out = out_kmers.data();
  const std::size_t out_size = out_kmers.size();

  const auto shape = device.shape_for(total_len);
  return device.launch_ordered("parse_fill_kmers", shape.grid_dim,
                               shape.block_dim, [=](gpusim::ThreadCtx& ctx) {
    const std::uint64_t i = ctx.global_id();
    if (i >= total_len) return;
    kmer::KmerCode code;
    ctx.count_gmem_read(static_cast<std::uint64_t>(k));
    if (!pack_at(in, i, k, enc, code)) return;
    ctx.count_ops(static_cast<std::uint64_t>(2 * k) + 8);
    const std::uint32_t dest = kmer::kmer_partition(code, parts);
    const std::uint32_t idx =
        std::atomic_ref<std::uint32_t>(curs[dest])
            .fetch_add(1, std::memory_order_relaxed);
    ctx.count_atomic();
    const std::uint64_t slot = offs[dest] + idx;
    DEDUKT_CHECK_MSG(slot < out_size, "outgoing buffer overflow");
    out[slot] = code;
    ctx.count_gmem_write(sizeof(std::uint64_t));
  });
}

template <typename Word>
gpusim::LaunchStats supermer_count(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    const gpusim::DeviceBuffer<Window>& windows, std::size_t nwindows,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts,
    DestinationTable routing) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  config.validate();
  DEDUKT_REQUIRE(!kWide || config.wide);
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  const char* in = bases.data();
  const Window* wins = windows.data();
  std::uint32_t* counters = dest_counts.data();
  const kmer::MinimizerPolicy policy = config.policy();
  const io::BaseEncoding enc = policy.encoding();

  const auto shape = device.shape_for(nwindows);
  return device.launch(kWide ? "supermer_count_wide" : "supermer_count",
                       shape.grid_dim, shape.block_dim,
                       [=](gpusim::ThreadCtx& ctx) {
    const std::uint64_t i = ctx.global_id();
    if (i >= nwindows) return;
    ctx.count_gmem_read(sizeof(Window));
    walk_window<Word>(
        in, wins[i], config, policy, enc, ctx,
        [&](const auto&, kmer::KmerCode minimizer) {
          const std::uint32_t dest = route(minimizer, parts, routing, ctx);
          std::atomic_ref<std::uint32_t>(counters[dest])
              .fetch_add(1, std::memory_order_relaxed);
          ctx.count_atomic();
        });
  });
}

template <typename Word>
gpusim::LaunchStats supermer_fill(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    const gpusim::DeviceBuffer<Window>& windows, std::size_t nwindows,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    const gpusim::DeviceBuffer<std::uint64_t>& offsets,
    gpusim::DeviceBuffer<std::uint32_t>& cursors,
    gpusim::DeviceBuffer<Word>& out_words,
    gpusim::DeviceBuffer<std::uint8_t>& out_lens,
    DestinationTable routing) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  config.validate();
  DEDUKT_REQUIRE(!kWide || config.wide);
  DEDUKT_REQUIRE(offsets.size() >= parts);
  DEDUKT_REQUIRE(cursors.size() >= parts);
  DEDUKT_REQUIRE(out_words.size() == out_lens.size());
  const char* in = bases.data();
  const Window* wins = windows.data();
  const std::uint64_t* offs = offsets.data();
  std::uint32_t* curs = cursors.data();
  Word* words = out_words.data();
  std::uint8_t* lens = out_lens.data();
  const std::size_t out_size = out_words.size();
  const kmer::MinimizerPolicy policy = config.policy();
  const io::BaseEncoding enc = policy.encoding();

  const auto shape = device.shape_for(nwindows);
  return device.launch_ordered(kWide ? "supermer_fill_wide" : "supermer_fill",
                               shape.grid_dim, shape.block_dim,
                               [=](gpusim::ThreadCtx& ctx) {
    const std::uint64_t i = ctx.global_id();
    if (i >= nwindows) return;
    ctx.count_gmem_read(sizeof(Window));
    walk_window<Word>(
        in, wins[i], config, policy, enc, ctx,
        [&](const auto& smer, kmer::KmerCode minimizer) {
          const std::uint32_t dest = route(minimizer, parts, routing, ctx);
          const std::uint32_t idx =
              std::atomic_ref<std::uint32_t>(curs[dest])
                  .fetch_add(1, std::memory_order_relaxed);
          ctx.count_atomic();
          const std::uint64_t slot = offs[dest] + idx;
          DEDUKT_CHECK_MSG(slot < out_size,
                           "supermer outgoing buffer overflow");
          words[slot] = smer.bases;
          lens[slot] = smer.len;
          ctx.count_gmem_write(sizeof(Word) + sizeof(std::uint8_t));
        });
  });
}

template gpusim::LaunchStats supermer_count<std::uint64_t>(
    gpusim::Device&, const gpusim::DeviceBuffer<char>&,
    const gpusim::DeviceBuffer<Window>&, std::size_t,
    const kmer::SupermerConfig&, std::uint32_t,
    gpusim::DeviceBuffer<std::uint32_t>&, DestinationTable);
template gpusim::LaunchStats supermer_count<kmer::WideKey>(
    gpusim::Device&, const gpusim::DeviceBuffer<char>&,
    const gpusim::DeviceBuffer<Window>&, std::size_t,
    const kmer::SupermerConfig&, std::uint32_t,
    gpusim::DeviceBuffer<std::uint32_t>&, DestinationTable);
template gpusim::LaunchStats supermer_fill<std::uint64_t>(
    gpusim::Device&, const gpusim::DeviceBuffer<char>&,
    const gpusim::DeviceBuffer<Window>&, std::size_t,
    const kmer::SupermerConfig&, std::uint32_t,
    const gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint32_t>&, gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint8_t>&, DestinationTable);
template gpusim::LaunchStats supermer_fill<kmer::WideKey>(
    gpusim::Device&, const gpusim::DeviceBuffer<char>&,
    const gpusim::DeviceBuffer<Window>&, std::size_t,
    const kmer::SupermerConfig&, std::uint32_t,
    const gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint32_t>&, gpusim::DeviceBuffer<kmer::WideKey>&,
    gpusim::DeviceBuffer<std::uint8_t>&, DestinationTable);

}  // namespace dedukt::core::kernels
