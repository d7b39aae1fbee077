// The parse launches against the per-thread kernels they evaluate.
//
// src/core/src/kernels.cpp evaluates each parse launch once on the host,
// with the kmer library's walkers, and prices it in closed form. The
// reference here is the per-thread form of those kernels, kept verbatim:
// one thread per base position packs its k bytes (pack_at) for the k-mer
// kernels, and one thread per window walks Algorithm 2 with a minimizer_of
// rescan per k-mer (walk_window) for the supermer kernels; both claim
// destination counters and cursors with device atomics. The references run
// thread by thread in the canonical block order (support/kernel_runner.hpp).
// Each launch and its reference must agree on every LaunchCounters field,
// the modeled time, the destination counts and cursors, and the filled key,
// word and length buffers byte for byte. The suite runs at pool sizes 1, 4
// and 16, which no launch may read.
#include "dedukt/core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "dedukt/hash/murmur3.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/util/rng.hpp"
#include "dedukt/util/thread_pool.hpp"
#include "support/kernel_runner.hpp"

namespace dedukt::core::kernels {
namespace {

using test_support::expect_same_launch;
using test_support::upload;

// --- The reference: the per-thread parse kernels ---

namespace reference {

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
                           test_support::ThreadCtx& ctx) {
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
                 test_support::ThreadCtx& ctx, Emit&& emit) {
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

gpusim::LaunchStats parse_count_kmers(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    std::size_t total_len, int k, io::BaseEncoding enc, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts) {
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  const char* in = bases.data();
  std::uint32_t* counters = dest_counts.data();

  const auto shape = device.shape_for(total_len);
  return test_support::launch_per_thread(
      device, "parse_count_kmers", shape.grid_dim, shape.block_dim,
      [=](test_support::ThreadCtx& ctx) {
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
  return test_support::launch_per_thread(
      device, "parse_fill_kmers", shape.grid_dim, shape.block_dim,
      [=](test_support::ThreadCtx& ctx) {
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
  return test_support::launch_per_thread(
      device, kWide ? "supermer_count_wide" : "supermer_count",
      shape.grid_dim, shape.block_dim, [=](test_support::ThreadCtx& ctx) {
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
  return test_support::launch_per_thread(
      device, kWide ? "supermer_fill_wide" : "supermer_fill",
      shape.grid_dim, shape.block_dim, [=](test_support::ThreadCtx& ctx) {
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

}  // namespace reference

// --- The harness ---

template <typename T>
void expect_same_bytes(const gpusim::DeviceBuffer<T>& a,
                       const gpusim::DeviceBuffer<T>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.bytes()), 0) << what;
}

/// Exclusive prefix sums of a launch's destination counts.
std::vector<std::uint64_t> offsets_of(
    const gpusim::DeviceBuffer<std::uint32_t>& counts, std::uint64_t& total) {
  std::vector<std::uint64_t> offsets;
  total = 0;
  for (std::size_t p = 0; p < counts.size(); ++p) {
    offsets.push_back(total);
    total += counts[p];
  }
  return offsets;
}

/// Both k-mer launches and their references over one staged base array.
void check_kmer_launches(const std::vector<char>& bases,
                         std::size_t total_len, int k, io::BaseEncoding enc,
                         std::uint32_t parts) {
  gpusim::Device device;
  const auto d_bases = upload(device, bases);

  auto counts = device.alloc<std::uint32_t>(parts, 0u);
  auto ref_counts = device.alloc<std::uint32_t>(parts, 0u);
  {
    SCOPED_TRACE("parse_count_kmers");
    expect_same_launch(
        parse_count_kmers(device, d_bases, total_len, k, enc, parts, counts),
        reference::parse_count_kmers(device, d_bases, total_len, k, enc,
                                     parts, ref_counts));
    expect_same_bytes(counts, ref_counts, "destination counts");
  }

  std::uint64_t total = 0;
  const auto d_offsets = upload(device, offsets_of(ref_counts, total));
  auto cursors = device.alloc<std::uint32_t>(parts, 0u);
  auto ref_cursors = device.alloc<std::uint32_t>(parts, 0u);
  auto out = device.alloc<std::uint64_t>(std::max<std::uint64_t>(total, 1));
  auto ref_out =
      device.alloc<std::uint64_t>(std::max<std::uint64_t>(total, 1));
  {
    SCOPED_TRACE("parse_fill_kmers");
    expect_same_launch(
        parse_fill_kmers(device, d_bases, total_len, k, enc, parts,
                         d_offsets, cursors, out),
        reference::parse_fill_kmers(device, d_bases, total_len, k, enc,
                                    parts, d_offsets, ref_cursors, ref_out));
    expect_same_bytes(cursors, ref_cursors, "cursors");
    expect_same_bytes(out, ref_out, "k-mers");
  }
}

/// Both supermer launches and their references over one staging area,
/// windowed at config.window, routed by `table` (hash routing when empty).
template <typename Word>
void check_supermer_launches(const EncodedReads& staged,
                             const kmer::SupermerConfig& config,
                             std::uint32_t parts,
                             const std::vector<std::uint32_t>& table) {
  gpusim::Device device;
  const auto d_bases = upload(device, staged.bases);
  const std::vector<Window> windows =
      build_windows(staged, config.k, config.window);
  const auto d_windows = upload(device, windows);
  const auto d_table = upload(device, table);
  DestinationTable routing;
  if (!table.empty()) {
    routing.bucket_to_rank = d_table.data();
    routing.nbuckets = static_cast<std::uint32_t>(table.size());
  }

  auto counts = device.alloc<std::uint32_t>(parts, 0u);
  auto ref_counts = device.alloc<std::uint32_t>(parts, 0u);
  {
    SCOPED_TRACE("supermer_count");
    expect_same_launch(
        supermer_count<Word>(device, d_bases, d_windows, windows.size(),
                             config, parts, counts, routing),
        reference::supermer_count<Word>(device, d_bases, d_windows,
                                        windows.size(), config, parts,
                                        ref_counts, routing));
    expect_same_bytes(counts, ref_counts, "destination counts");
  }

  std::uint64_t total = 0;
  const auto d_offsets = upload(device, offsets_of(ref_counts, total));
  const std::uint64_t slots = std::max<std::uint64_t>(total, 1);
  auto cursors = device.alloc<std::uint32_t>(parts, 0u);
  auto ref_cursors = device.alloc<std::uint32_t>(parts, 0u);
  auto words = device.alloc<Word>(slots);
  auto ref_words = device.alloc<Word>(slots);
  auto lens = device.alloc<std::uint8_t>(slots);
  auto ref_lens = device.alloc<std::uint8_t>(slots);
  {
    SCOPED_TRACE("supermer_fill");
    expect_same_launch(
        supermer_fill<Word>(device, d_bases, d_windows, windows.size(),
                            config, parts, d_offsets, cursors, words, lens,
                            routing),
        reference::supermer_fill<Word>(device, d_bases, d_windows,
                                       windows.size(), config, parts,
                                       d_offsets, ref_cursors, ref_words,
                                       ref_lens, routing));
    expect_same_bytes(cursors, ref_cursors, "cursors");
    expect_same_bytes(words, ref_words, "supermer words");
    expect_same_bytes(lens, ref_lens, "supermer lengths");
  }
}

/// Reads sampled from a small genome, plus reads whose N-split fragments
/// are shorter than k (which staging drops) or just long enough.
io::ReadBatch batch() {
  io::GenomeSpec gspec;
  gspec.length = 6'000;
  gspec.seed = 5;
  io::ReadSpec rspec;
  rspec.coverage = 3.0;
  rspec.mean_read_length = 300;
  rspec.min_read_length = 40;
  io::ReadBatch reads = io::generate_dataset(gspec, rspec);
  Xoshiro256 rng(11);
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  for (int i = 0; i < 30; ++i) {
    std::string read;
    for (int f = 0; f < 6; ++f) {
      const std::size_t len = 1 + rng.below(24);
      for (std::size_t j = 0; j < len; ++j) read.push_back(kBases[rng.below(4)]);
      read.push_back('N');
    }
    reads.reads.push_back({"short" + std::to_string(i), read, ""});
  }
  return reads;
}

/// A random bucket table over `parts` ranks (the §VII routing's shape).
std::vector<std::uint32_t> bucket_table(std::uint32_t parts) {
  Xoshiro256 rng(parts);
  std::vector<std::uint32_t> table(64 * parts);
  for (auto& rank : table) rank = static_cast<std::uint32_t>(rng.below(parts));
  return table;
}

class ParseLaunchOracleTest : public testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { util::ThreadPool::set_global_threads(GetParam()); }
  void TearDown() override { util::ThreadPool::set_global_threads(1); }
};

TEST_P(ParseLaunchOracleTest, KmerLaunches) {
  constexpr int kK = 17;
  const EncodedReads staged = EncodedReads::build(batch(), kK);
  for (const auto enc :
       {io::BaseEncoding::kStandard, io::BaseEncoding::kRandomized}) {
    for (const std::uint32_t parts : {1u, 5u}) {
      SCOPED_TRACE(testing::Message() << "parts=" << parts << " randomized="
                                      << (enc != io::BaseEncoding::kStandard));
      check_kmer_launches(staged.bases, staged.bases.size(), kK, enc, parts);
    }
  }
}

TEST_P(ParseLaunchOracleTest, KmerLaunchesOverShortRuns) {
  // Runs shorter than k, exactly k and longer, between separators and
  // N bytes; then the same array launched over a prefix that ends inside
  // a run, so the last threads read past total_len.
  constexpr int kK = 9;
  const std::string text = "ACGTA\xFF" "ACGTACGTA\xFF" "ACGTNACGTACGTACGTTT"
                           "\xFF\xFF" "GATTACAGATTACA" "NNACG\xFF";
  std::vector<char> bases(text.begin(), text.end());
  bases.insert(bases.end(), kK, kSeparator);
  for (const std::uint32_t parts : {1u, 5u}) {
    SCOPED_TRACE(testing::Message() << "parts=" << parts);
    check_kmer_launches(bases, bases.size(), kK, io::BaseEncoding::kStandard,
                        parts);
    const std::size_t inside = text.find("GATTACA") + 3;
    check_kmer_launches(bases, inside, kK, io::BaseEncoding::kStandard,
                        parts);
  }
}

TEST_P(ParseLaunchOracleTest, NarrowSupermerLaunches) {
  const io::ReadBatch reads = batch();
  constexpr std::uint32_t kParts = 4;
  for (const int window : {1, 7, 15}) {
    for (const bool table : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "window=" << window << " table=" << table);
      kmer::SupermerConfig config;  // k=17, m=7, randomized order
      config.window = window;
      check_supermer_launches<std::uint64_t>(
          EncodedReads::build(reads, config.k), config, kParts,
          table ? bucket_table(kParts) : std::vector<std::uint32_t>{});
    }
  }
}

TEST_P(ParseLaunchOracleTest, WideSupermerLaunches) {
  const io::ReadBatch reads = batch();
  constexpr std::uint32_t kParts = 3;
  for (const int window : {1, 7, 15, 20}) {
    for (const bool table : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "window=" << window << " table=" << table);
      kmer::SupermerConfig config;
      config.wide = true;
      config.window = window;
      check_supermer_launches<kmer::WideKey>(
          EncodedReads::build(reads, config.k), config, kParts,
          table ? bucket_table(kParts) : std::vector<std::uint32_t>{});
    }
  }
}

TEST_P(ParseLaunchOracleTest, OtherMinimizerOrders) {
  const io::ReadBatch reads = batch();
  for (const auto order :
       {kmer::MinimizerOrder::kLexicographic, kmer::MinimizerOrder::kKmc2}) {
    SCOPED_TRACE(kmer::to_string(order));
    kmer::SupermerConfig config;
    config.k = 21;
    config.m = 9;
    config.window = 11;
    config.order = order;
    check_supermer_launches<std::uint64_t>(
        EncodedReads::build(reads, config.k), config, 4, bucket_table(4));
  }
}

TEST_P(ParseLaunchOracleTest, EmptyBatch) {
  kmer::SupermerConfig config;
  const EncodedReads staged = EncodedReads::build(io::ReadBatch{}, config.k);
  check_kmer_launches(staged.bases, staged.bases.size(), config.k,
                      io::BaseEncoding::kStandard, 5);
  check_supermer_launches<std::uint64_t>(staged, config, 4, {});
  config.wide = true;
  config.window = 20;
  check_supermer_launches<kmer::WideKey>(staged, config, 4,
                                         bucket_table(4));
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParseLaunchOracleTest,
                         testing::Values(1u, 4u, 16u));

}  // namespace
}  // namespace dedukt::core::kernels
