// Closed-form charges of the counting, reduction and sketch-update kernels,
// checked on hand-sized inputs whose every probe is known: the keys are
// chosen so no two share a home slot in the table they probe, so every
// claim walks exactly one probe. The count kernels charge each occurrence
// its input load, one probe walk and two global atomics (§III-B3). The
// block kernels state their per-block fixed costs in closed form — the
// reduction's partials, and the sketch aggregator's shared-table init
// (block_dim × ⌈slots/block_dim⌉ × 12 B) and flush scan (slots × 12 B) —
// and these tests pin those forms together with the per-occurrence charges.
#include "dedukt/core/device_hash_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "dedukt/core/block_aggregation.hpp"
#include "dedukt/core/sketch.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/trace/trace.hpp"

namespace dedukt::core {
namespace {

constexpr std::uint64_t kBlock = 256;  // Device::shape_for's default

/// True when no two keys share a home slot in a `slots`-slot table probed
/// from hash_u64(key, seed).
bool distinct_homes(const std::vector<std::uint64_t>& keys,
                    std::size_t slots,
                    std::uint64_t seed = DeviceHashTable::kProbeSeed) {
  std::set<std::size_t> homes;
  for (std::uint64_t key : keys) {
    homes.insert(hash::hash_u64(key, seed) & (slots - 1));
  }
  return homes.size() == keys.size();
}

/// Charges of one global insert that walks one probe.
constexpr std::uint64_t kInsertOps = 10 + 4;
constexpr std::uint64_t kInsertAtomics = 2;
constexpr std::uint64_t kInsertReadBytes = 8;

TEST(BlockChargesTest, CountKmersMatchesClosedForm) {
  gpusim::Device device;
  DeviceHashTable table(device, /*expected_keys=*/32);  // 64 global slots
  ASSERT_EQ(table.capacity(), 64u);

  // Three keys with distinct home slots.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t candidate = 1; keys.size() < 3; ++candidate) {
    keys.push_back(candidate);
    if (!distinct_homes(keys, table.capacity())) keys.pop_back();
  }
  // 300 occurrences over two blocks: 256 in block 0, 44 in block 1. Each
  // occurrence is one global insert: a claim walks to its (empty) home
  // slot, a hit is charged one probe.
  constexpr std::size_t kN = 300;
  std::vector<std::uint64_t> kmers(kN);
  for (std::size_t i = 0; i < kN; ++i) kmers[i] = keys[i % keys.size()];
  auto d_kmers = device.alloc<std::uint64_t>(kN);
  device.copy_to_device<std::uint64_t>(kmers, d_kmers);

  const gpusim::LaunchStats stats = table.count_kmers(d_kmers, kN);
  const gpusim::LaunchCounters& c = stats.counters;

  constexpr std::uint64_t kBlocks = 2;
  EXPECT_EQ(c.threads, kBlocks * kBlock);
  EXPECT_EQ(c.ops, kN * kInsertOps);
  EXPECT_EQ(c.atomics, kN * kInsertAtomics);
  EXPECT_EQ(c.gmem_read_bytes,
            kN * (sizeof(std::uint64_t) + kInsertReadBytes));
  EXPECT_EQ(c.gmem_write_bytes, 0u);
  EXPECT_EQ(c.smem_read_bytes, 0u);
  EXPECT_EQ(c.smem_write_bytes, 0u);
  EXPECT_EQ(c.smem_atomics, 0u);

  EXPECT_EQ(table.unique(), keys.size());
  EXPECT_EQ(table.total(), kN);
}

TEST(BlockChargesTest, CountSupermersMatchesClosedForm) {
  gpusim::Device device;
  DeviceHashTable table(device, /*expected_keys=*/32);
  constexpr int kK = 5;
  constexpr std::uint8_t kLen = 10;  // 6 k-mers per supermer
  // All-A and all-T supermers: every k-mer of one is the same key.
  const std::uint64_t all_t = (std::uint64_t{1} << (2 * kLen)) - 1;
  const std::vector<std::uint64_t> keys = {
      0, (std::uint64_t{1} << (2 * kK)) - 1};
  ASSERT_TRUE(distinct_homes(keys, table.capacity()));

  constexpr std::size_t kN = 300;  // supermers: 256 + 44 over two blocks
  std::vector<std::uint64_t> words(kN);
  std::vector<std::uint8_t> lens(kN, kLen);
  for (std::size_t i = 0; i < kN; ++i) words[i] = i % 2 == 0 ? 0 : all_t;
  auto d_words = device.alloc<std::uint64_t>(kN);
  auto d_lens = device.alloc<std::uint8_t>(kN);
  device.copy_to_device<std::uint64_t>(words, d_words);
  device.copy_to_device<std::uint8_t>(lens, d_lens);

  const gpusim::LaunchStats stats =
      table.count_supermers(d_words, d_lens, kN, kK);
  const gpusim::LaunchCounters& c = stats.counters;

  // Per supermer: its word + length load. Per extracted k-mer: the
  // shift+mask extraction (6 ops) and one global insert.
  constexpr std::uint64_t kBlocks = 2;
  constexpr std::uint64_t kKmers = kN * (kLen - kK + 1);
  EXPECT_EQ(c.threads, kBlocks * kBlock);
  EXPECT_EQ(c.ops, kKmers * (6 + kInsertOps));
  EXPECT_EQ(c.atomics, kKmers * kInsertAtomics);
  EXPECT_EQ(c.gmem_read_bytes,
            kN * (sizeof(std::uint64_t) + sizeof(std::uint8_t)) +
                kKmers * kInsertReadBytes);
  EXPECT_EQ(c.gmem_write_bytes, 0u);
  EXPECT_EQ(c.smem_read_bytes, 0u);
  EXPECT_EQ(c.smem_write_bytes, 0u);
  EXPECT_EQ(c.smem_atomics, 0u);

  EXPECT_EQ(table.unique(), keys.size());
  EXPECT_EQ(table.total(), kKmers);
}

/// The spans of kernel `name` recorded while `readout` runs.
template <typename Readout>
std::vector<trace::SpanRecord> kernel_spans(const std::string& name,
                                            Readout&& readout) {
  auto& session = trace::TraceSession::instance();
  session.reset();
  session.enable("");
  readout();
  std::vector<trace::SpanRecord> spans;
  for (const auto& span :
       session.recorder(trace::SpanRecorder::kMainRank).spans_snapshot()) {
    if (span.name == name) spans.push_back(span);
  }
  session.disable();
  return spans;
}

std::uint64_t arg(const trace::SpanRecord& span, const std::string& key) {
  for (const auto& a : span.args) {
    if (a.key == key) return std::stoull(a.json);
  }
  ADD_FAILURE() << "span " << span.name << " has no arg " << key;
  return 0;
}

TEST(BlockChargesTest, ReduceUniqueMatchesClosedForm) {
  // Capacities below, at and above one block's worth of slots.
  for (const std::size_t expected_keys : {8u, 128u, 700u}) {
    gpusim::Device device;
    DeviceHashTable table(device, expected_keys);
    const std::uint64_t cap = table.capacity();
    const std::uint64_t blocks = (cap + kBlock - 1) / kBlock;
    SCOPED_TRACE(testing::Message() << "capacity " << cap);

    const auto spans = kernel_spans(
        "hash_reduce_unique", [&] { EXPECT_EQ(table.unique(), 0u); });
    ASSERT_EQ(spans.size(), 1u);
    const trace::SpanRecord& s = spans[0];
    EXPECT_EQ(arg(s, "threads"), blocks * kBlock);
    EXPECT_EQ(arg(s, "smem_write_bytes"), blocks * 8 * kBlock);
    EXPECT_EQ(arg(s, "smem_read_bytes"), blocks * 8 * kBlock);
    EXPECT_EQ(arg(s, "ops"), blocks * 3 * kBlock);
    EXPECT_EQ(arg(s, "atomics"), blocks);
    EXPECT_EQ(arg(s, "gmem_read_bytes"), cap * sizeof(std::uint64_t));
    EXPECT_EQ(arg(s, "gmem_write_bytes"), 0u);
    EXPECT_EQ(arg(s, "smem_atomics"), 0u);
  }
}

TEST(BlockChargesTest, ToHostPricesTheSameReductionWithoutRescanning) {
  gpusim::Device device;
  DeviceHashTable table(device, /*expected_keys=*/600);
  std::vector<std::uint64_t> kmers;
  for (std::uint64_t i = 0; i < 600; ++i) kmers.push_back(i * 7919 % 401);
  auto d_kmers = device.alloc<std::uint64_t>(kmers.size());
  device.copy_to_device<std::uint64_t>(kmers, d_kmers);
  table.count_kmers(d_kmers, kmers.size());

  std::size_t unique = 0;
  const auto from_unique =
      kernel_spans("hash_reduce_unique", [&] { unique = table.unique(); });
  std::size_t entries = 0;
  const auto from_to_host = kernel_spans("hash_reduce_unique", [&] {
    HostHashTable host;
    std::move(table).read_out(host);
    entries = host.unique();
  });
  EXPECT_EQ(entries, unique);
  EXPECT_EQ(unique, 401u);
  ASSERT_EQ(from_unique.size(), 1u);
  ASSERT_EQ(from_to_host.size(), 1u);
  EXPECT_EQ(from_to_host[0].modeled_seconds, from_unique[0].modeled_seconds);
  ASSERT_EQ(from_to_host[0].args.size(), from_unique[0].args.size());
  for (std::size_t i = 0; i < from_unique[0].args.size(); ++i) {
    EXPECT_EQ(from_to_host[0].args[i].key, from_unique[0].args[i].key);
    EXPECT_EQ(from_to_host[0].args[i].json, from_unique[0].args[i].json);
  }
}

TEST(BlockChargesTest, SketchUpdateAggregatorMatchesClosedForm) {
  // The vanilla sketch update aggregates each block's keys in the shared
  // table, then flushes every distinct key with `depth` row atomics.
  gpusim::Device device;
  SketchParams params;
  params.width = 1024;
  params.depth = 4;
  DeviceCountMinSketch sketch(device, params);

  // Three keys with distinct home slots in the shared table.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t candidate = 1; keys.size() < 3; ++candidate) {
    keys.push_back(candidate);
    if (!distinct_homes(keys, kSmemSlots, sketch_row_seed(0))) {
      keys.pop_back();
    }
  }
  constexpr std::size_t kN = 300;  // 256 + 44 over two blocks
  std::vector<std::uint64_t> kmers(kN);
  for (std::size_t i = 0; i < kN; ++i) kmers[i] = keys[i % keys.size()];
  auto d_kmers = device.alloc<std::uint64_t>(kN);
  device.copy_to_device<std::uint64_t>(kmers, d_kmers);

  const auto spans =
      kernel_spans("sketch_update", [&] { sketch.update(d_kmers, kN); });
  ASSERT_EQ(spans.size(), 1u);
  const trace::SpanRecord& s = spans[0];

  constexpr std::uint64_t kBlocks = 2;
  const std::uint64_t claims = kBlocks * keys.size();  // = flush commits
  const std::uint64_t hits = kN - claims;
  const std::uint64_t init_bytes =
      kBlock * ((kSmemSlots + kBlock - 1) / kBlock) * kSmemSlotBytes;
  const std::uint64_t scan_bytes = kSmemSlots * kSmemSlotBytes;
  EXPECT_EQ(arg(s, "threads"), kBlocks * kBlock);
  EXPECT_EQ(arg(s, "smem_write_bytes"), kBlocks * init_bytes);
  EXPECT_EQ(arg(s, "smem_read_bytes"),
            kN * sizeof(std::uint64_t) + kBlocks * scan_bytes);
  EXPECT_EQ(arg(s, "smem_atomics"), claims * 2 + hits);
  EXPECT_EQ(arg(s, "ops"), claims * 4 + hits * 2 + claims * 8 * params.depth);
  EXPECT_EQ(arg(s, "atomics"), claims * params.depth);
  EXPECT_EQ(arg(s, "gmem_read_bytes"), kN * sizeof(std::uint64_t));
  EXPECT_EQ(arg(s, "gmem_write_bytes"), 0u);

  const std::vector<std::uint32_t> cells = sketch.to_host();
  for (const std::uint64_t key : keys) {
    EXPECT_EQ(cells[sketch_cell_index(params.width, 0, key)], kN / 3);
  }
}

}  // namespace
}  // namespace dedukt::core
