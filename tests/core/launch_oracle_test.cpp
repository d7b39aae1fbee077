// The serving and sketch launches against the kernels they evaluate.
//
// src/gpusim/src/lookup.cpp and src/core/src/sketch.cpp run each of these
// launches once on the host, walking the input in index order, and charge
// it in closed form. The references here are the kernels they evaluate,
// kept verbatim. The two binary searches and the sketch's conservative
// update and estimate are per-thread kernels, one thread per query or
// k-mer, run thread by thread. The value histogram (bins in shared memory,
// flushed with global atomic adds) and the sketch's vanilla update (a
// shared-memory key table, flushed with `depth` row adds per distinct key)
// are per-block kernels, run block by block. Both runners step through the
// grid in the canonical block order (support/kernel_runner.hpp). Each
// launch and its reference must agree on every LaunchCounters field, the
// modeled time, and the output buffer or the sketch cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dedukt/core/block_aggregation.hpp"
#include "dedukt/core/sketch.hpp"
#include "dedukt/gpusim/lookup.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/util/rng.hpp"
#include "support/kernel_runner.hpp"

namespace dedukt::core {
namespace {

using gpusim::DeviceBuffer;
using gpusim::LaunchStats;
using gpusim::SortedTableView;
using test_support::BlockCtx;
using test_support::expect_same_launch;
using test_support::ThreadCtx;
using test_support::upload;

// --- The references: the per-thread and per-block kernels ---

namespace reference {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Binary search of keys[lo, hi) for `key`, charging one 8 B read plus a
/// handful of index ops per probe. Returns the slot index, or `npos` when
/// absent.
inline std::size_t bsearch_slot(ThreadCtx& ctx, const std::uint64_t* keys,
                                std::size_t lo, std::size_t hi,
                                std::uint64_t key) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ctx.count_gmem_read(sizeof(std::uint64_t));
    ctx.count_ops(4);  // mid arithmetic + compare + branch
    const std::uint64_t probe = keys[mid];
    if (probe == key) return mid;
    if (probe < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return kNpos;
}

LaunchStats lookup_sorted(gpusim::Device& device, const SortedTableView& table,
                          const DeviceBuffer<std::uint64_t>& queries,
                          std::size_t n,
                          DeviceBuffer<std::uint64_t>& out_values) {
  const auto shape = device.shape_for(n);
  const std::uint64_t* keys = table.keys->data();
  const std::uint64_t* values = table.values->data();
  const std::uint64_t* offsets = table.offsets->data();
  const std::uint64_t* q = queries.data();
  std::uint64_t* out = out_values.data();
  const int shift = table.prefix_shift;
  return test_support::launch_per_thread(
      device, "lookup_bsearch", shape.grid_dim, shape.block_dim,
      [=](ThreadCtx& ctx) {
        const std::uint64_t i = ctx.global_id();
        if (i >= n) return;
        ctx.count_gmem_read(sizeof(std::uint64_t));  // the query key
        const std::uint64_t key = q[i];
        const std::uint64_t bucket = key >> shift;
        ctx.count_gmem_read(2 * sizeof(std::uint64_t));  // bucket bounds
        ctx.count_ops(2);  // shift + offset address math
        const std::size_t slot = bsearch_slot(
            ctx, keys, static_cast<std::size_t>(offsets[bucket]),
            static_cast<std::size_t>(offsets[bucket + 1]), key);
        std::uint64_t value = 0;
        if (slot != kNpos) {
          ctx.count_gmem_read(sizeof(std::uint64_t));
          value = values[slot];
        }
        ctx.count_gmem_write(sizeof(std::uint64_t));
        out[i] = value;
      });
}

LaunchStats member_sorted(gpusim::Device& device, const SortedTableView& table,
                          const DeviceBuffer<std::uint64_t>& queries,
                          std::size_t n,
                          DeviceBuffer<std::uint8_t>& out_member) {
  const auto shape = device.shape_for(n);
  const std::uint64_t* keys = table.keys->data();
  const std::uint64_t* offsets = table.offsets->data();
  const std::uint64_t* q = queries.data();
  std::uint8_t* out = out_member.data();
  const int shift = table.prefix_shift;
  return test_support::launch_per_thread(
      device, "member_bsearch", shape.grid_dim, shape.block_dim,
      [=](ThreadCtx& ctx) {
        const std::uint64_t i = ctx.global_id();
        if (i >= n) return;
        ctx.count_gmem_read(sizeof(std::uint64_t));
        const std::uint64_t key = q[i];
        const std::uint64_t bucket = key >> shift;
        ctx.count_gmem_read(2 * sizeof(std::uint64_t));
        ctx.count_ops(2);
        const std::size_t slot = bsearch_slot(
            ctx, keys, static_cast<std::size_t>(offsets[bucket]),
            static_cast<std::size_t>(offsets[bucket + 1]), key);
        ctx.count_gmem_write(sizeof(std::uint8_t));
        out[i] = slot != kNpos ? 1 : 0;
      });
}

LaunchStats value_histogram(gpusim::Device& device,
                            const DeviceBuffer<std::uint64_t>& values,
                            std::size_t n, std::size_t nbins,
                            DeviceBuffer<std::uint64_t>& out_bins) {
  const auto shape = device.shape_for(n);
  const std::uint64_t* vals = values.data();
  std::uint64_t* bins = out_bins.data();
  // Two-level: the block's threads bin their values in shared memory, then
  // stride over the bins and flush each nonzero one with one global atomic
  // add. The bin scan's charges — 4 B smem read and 1 op per bin per
  // block — are stated in closed form.
  return test_support::launch_per_block(
      device, "value_histogram", shape.grid_dim, shape.block_dim,
      nbins * sizeof(std::uint32_t), [=](BlockCtx& block) {
        // The block's bins, all zero between blocks: the flush re-zeroes
        // every bin it commits.
        thread_local std::vector<std::uint32_t> smem_bins;
        if (smem_bins.size() < nbins) smem_bins.assign(nbins, 0u);
        const std::size_t first = block.first_global_id();
        const std::uint32_t active = block.threads_below(n);
        for (std::uint32_t t = 0; t < active; ++t) {
          block.count_gmem_read(sizeof(std::uint64_t));
          const std::uint64_t v = vals[first + t];
          const std::size_t bin =
              v < nbins ? static_cast<std::size_t>(v) : nbins - 1;
          block.count_ops(2);  // clamp + bin address math
          smem_bins[bin] += 1;
          block.count_smem_atomic(1);
          block.count_smem_write(sizeof(std::uint32_t));
        }
        block.count_smem_read(nbins * sizeof(std::uint32_t));
        block.count_ops(nbins);
        // Only bins this block actually touched pay a global atomic.
        for (std::size_t t = 0; t < block.block_dim(); ++t) {
          for (std::size_t b = t; b < nbins; b += block.block_dim()) {
            const std::uint32_t count = smem_bins[b];
            if (count == 0) continue;
            smem_bins[b] = 0;
            std::atomic_ref<std::uint64_t> slot(bins[b]);
            slot.fetch_add(count, std::memory_order_relaxed);
            block.count_atomic(1);
            block.count_gmem_write(sizeof(std::uint64_t));
          }
        }
      });
}

/// Per-row hash + index arithmetic: the fmix64 pipeline (~6 ops) plus the
/// mask/offset (~2 ops).
constexpr std::uint64_t kRowOps = 8;

/// The shared table: 1024 slots of 12 bytes (key + count), probed at most
/// 16 slots deep.
constexpr std::size_t kSlots = 1024;
constexpr std::uint64_t kSlotBytes = 12;
constexpr std::size_t kProbeLimit = 16;

/// Add `count` to key's cell in every row with global atomic adds.
void rows_atomic_add(gpusim::KernelCharges& charges, std::uint32_t* cells,
                     std::uint32_t width, std::uint32_t depth,
                     std::uint64_t key, std::uint32_t count) {
  for (std::uint32_t r = 0; r < depth; ++r) {
    std::atomic_ref<std::uint32_t>(
        cells[sketch_cell_index(width, r, key)])
        .fetch_add(count, std::memory_order_relaxed);
  }
  charges.count_atomic(depth);
  charges.count_ops(kRowOps * depth);
}

/// The vanilla update's block-local shared-memory key table.
class BlockAggregator {
 public:
  /// The executing thread's table, opened empty, whose probe sequence
  /// starts at hash_u64(key, seed). Charges the block's cooperative init
  /// in closed form: every one of the block's threads clears
  /// ⌈kSlots/block_dim⌉ slots of 12 bytes, whether or not it has input.
  [[nodiscard]] static BlockAggregator& begin(BlockCtx& block,
                                              std::uint64_t seed) {
    thread_local BlockAggregator table;
    if (table.occupied_ != 0) {
      std::fill_n(table.keys_.get(), kSlots, kmer::kInvalidCode);
      table.occupied_ = 0;
    }
    table.seed_ = seed;
    const std::uint64_t per_thread =
        (kSlots + block.block_dim() - 1) / block.block_dim();
    block.count_smem_write(std::uint64_t{block.block_dim()} * per_thread *
                           kSlotBytes);
    return table;
  }

  /// Aggregate one occurrence, charging its shared-memory probes and
  /// atomics. Returns false when the probe bound is hit (the caller falls
  /// through to its global path).
  bool add(gpusim::KernelCharges& charges, std::uint64_t key) {
    constexpr std::size_t mask = kSlots - 1;
    std::size_t slot = hash::hash_u64(key, seed_) & mask;
    for (std::size_t probes = 1; probes <= kProbeLimit; ++probes) {
      charges.count_smem_read(sizeof(std::uint64_t));
      if (keys_[slot] == kmer::kInvalidCode) {
        keys_[slot] = key;  // shared-memory atomicCAS claim
        counts_[slot] = 1;
        ++occupied_;
        charges.count_smem_atomic(2);
        charges.count_ops(4);
        return true;
      }
      if (keys_[slot] == key) {
        counts_[slot] += 1;  // shared-memory atomicAdd
        charges.count_smem_atomic(1);
        charges.count_ops(2);
        return true;
      }
      slot = (slot + 1) & mask;
    }
    return false;
  }

  /// Commit every occupied slot as commit(key, block_count), in the
  /// block's thread-then-stride scan order, clearing each slot first.
  /// Charges the scan in closed form: every slot is read once, 12 bytes.
  template <typename Commit>
  void flush(BlockCtx& block, Commit&& commit) {
    block.count_smem_read(kSlots * kSlotBytes);
    const std::size_t stride = block.block_dim();
    for (std::size_t t = 0; t < stride && occupied_ != 0; ++t) {
      for (std::size_t slot = t; slot < kSlots; slot += stride) {
        const std::uint64_t key = keys_[slot];
        if (key == kmer::kInvalidCode) continue;
        keys_[slot] = kmer::kInvalidCode;
        --occupied_;
        commit(key, counts_[slot]);
      }
    }
  }

 private:
  BlockAggregator()
      : keys_(std::make_unique<std::uint64_t[]>(kSlots)),
        counts_(std::make_unique<std::uint32_t[]>(kSlots)) {
    std::fill_n(keys_.get(), kSlots, kmer::kInvalidCode);
  }

  std::unique_ptr<std::uint64_t[]> keys_;
  std::unique_ptr<std::uint32_t[]> counts_;
  std::uint64_t seed_ = 0;
  std::size_t occupied_ = 0;
};

LaunchStats sketch_update(gpusim::Device& device,
                          DeviceBuffer<std::uint32_t>& cells_buffer,
                          const SketchParams& params,
                          const DeviceBuffer<std::uint64_t>& keys,
                          std::size_t n) {
  auto* cells = cells_buffer.data();
  const std::uint32_t width = params.width;
  const std::uint32_t depth = params.depth;
  const std::uint64_t* in = keys.data();
  const auto shape = device.shape_for(n);
  return test_support::launch_per_block(
      device, "sketch_update", shape.grid_dim, shape.block_dim,
      kSlots * kSlotBytes, [=](BlockCtx& block) {
        BlockAggregator& agg =
            BlockAggregator::begin(block, sketch_row_seed(0));
        const std::size_t first = block.first_global_id();
        const std::uint32_t active = block.threads_below(n);
        for (std::uint32_t t = 0; t < active; ++t) {
          block.count_gmem_read(sizeof(std::uint64_t));  // load the k-mer
          const std::uint64_t key = in[first + t];
          if (!agg.add(block, key)) {
            rows_atomic_add(block, cells, width, depth, key, 1);  // overflow
          }
        }
        agg.flush(block, [&](std::uint64_t key, std::uint32_t count) {
          rows_atomic_add(block, cells, width, depth, key, count);
        });
      });
}

LaunchStats sketch_update_conservative(
    gpusim::Device& device, DeviceBuffer<std::uint32_t>& cells_buffer,
    const SketchParams& params, const DeviceBuffer<std::uint64_t>& keys,
    std::size_t n) {
  auto* cells = cells_buffer.data();
  const std::uint32_t width = params.width;
  const std::uint32_t depth = params.depth;
  const std::uint64_t* in = keys.data();
  const auto shape = device.shape_for(n);
  return test_support::launch_per_thread(
      device, "sketch_update_conservative", shape.grid_dim, shape.block_dim,
      [=](ThreadCtx& ctx) {
        const std::uint64_t i = ctx.global_id();
        if (i >= n) return;
        ctx.count_gmem_read(sizeof(std::uint64_t));  // load the k-mer
        const std::uint64_t key = in[i];
        std::uint32_t floor = std::numeric_limits<std::uint32_t>::max();
        for (std::uint32_t r = 0; r < depth; ++r) {
          floor = std::min(floor, cells[sketch_cell_index(width, r, key)]);
        }
        ctx.count_gmem_read(depth * sizeof(std::uint32_t));
        ctx.count_ops(kRowOps * depth + depth);
        const std::uint32_t target = floor + 1;
        for (std::uint32_t r = 0; r < depth; ++r) {
          std::uint32_t& cell = cells[sketch_cell_index(width, r, key)];
          if (cell < target) {
            cell = target;  // atomicMax on the row cell
            ctx.count_atomic(1);
          }
        }
      });
}

LaunchStats sketch_estimate(gpusim::Device& device,
                            const DeviceBuffer<std::uint32_t>& cells_buffer,
                            const SketchParams& params,
                            const DeviceBuffer<std::uint64_t>& keys,
                            std::size_t n, DeviceBuffer<std::uint32_t>& out) {
  const auto* cells = cells_buffer.data();
  auto* results = out.data();
  const std::uint32_t width = params.width;
  const std::uint32_t depth = params.depth;
  const std::uint64_t* in = keys.data();
  const auto shape = device.shape_for(n);
  return test_support::launch_per_thread(
      device, "sketch_estimate", shape.grid_dim, shape.block_dim,
      [=](ThreadCtx& ctx) {
        const std::uint64_t i = ctx.global_id();
        if (i >= n) return;
        ctx.count_gmem_read(sizeof(std::uint64_t));  // load the query key
        const std::uint64_t key = in[i];
        std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
        for (std::uint32_t r = 0; r < depth; ++r) {
          best = std::min(best, cells[sketch_cell_index(width, r, key)]);
        }
        ctx.count_gmem_read(depth * sizeof(std::uint32_t));
        ctx.count_ops(kRowOps * depth + depth);
        results[i] = best;
        ctx.count_gmem_write(sizeof(std::uint32_t));
      });
}

}  // namespace reference

// --- The harness ---

template <typename T>
std::vector<T> contents(const DeviceBuffer<T>& buffer) {
  return std::vector<T>(buffer.data(), buffer.data() + buffer.size());
}

/// A sorted table with a 16-bucket prefix index, resident on one device.
struct SortedTable {
  static constexpr std::uint32_t kFanout = 16;
  static constexpr int kShift = 60;  // bucket = the key's top 4 bits

  SortedTable(gpusim::Device& device, std::vector<std::uint64_t> sorted_keys)
      : entries(sorted_keys.size()) {
    std::vector<std::uint64_t> vals;
    for (const std::uint64_t key : sorted_keys) vals.push_back(key % 977 + 1);
    std::vector<std::uint64_t> offs;
    for (std::uint64_t b = 0; b <= kFanout; ++b) {
      offs.push_back(static_cast<std::uint64_t>(
          b == kFanout ? sorted_keys.size()
                       : std::lower_bound(sorted_keys.begin(),
                                          sorted_keys.end(), b << kShift) -
                             sorted_keys.begin()));
    }
    keys = upload(device, sorted_keys);
    values = upload(device, vals);
    offsets = upload(device, offs);
  }

  [[nodiscard]] SortedTableView view() const {
    return SortedTableView{&keys, &values, &offsets, entries, kFanout,
                           kShift};
  }

  std::size_t entries;
  DeviceBuffer<std::uint64_t> keys;
  DeviceBuffer<std::uint64_t> values;
  DeviceBuffer<std::uint64_t> offsets;
};

/// `count` distinct random keys, sorted.
std::vector<std::uint64_t> sorted_keys(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys;
  while (keys.size() < count) {
    while (keys.size() < count) keys.push_back(rng());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  return keys;
}

/// Both searches and their references over one table and query batch.
void check_lookups(const std::vector<std::uint64_t>& table_keys,
                   const std::vector<std::uint64_t>& queries) {
  gpusim::Device device;
  const SortedTable table(device, table_keys);
  const auto d_queries = upload(device, queries);
  const std::size_t n = queries.size();
  {
    SCOPED_TRACE("lookup_bsearch");
    auto out = device.alloc<std::uint64_t>(n + 1, std::uint64_t{7});
    auto ref = device.alloc<std::uint64_t>(n + 1, std::uint64_t{7});
    expect_same_launch(
        gpusim::lookup_sorted(device, table.view(), d_queries, n, out),
        reference::lookup_sorted(device, table.view(), d_queries, n, ref));
    EXPECT_EQ(contents(out), contents(ref));
  }
  {
    SCOPED_TRACE("member_bsearch");
    auto out = device.alloc<std::uint8_t>(n + 1, std::uint8_t{7});
    auto ref = device.alloc<std::uint8_t>(n + 1, std::uint8_t{7});
    expect_same_launch(
        gpusim::member_sorted(device, table.view(), d_queries, n, out),
        reference::member_sorted(device, table.view(), d_queries, n, ref));
    EXPECT_EQ(contents(out), contents(ref));
  }
}

TEST(LaunchOracleTest, LookupsOverHitsAndMisses) {
  const std::vector<std::uint64_t> keys = sorted_keys(3000, 1);
  Xoshiro256 rng(2);
  std::vector<std::uint64_t> queries;
  // 700 queries (not a multiple of the 256-thread block): every other one
  // a stored key, the rest (almost surely) absent.
  for (std::size_t i = 0; i < 700; ++i) {
    queries.push_back(i % 2 == 0 ? keys[rng.below(keys.size())] : rng());
  }
  // The table's ends and the first key of a bucket.
  queries.push_back(keys.front());
  queries.push_back(keys.back());
  queries.push_back(std::uint64_t{3} << SortedTable::kShift);
  check_lookups(keys, queries);
}

TEST(LaunchOracleTest, LookupsOnAnEmptyShard) {
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> queries;
  for (std::size_t i = 0; i < 300; ++i) queries.push_back(rng());
  check_lookups({}, queries);
  check_lookups({}, {});
}

/// value_histogram and its reference over `values`.
void check_histogram(const std::vector<std::uint64_t>& values,
                     std::size_t nbins) {
  gpusim::Device device;
  const auto d_values = upload(device, values);
  auto out = device.alloc<std::uint64_t>(nbins, std::uint64_t{0});
  auto ref = device.alloc<std::uint64_t>(nbins, std::uint64_t{0});
  for (int launch = 0; launch < 2; ++launch) {  // the bins accumulate
    SCOPED_TRACE(testing::Message() << "launch " << launch);
    expect_same_launch(
        gpusim::value_histogram(device, d_values, values.size(), nbins, out),
        reference::value_histogram(device, d_values, values.size(), nbins,
                                   ref));
    EXPECT_EQ(contents(out), contents(ref));
  }
}

TEST(LaunchOracleTest, ValueHistogram) {
  Xoshiro256 rng(4);
  {
    SCOPED_TRACE("more bins than values");
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < 300; ++i) values.push_back(rng.below(2000));
    check_histogram(values, 1000);
  }
  {
    SCOPED_TRACE("values past the last bin");
    // Skewed like count spectra: many small counts, a tail past the bins.
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < 1500; ++i) {
      values.push_back(i % 5 == 0 ? 64 + rng.below(1000) : rng.below(8));
    }
    check_histogram(values, 64);
  }
  {
    SCOPED_TRACE("no values");
    check_histogram({}, 32);
  }
}

/// A DeviceCountMinSketch and the reference cells, each on its own device,
/// fed the same launches.
class SketchTwin {
 public:
  explicit SketchTwin(const SketchParams& params)
      : params_(params),
        sketch_(device_, params),
        cells_(ref_device_.alloc<std::uint32_t>(params.cell_count(), 0u)) {}

  void update(const std::vector<std::uint64_t>& keys) {
    const auto d_keys = upload(device_, keys);
    const auto r_keys = upload(ref_device_, keys);
    const LaunchStats stats = sketch_.update(d_keys, keys.size());
    expect_same_launch(
        stats, params_.conservative
                   ? reference::sketch_update_conservative(
                         ref_device_, cells_, params_, r_keys, keys.size())
                   : reference::sketch_update(ref_device_, cells_, params_,
                                              r_keys, keys.size()));
  }

  void estimate(const std::vector<std::uint64_t>& keys) {
    const auto d_keys = upload(device_, keys);
    const auto r_keys = upload(ref_device_, keys);
    auto out = device_.alloc<std::uint32_t>(keys.size() + 1, 7u);
    auto ref = ref_device_.alloc<std::uint32_t>(keys.size() + 1, 7u);
    expect_same_launch(
        sketch_.estimate(d_keys, keys.size(), out),
        reference::sketch_estimate(ref_device_, cells_, params_, r_keys,
                                   keys.size(), ref));
    EXPECT_EQ(contents(out), contents(ref));
  }

  /// Copies the sketch's cells back and compares them with the reference.
  void expect_same_cells() { EXPECT_EQ(sketch_.to_host(), contents(cells_)); }

 private:
  SketchParams params_;
  gpusim::Device device_;
  DeviceCountMinSketch sketch_;
  gpusim::Device ref_device_;
  DeviceBuffer<std::uint32_t> cells_;
};

/// `count` keys sharing one home slot in the shared aggregation table, so
/// a block holding all of them overflows the probe bound.
std::vector<std::uint64_t> colliding_keys(std::size_t count) {
  const auto home = [](std::uint64_t key) {
    return hash::hash_u64(key, sketch_row_seed(0)) & (kSmemSlots - 1);
  };
  std::vector<std::uint64_t> keys = {1};
  for (std::uint64_t key = 2; keys.size() < count; ++key) {
    if (home(key) == home(1)) keys.push_back(key);
  }
  return keys;
}

TEST(LaunchOracleTest, SketchUpdatesAndEstimates) {
  const std::vector<std::uint64_t> colliding = colliding_keys(24);
  ASSERT_GT(colliding.size(), kSmemProbeLimit);
  Xoshiro256 rng(5);
  // Duplicate-heavy: 600 occurrences (not a multiple of the 256-thread
  // block) of 40 keys, shuffled.
  std::vector<std::uint64_t> heavy;
  for (std::size_t i = 0; i < 600; ++i) heavy.push_back(1000 + rng.below(40));
  // Overflowing: 24 keys homed on one shared slot, each four times, in
  // the first block, after a prefix of distinct keys.
  std::vector<std::uint64_t> overflowing;
  for (std::uint64_t i = 0; i < 100; ++i) overflowing.push_back(5000 + i);
  for (int rep = 0; rep < 4; ++rep) {
    overflowing.insert(overflowing.end(), colliding.begin(), colliding.end());
  }
  for (std::uint64_t i = 0; i < 333; ++i) overflowing.push_back(rng.below(90));
  std::vector<std::uint64_t> queries = heavy;
  queries.insert(queries.end(), overflowing.begin(), overflowing.end());
  for (std::size_t i = 0; i < 50; ++i) queries.push_back(rng());  // absent

  for (const bool conservative : {false, true}) {
    SCOPED_TRACE(testing::Message() << "conservative=" << conservative);
    SketchParams params;
    params.width = 64;  // narrow, so rows collide and estimates overshoot
    params.depth = 3;
    params.conservative = conservative;
    SketchTwin twin(params);
    {
      SCOPED_TRACE("duplicate-heavy");
      twin.update(heavy);
    }
    {
      SCOPED_TRACE("overflowing");
      twin.update(overflowing);
    }
    twin.estimate(queries);
    twin.expect_same_cells();
  }
}

TEST(LaunchOracleTest, SketchUpdateBeyondSharedBudgetThrows) {
  // A device whose per-block shared memory cannot hold the aggregation
  // table rejects the vanilla update before touching a cell.
  gpusim::DeviceProps props = gpusim::DeviceProps::v100();
  props.smem_bytes_per_block = BlockAggregator::kFootprint - 1;
  gpusim::Device device(props);
  SketchParams params;
  params.width = 64;
  params.depth = 3;
  DeviceCountMinSketch sketch(device, params);
  const auto d_keys = upload(device, std::vector<std::uint64_t>{1, 2, 2, 3});
  EXPECT_THROW(sketch.update(d_keys, 4), SimulationError);
  EXPECT_EQ(device.timeline().launches, 0u);
  EXPECT_EQ(sketch.to_host(),
            std::vector<std::uint32_t>(params.cell_count(), 0u));

  // The conservative update keeps no shared table.
  params.conservative = true;
  DeviceCountMinSketch conservative(device, params);
  EXPECT_NO_THROW(conservative.update(d_keys, 4));
}

}  // namespace
}  // namespace dedukt::core
