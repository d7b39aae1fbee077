#include "dedukt/gpusim/lookup.hpp"

#include <atomic>
#include <vector>

#include "dedukt/util/error.hpp"

namespace dedukt::gpusim {

namespace {

/// Binary search of keys[lo, hi) for `key`, charging one 8 B read plus a
/// handful of index ops per probe. Returns the slot index, or `npos` when
/// absent. Identical probe sequence for every pool size: the search is a
/// pure function of (key, lo, hi).
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

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

inline void check_table(const SortedTableView& table) {
  DEDUKT_REQUIRE_MSG(table.keys != nullptr && table.offsets != nullptr,
                     "lookup table view missing device arrays");
  DEDUKT_REQUIRE_MSG(table.offsets->size() ==
                         static_cast<std::size_t>(table.fanout) + 1,
                     "prefix index size " << table.offsets->size()
                                          << " != fanout " << table.fanout
                                          << " + 1");
  DEDUKT_REQUIRE_MSG(table.prefix_shift >= 0 && table.prefix_shift < 64,
                     "bad prefix shift " << table.prefix_shift);
}

}  // namespace

LaunchStats lookup_sorted(Device& device, const SortedTableView& table,
                          const DeviceBuffer<std::uint64_t>& queries,
                          std::size_t n,
                          DeviceBuffer<std::uint64_t>& out_values) {
  check_table(table);
  DEDUKT_REQUIRE_MSG(table.values != nullptr,
                     "lookup table view missing value array");
  DEDUKT_REQUIRE_MSG(n <= queries.size() && n <= out_values.size(),
                     "lookup batch larger than query/result buffers");
  const auto shape = device.shape_for(n);
  const std::uint64_t* keys = table.keys->data();
  const std::uint64_t* values = table.values->data();
  const std::uint64_t* offsets = table.offsets->data();
  const std::uint64_t* q = queries.data();
  std::uint64_t* out = out_values.data();
  const int shift = table.prefix_shift;
  return device.launch(
      "lookup_bsearch", shape.grid_dim, shape.block_dim,
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

LaunchStats member_sorted(Device& device, const SortedTableView& table,
                          const DeviceBuffer<std::uint64_t>& queries,
                          std::size_t n,
                          DeviceBuffer<std::uint8_t>& out_member) {
  check_table(table);
  DEDUKT_REQUIRE_MSG(n <= queries.size() && n <= out_member.size(),
                     "membership batch larger than query/result buffers");
  const auto shape = device.shape_for(n);
  const std::uint64_t* keys = table.keys->data();
  const std::uint64_t* offsets = table.offsets->data();
  const std::uint64_t* q = queries.data();
  std::uint8_t* out = out_member.data();
  const int shift = table.prefix_shift;
  return device.launch(
      "member_bsearch", shape.grid_dim, shape.block_dim,
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

LaunchStats value_histogram(Device& device,
                            const DeviceBuffer<std::uint64_t>& values,
                            std::size_t n, std::size_t nbins,
                            DeviceBuffer<std::uint64_t>& out_bins) {
  DEDUKT_REQUIRE_MSG(nbins > 0 && nbins <= out_bins.size(),
                     "histogram bin buffer smaller than nbins");
  DEDUKT_REQUIRE_MSG(n <= values.size(),
                     "histogram input larger than value buffer");
  const auto shape = device.shape_for(n);
  const std::uint64_t* vals = values.data();
  std::uint64_t* bins = out_bins.data();
  // Two-level: the block's threads bin their values in shared memory
  // (per-block bin totals fit u32: at most block_dim contributions per
  // block), then stride over the bins and flush each nonzero one with one
  // global atomic add. The bin scan's charges — 4 B smem read and 1 op
  // per bin per block — are stated in closed form. Per-block charges
  // depend only on the block's slice of `values`, so totals are pool-size
  // invariant.
  return device.launch_blocks(
      "value_histogram", shape.grid_dim, shape.block_dim,
      nbins * sizeof(std::uint32_t), [=](BlockCtx& block) {
        // The executing worker's bins, all zero between blocks: the flush
        // re-zeroes every bin it commits.
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

}  // namespace dedukt::gpusim
