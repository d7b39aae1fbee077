#include "dedukt/gpusim/lookup.hpp"

#include <algorithm>
#include <vector>

#include "dedukt/util/error.hpp"

namespace dedukt::gpusim {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Binary search of keys[lo, hi) for `key`, adding the key slots it read
/// to `steps`. Returns the slot index, or `npos` when absent.
inline std::size_t bsearch_slot(const std::uint64_t* keys, std::size_t lo,
                                std::size_t hi, std::uint64_t key,
                                std::uint64_t& steps) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++steps;
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

/// One thread per query, in index order: found(i, slot) gets each query's
/// slot, or npos when absent. Charges each query its key load (8 B), its
/// bucket bounds (16 B) and 2 ops of shift and address math, and each
/// binary-search step one 8 B key read and 4 ops (mid arithmetic, compare,
/// branch).
template <typename Found>
void search_queries(KernelCharges& charges, const SortedTableView& table,
                    const std::uint64_t* queries, std::size_t n,
                    Found&& found) {
  const std::uint64_t* keys = table.keys->data();
  const std::uint64_t* offsets = table.offsets->data();
  std::uint64_t steps = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = queries[i];
    const std::uint64_t bucket = key >> table.prefix_shift;
    found(i, bsearch_slot(keys, static_cast<std::size_t>(offsets[bucket]),
                          static_cast<std::size_t>(offsets[bucket + 1]), key,
                          steps));
  }
  charges.count_gmem_read(n * 3 * sizeof(std::uint64_t) +
                          steps * sizeof(std::uint64_t));
  charges.count_ops(n * 2 + steps * 4);
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
  const std::uint64_t* values = table.values->data();
  std::uint64_t* out = out_values.data();
  return device.launch_host(
      "lookup_bsearch", shape.grid_dim, shape.block_dim,
      [&](KernelCharges& charges) {
        std::uint64_t hits = 0;
        search_queries(charges, table, queries.data(), n,
                       [&](std::size_t i, std::size_t slot) {
                         out[i] = slot != kNpos ? values[slot] : 0;
                         hits += slot != kNpos ? 1 : 0;
                       });
        charges.count_gmem_read(hits * sizeof(std::uint64_t));  // values
        charges.count_gmem_write(n * sizeof(std::uint64_t));
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
  std::uint8_t* out = out_member.data();
  return device.launch_host(
      "member_bsearch", shape.grid_dim, shape.block_dim,
      [&](KernelCharges& charges) {
        search_queries(charges, table, queries.data(), n,
                       [&](std::size_t i, std::size_t slot) {
                         out[i] = slot != kNpos ? 1 : 0;
                       });
        charges.count_gmem_write(n * sizeof(std::uint8_t));
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
  device.check_smem_footprint(nbins * sizeof(std::uint32_t));
  const auto shape = device.shape_for(n);
  const std::uint64_t* vals = values.data();
  std::uint64_t* bins = out_bins.data();
  // Two-level: each block's threads bin their values in shared memory
  // (per-block bin totals fit u32: at most block_dim contributions per
  // block), then stride over the bins and flush each nonzero one with one
  // global atomic add. Per value: an 8 B load, 2 ops (clamp + bin address
  // math), one shared atomic and a 4 B shared write. Per block: the bin
  // scan, a 4 B shared read and 1 op per bin. Per flushed bin: one global
  // atomic and an 8 B write.
  return device.launch_host(
      "value_histogram", shape.grid_dim, shape.block_dim,
      [&](KernelCharges& charges) {
        // The block's shared bins, all zero between blocks: the flush
        // re-zeroes every bin it commits.
        std::vector<std::uint32_t> smem_bins(nbins, 0u);
        std::vector<std::size_t> touched;
        std::uint64_t flushes = 0;
        for (std::size_t first = 0; first < n; first += shape.block_dim) {
          const std::size_t end =
              std::min<std::size_t>(n, first + shape.block_dim);
          for (std::size_t i = first; i < end; ++i) {
            const std::uint64_t v = vals[i];
            const std::size_t bin =
                v < nbins ? static_cast<std::size_t>(v) : nbins - 1;
            if (smem_bins[bin]++ == 0) touched.push_back(bin);
          }
          for (const std::size_t bin : touched) {
            bins[bin] += smem_bins[bin];
            smem_bins[bin] = 0;
          }
          flushes += touched.size();
          touched.clear();
        }
        charges.count_gmem_read(n * sizeof(std::uint64_t));
        charges.count_ops(n * 2 + std::uint64_t{shape.grid_dim} * nbins);
        charges.count_smem_atomic(n);
        charges.count_smem_write(n * sizeof(std::uint32_t));
        charges.count_smem_read(std::uint64_t{shape.grid_dim} * nbins *
                                sizeof(std::uint32_t));
        charges.count_atomic(flushes);
        charges.count_gmem_write(flushes * sizeof(std::uint64_t));
      });
}

}  // namespace dedukt::gpusim
