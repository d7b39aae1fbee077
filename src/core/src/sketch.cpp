#include "dedukt/core/sketch.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "dedukt/core/block_aggregation.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/kmer/kmer.hpp"

namespace dedukt::core {

std::uint64_t SketchSummary::estimate(std::uint64_t key) const {
  return sketch_estimate_cells(cells, width, depth, key);
}

std::uint64_t SketchSummary::false_positives() const {
  std::uint64_t n = 0;
  for (const auto& [key, count] : heavy_hitters) {
    if (count < heavy_threshold) ++n;
  }
  return n;
}

void SketchParams::validate() const {
  DEDUKT_REQUIRE_MSG(width >= 16 && std::has_single_bit(width),
                     "sketch width must be a power of two >= 16, got "
                         << width);
  DEDUKT_REQUIRE_MSG(depth >= 1 && depth <= 12,
                     "sketch depth must be in [1, 12], got " << depth);
}

HostCountMinSketch::HostCountMinSketch(SketchParams params)
    : params_(params) {
  params_.validate();
  cells_.assign(params_.cell_count(), 0u);
}

void HostCountMinSketch::update(std::uint64_t key, std::uint32_t count) {
  if (!params_.conservative) {
    for (std::uint32_t r = 0; r < params_.depth; ++r) {
      cells_[sketch_cell_index(params_.width, r, key)] += count;
    }
  } else {
    // Estan-Varghese: raise only the minimum cells, to min + count. Every
    // row cell stays >= the key's true count (it was >= before, and the
    // new floor min + count absorbs this occurrence), so the one-sided
    // guarantee survives while over-counts grow slower than vanilla.
    std::uint32_t floor = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t r = 0; r < params_.depth; ++r) {
      floor = std::min(floor,
                       cells_[sketch_cell_index(params_.width, r, key)]);
    }
    const std::uint32_t target = floor + count;
    for (std::uint32_t r = 0; r < params_.depth; ++r) {
      std::uint32_t& cell = cells_[sketch_cell_index(params_.width, r, key)];
      cell = std::max(cell, target);
    }
  }
  total_ += count;
}

std::uint64_t HostCountMinSketch::estimate(std::uint64_t key) const {
  return sketch_estimate_cells(cells_, params_.width, params_.depth, key);
}

void HostCountMinSketch::merge(const HostCountMinSketch& other) {
  DEDUKT_REQUIRE_MSG(params_.width == other.params_.width &&
                         params_.depth == other.params_.depth,
                     "cannot merge sketches of different shapes");
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] += other.cells_[i];
  }
  total_ += other.total_;
}

void HostCountMinSketch::assign_cells(std::vector<std::uint32_t> cells) {
  DEDUKT_REQUIRE(cells.size() == params_.cell_count());
  cells_ = std::move(cells);
}

std::uint64_t sketch_estimate_cells(std::span<const std::uint32_t> cells,
                                    std::uint32_t width, std::uint32_t depth,
                                    std::uint64_t key) {
  DEDUKT_CHECK(cells.size() ==
               static_cast<std::size_t>(width) * depth);
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t r = 0; r < depth; ++r) {
    best = std::min(best, cells[sketch_cell_index(width, r, key)]);
  }
  return best;
}

// --- device kernels -----------------------------------------------------
//
// Each kernel runs as one host-evaluated launch (Device::launch_host) that
// walks its keys in index order and charges the per-thread kernel's
// traffic in closed form. The vanilla update is two-level
// (block_aggregation.hpp): each block aggregates its occurrences in a
// shared-memory key table (probing from row 0's hash), then flushes every
// distinct key with `depth` global atomic adds carrying the block-local
// count, so it walks its keys block by block. Occurrences that overflow the
// shared probe bound fall through to a direct per-occurrence row update.
//
// The conservative update is order-dependent (a cell write depends on the
// current minimum): it runs per occurrence, in input order, which is the
// canonical block order and keeps it bit-identical to the host reference.
// See docs/performance-model.md ("Sketch kernels").

namespace {

/// Per-row hash + index arithmetic: the fmix64 pipeline (~6 ops) plus the
/// mask/offset (~2 ops).
constexpr std::uint64_t kRowOps = 8;

/// Add `count` to key's cell in every row, one global atomic add per row.
void rows_atomic_add(gpusim::KernelCharges& charges, std::uint32_t* cells,
                     std::uint32_t width, std::uint32_t depth,
                     std::uint64_t key, std::uint32_t count) {
  for (std::uint32_t r = 0; r < depth; ++r) {
    cells[sketch_cell_index(width, r, key)] += count;
  }
  charges.count_atomic(depth);
  charges.count_ops(kRowOps * depth);
}

}  // namespace

DeviceCountMinSketch::DeviceCountMinSketch(gpusim::Device& device,
                                           SketchParams params)
    : device_(&device), params_(params) {
  params_.validate();
  cells_ = device.alloc<std::uint32_t>(params_.cell_count(), 0u);
}

void DeviceCountMinSketch::load(std::span<const std::uint32_t> cells) {
  DEDUKT_REQUIRE(cells.size() == params_.cell_count());
  device_->copy_to_device(cells, cells_);
}

gpusim::LaunchStats DeviceCountMinSketch::update(
    const gpusim::DeviceBuffer<std::uint64_t>& keys, std::size_t n) {
  DEDUKT_REQUIRE(n <= keys.size());
  if (n == 0) return {};
  auto* cells = cells_.data();
  const std::uint32_t width = params_.width;
  const std::uint32_t depth = params_.depth;
  const std::uint64_t* in = keys.data();

  const auto shape = device_->shape_for(n);
  if (params_.conservative) {
    return device_->launch_host(
        "sketch_update_conservative", shape.grid_dim, shape.block_dim,
        [&](gpusim::KernelCharges& charges) {
          std::uint64_t raised = 0;
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t key = in[i];
            std::uint32_t floor = std::numeric_limits<std::uint32_t>::max();
            for (std::uint32_t r = 0; r < depth; ++r) {
              floor = std::min(floor, cells[sketch_cell_index(width, r, key)]);
            }
            const std::uint32_t target = floor + 1;
            for (std::uint32_t r = 0; r < depth; ++r) {
              std::uint32_t& cell = cells[sketch_cell_index(width, r, key)];
              if (cell < target) {
                cell = target;  // atomicMax on the row cell
                ++raised;
              }
            }
          }
          // Per occurrence: its k-mer and its `depth` row cells, and the
          // row hashes plus a compare per row.
          charges.count_gmem_read(
              n * (sizeof(std::uint64_t) + depth * sizeof(std::uint32_t)));
          charges.count_ops(n * (kRowOps * depth + depth));
          charges.count_atomic(raised);
        });
  }
  device_->check_smem_footprint(BlockAggregator::kFootprint);
  return device_->launch_host(
      "sketch_update", shape.grid_dim, shape.block_dim,
      [&](gpusim::KernelCharges& charges) {
        BlockAggregator agg(sketch_row_seed(0));
        for (std::size_t first = 0; first < n; first += shape.block_dim) {
          BlockAggregator::begin_block(charges, shape.block_dim);
          const std::size_t end =
              std::min<std::size_t>(n, first + shape.block_dim);
          for (std::size_t i = first; i < end; ++i) {
            if (!agg.add(charges, in[i])) {
              rows_atomic_add(charges, cells, width, depth, in[i], 1);
            }
          }
          agg.flush(charges, [&](std::uint64_t key, std::uint32_t count) {
            rows_atomic_add(charges, cells, width, depth, key, count);
          });
        }
        charges.count_gmem_read(n * sizeof(std::uint64_t));  // the k-mers
      });
}

gpusim::LaunchStats DeviceCountMinSketch::estimate(
    const gpusim::DeviceBuffer<std::uint64_t>& keys, std::size_t n,
    gpusim::DeviceBuffer<std::uint32_t>& out) {
  DEDUKT_REQUIRE(n <= keys.size());
  DEDUKT_REQUIRE(n <= out.size());
  if (n == 0) return {};
  auto* cells = cells_.data();
  auto* results = out.data();
  const std::uint32_t width = params_.width;
  const std::uint32_t depth = params_.depth;
  const std::uint64_t* in = keys.data();

  const auto shape = device_->shape_for(n);
  return device_->launch_host(
      "sketch_estimate", shape.grid_dim, shape.block_dim,
      [&](gpusim::KernelCharges& charges) {
        const std::span<const std::uint32_t> all(cells, cells_.size());
        for (std::size_t i = 0; i < n; ++i) {
          results[i] = static_cast<std::uint32_t>(
              sketch_estimate_cells(all, width, depth, in[i]));
        }
        // Per query: its key, its `depth` row cells, the row hashes plus a
        // compare per row, and its 4 B result.
        charges.count_gmem_read(
            n * (sizeof(std::uint64_t) + depth * sizeof(std::uint32_t)));
        charges.count_ops(n * (kRowOps * depth + depth));
        charges.count_gmem_write(n * sizeof(std::uint32_t));
      });
}

std::vector<std::uint32_t> DeviceCountMinSketch::to_host() {
  std::vector<std::uint32_t> host(params_.cell_count());
  device_->copy_to_host(cells_, std::span<std::uint32_t>(host));
  device_->free(cells_);
  return host;
}

void DeviceCountMinSketch::release() { device_->free(cells_); }

}  // namespace dedukt::core
