#include "dedukt/core/sketch.hpp"

#include <algorithm>
#include <atomic>
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
// The vanilla update is two-level (block_aggregation.hpp): each block
// aggregates its occurrences in a shared-memory key table (probing from
// row 0's hash), then flushes every distinct key with `depth` global
// atomic adds carrying the block-local count. All
// global traffic is commutative adds, so cells are bit-identical at any
// DEDUKT_SIM_THREADS; the flush charge is a function of the block's
// distinct-key set alone. Occurrences that overflow the shared probe bound
// fall through to a direct per-occurrence row update.
//
// The conservative update is inherently order-dependent (a cell write
// depends on the current minimum), so it runs per-occurrence under
// launch_ordered: the canonical sequential block order makes the execution
// order equal the input order, bit-identical to the host reference at any
// pool size — trading the aggregation win for reproducibility. See
// docs/performance-model.md ("Sketch kernels").

namespace {

/// Per-row hash + index arithmetic: the fmix64 pipeline (~6 ops) plus the
/// mask/offset (~2 ops).
constexpr std::uint64_t kRowOps = 8;

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

void DeviceCountMinSketch::update(
    const gpusim::DeviceBuffer<std::uint64_t>& keys, std::size_t n) {
  DEDUKT_REQUIRE(n <= keys.size());
  if (n == 0) return;
  auto* cells = cells_.data();
  const std::uint32_t width = params_.width;
  const std::uint32_t depth = params_.depth;
  const std::uint64_t* in = keys.data();

  const auto shape = device_->shape_for(n);
  if (params_.conservative) {
    device_->launch_ordered("sketch_update_conservative", shape.grid_dim,
                            shape.block_dim, [=](gpusim::ThreadCtx& ctx) {
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
    return;
  }
  device_->launch_blocks(
      "sketch_update", shape.grid_dim, shape.block_dim,
      BlockAggregator::kFootprint, [=](gpusim::BlockCtx& block) {
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

void DeviceCountMinSketch::estimate(
    const gpusim::DeviceBuffer<std::uint64_t>& keys, std::size_t n,
    gpusim::DeviceBuffer<std::uint32_t>& out) {
  DEDUKT_REQUIRE(n <= keys.size());
  DEDUKT_REQUIRE(n <= out.size());
  if (n == 0) return;
  auto* cells = cells_.data();
  auto* results = out.data();
  const std::uint32_t width = params_.width;
  const std::uint32_t depth = params_.depth;
  const std::uint64_t* in = keys.data();

  const auto shape = device_->shape_for(n);
  device_->launch("sketch_estimate", shape.grid_dim, shape.block_dim,
                  [=](gpusim::ThreadCtx& ctx) {
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

std::vector<std::uint32_t> DeviceCountMinSketch::to_host() {
  std::vector<std::uint32_t> host(params_.cell_count());
  device_->copy_to_host(cells_, std::span<std::uint32_t>(host));
  device_->free(cells_);
  return host;
}

void DeviceCountMinSketch::release() { device_->free(cells_); }

}  // namespace dedukt::core
