// Count-min sketch backend (ROADMAP item 5): a fixed-footprint streaming
// counter beside the exact host/device hash tables, after the counting-
// Bloom/count-min lineage of the khmer paper (Zhang et al.).
//
// A sketch is `depth` rows of `width` u32 cells (width a power of two).
// Updating key x adds its count to one cell per row (cell chosen by an
// independent per-row hash); the estimate for x is the minimum over its
// `depth` cells. Two update disciplines:
//
//  * vanilla: every row cell gets the full count. Each cell is then the
//    plain sum of the counts of all keys hashing to it — a function of the
//    input MULTISET only, so vanilla cells are bit-identical regardless of
//    update order, batch boundaries, rank partitioning, or pipeline kind,
//    and merging per-rank sketches cell-wise equals sketching the
//    concatenated stream.
//  * conservative update (Estan-Varghese): only cells at the current
//    minimum are raised, to min + count. Strictly tighter (cell-for-cell
//    <= vanilla, proved by induction in the tests) but order-dependent, so
//    the device kernel runs under gpusim's order-pinned launch to stay
//    bit-identical to the sequential host reference.
//
// Both disciplines are one-sided — estimate >= true count always — which is
// what makes the two-pass heavy-hitter extraction exact-recall: any key
// whose true global count reaches the threshold must survive the sketch
// filter. Cells are u32; the counting contract (enforced by the driver) is
// that the global stream length stays below 2^32 so no cell can wrap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dedukt/gpusim/device.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

/// Shape + update discipline of a count-min sketch.
struct SketchParams {
  std::uint32_t width = 1u << 20;  ///< cells per row; must be a power of two
  std::uint32_t depth = 4;         ///< independent rows
  bool conservative = false;       ///< Estan-Varghese conservative update

  void validate() const;

  [[nodiscard]] std::size_t cell_count() const {
    return static_cast<std::size_t>(width) * depth;
  }
  /// Device/host memory footprint of the cell array.
  [[nodiscard]] std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(cell_count()) * sizeof(std::uint32_t);
  }
};

/// Seed of row r's hash function. hash_u64 already spreads the seed by the
/// golden-ratio multiplier, so consecutive integers give independent rows;
/// the constant keeps sketch rows disjoint from the table-probe and
/// partition hash families.
[[nodiscard]] constexpr std::uint64_t sketch_row_seed(std::uint32_t row) {
  return 0xC0'55'EEDull + row;
}

/// Flat index (row-major) of key's cell in row `row`.
[[nodiscard]] constexpr std::size_t sketch_cell_index(std::uint32_t width,
                                                      std::uint32_t row,
                                                      std::uint64_t key) {
  return static_cast<std::size_t>(row) * width +
         (hash::hash_u64(key, sketch_row_seed(row)) & (width - 1));
}

/// Host reference count-min sketch. The device kernels are validated
/// against this cell-for-cell; the CPU pipeline and the heavy-hitter
/// second pass use it directly.
class HostCountMinSketch {
 public:
  explicit HostCountMinSketch(SketchParams params);

  /// Add `count` occurrences of `key` under the configured discipline.
  void update(std::uint64_t key, std::uint32_t count = 1);

  /// Point query: min over the key's `depth` cells. >= true count always.
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const;

  /// Cell-wise sum with another sketch of identical shape. For vanilla
  /// sketches this is bit-identical to sketching the concatenated streams;
  /// for conservative sketches it remains a one-sided upper bound (each
  /// side's cells dominate its own stream's true counts).
  void merge(const HostCountMinSketch& other);

  [[nodiscard]] const std::vector<std::uint32_t>& cells() const {
    return cells_;
  }
  /// Replace the cell array (e.g. with kernel output or a collective
  /// merge); the shape must match.
  void assign_cells(std::vector<std::uint32_t> cells);

  /// Stream length: total count this sketch has absorbed via update().
  [[nodiscard]] std::uint64_t total_updates() const { return total_; }
  void add_total(std::uint64_t n) { total_ += n; }

  [[nodiscard]] const SketchParams& params() const { return params_; }

 private:
  SketchParams params_;
  std::vector<std::uint32_t> cells_;
  std::uint64_t total_ = 0;
};

/// Estimate a key against a bare cell array (row-major, depth x width) —
/// the merged global sketch travels as a plain vector.
[[nodiscard]] std::uint64_t sketch_estimate_cells(
    std::span<const std::uint32_t> cells, std::uint32_t width,
    std::uint32_t depth, std::uint64_t key);

/// Device-resident count-min sketch with priced update/estimate kernels.
/// Mirrors DeviceHashTable's lifecycle: allocate on a per-batch Device,
/// load persistent host cells, run kernels, copy back.
class DeviceCountMinSketch {
 public:
  DeviceCountMinSketch(gpusim::Device& device, SketchParams params);

  /// H2D-load a host cell array (priced transfer). Shape must match.
  void load(std::span<const std::uint32_t> cells);

  /// Absorb `n` packed k-mers. Vanilla runs the two-level shared-memory-
  /// aggregated kernel (block-local key aggregation, then `depth` global
  /// atomic adds per distinct key — commutative, so any block schedule
  /// produces identical cells). Conservative runs a per-occurrence kernel
  /// in input order, the canonical block order, keeping it bit-identical
  /// to the host reference. A device whose per-block shared memory cannot
  /// hold the vanilla kernel's table throws SimulationError. Returns the
  /// launch's stats (empty when n == 0: nothing is launched).
  gpusim::LaunchStats update(const gpusim::DeviceBuffer<std::uint64_t>& keys,
                             std::size_t n);

  /// Point-query kernel: out[i] = min over rows of the cell of keys[i].
  gpusim::LaunchStats estimate(const gpusim::DeviceBuffer<std::uint64_t>& keys,
                               std::size_t n,
                               gpusim::DeviceBuffer<std::uint32_t>& out);

  /// D2H the cell array (priced transfer) and release the device buffer.
  [[nodiscard]] std::vector<std::uint32_t> to_host();

  /// Release the device cells without a copy-back (read-only uses, e.g.
  /// the heavy-hitter estimate pass).
  void release();

  [[nodiscard]] const SketchParams& params() const { return params_; }

 private:
  gpusim::Device* device_;
  SketchParams params_;
  gpusim::DeviceBuffer<std::uint32_t> cells_;
};

}  // namespace dedukt::core
