// Device — one simulated GPU: memory management, host<->device transfers,
// kernel launches, and a running timeline of modeled time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dedukt/gpusim/cost_model.hpp"
#include "dedukt/gpusim/device_buffer.hpp"
#include "dedukt/gpusim/device_props.hpp"
#include "dedukt/gpusim/launch.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/thread_pool.hpp"
#include "dedukt/util/timer.hpp"

namespace dedukt::gpusim {

/// Accumulated modeled time on one device, split the way the paper splits
/// its pipeline (kernel compute vs host-link transfers).
struct DeviceTimeline {
  double kernel_seconds = 0.0;
  double h2d_seconds = 0.0;
  double d2h_seconds = 0.0;
  /// Volume-proportional share of the above (without launch and transfer
  /// overheads); this is the part that scales with data size when a
  /// down-scaled run is projected to a full-size input.
  double volume_seconds = 0.0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t launches = 0;

  [[nodiscard]] double transfer_seconds() const {
    return h2d_seconds + d2h_seconds;
  }
  [[nodiscard]] double total_seconds() const {
    return kernel_seconds + transfer_seconds();
  }

  void merge(const DeviceTimeline& other) {
    kernel_seconds += other.kernel_seconds;
    h2d_seconds += other.h2d_seconds;
    d2h_seconds += other.d2h_seconds;
    volume_seconds += other.volume_seconds;
    h2d_bytes += other.h2d_bytes;
    d2h_bytes += other.d2h_bytes;
    launches += other.launches;
  }
};

class Device {
 public:
  explicit Device(DeviceProps props = DeviceProps::v100())
      : props_(std::move(props)), cost_model_(props_) {}

  [[nodiscard]] const DeviceProps& props() const { return props_; }
  [[nodiscard]] const DeviceTimeline& timeline() const { return timeline_; }
  [[nodiscard]] std::uint64_t allocated_bytes() const { return allocated_; }

  void reset_timeline() { timeline_ = DeviceTimeline{}; }

  /// Allocate an uninitialized (value-initialized) device buffer of n
  /// elements; throws SimulationError if the device memory would overflow.
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> alloc(std::size_t n) {
    reserve(n * sizeof(T));
    return DeviceBuffer<T>(n);
  }

  /// Allocate a device buffer filled with `fill`.
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> alloc(std::size_t n, const T& fill) {
    reserve(n * sizeof(T));
    return DeviceBuffer<T>(n, fill);
  }

  /// Release accounting for a buffer (its storage dies with the object).
  template <typename T>
  void free(DeviceBuffer<T>& buffer) {
    release(buffer.bytes());
    buffer = DeviceBuffer<T>();
  }

  /// Account `bytes` of device memory without host storage, for a
  /// structure whose functional state lives elsewhere but whose modeled
  /// footprint must still count; throws SimulationError if the device
  /// memory would overflow. Pair with release().
  void reserve(std::uint64_t bytes) {
    if (allocated_ + bytes > props_.memory_bytes) {
      throw SimulationError("device out of memory: " +
                            std::to_string(allocated_ + bytes) + " > " +
                            std::to_string(props_.memory_bytes) + " bytes");
    }
    allocated_ += bytes;
  }

  /// Return `bytes` taken by reserve().
  void release(std::uint64_t bytes) {
    DEDUKT_CHECK(allocated_ >= bytes);
    allocated_ -= bytes;
  }

  /// Copy host -> device, priced at host-link bandwidth.
  template <typename T>
  void copy_to_device(std::span<const T> host, DeviceBuffer<T>& dst) {
    DEDUKT_REQUIRE_MSG(host.size() <= dst.size(),
                       "H2D copy larger than destination buffer");
    trace::ScopedSpan span(trace::kCategoryTransfer, "h2d",
                           trace::Track::kDevice);
    std::copy(host.begin(), host.end(), dst.data());
    const std::uint64_t bytes = host.size() * sizeof(T);
    const double modeled = cost_model_.transfer_seconds(bytes);
    const double volume = cost_model_.transfer_volume_seconds(bytes);
    timeline_.h2d_bytes += bytes;
    timeline_.h2d_seconds += modeled;
    timeline_.volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes", bytes);
      trace::counter("device.h2d_bytes", bytes);
    }
  }

  /// Copy device -> host, priced at host-link bandwidth.
  template <typename T>
  void copy_to_host(const DeviceBuffer<T>& src, std::span<T> host) {
    DEDUKT_REQUIRE_MSG(host.size() <= src.size(),
                       "D2H copy larger than source buffer");
    trace::ScopedSpan span(trace::kCategoryTransfer, "d2h",
                           trace::Track::kDevice);
    std::copy(src.data(), src.data() + host.size(), host.begin());
    const std::uint64_t bytes = host.size() * sizeof(T);
    const double modeled = cost_model_.transfer_seconds(bytes);
    const double volume = cost_model_.transfer_volume_seconds(bytes);
    timeline_.d2h_bytes += bytes;
    timeline_.d2h_seconds += modeled;
    timeline_.volume_seconds += volume;
    if (span.active()) {
      span.set_modeled_seconds(modeled);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("bytes", bytes);
      trace::counter("device.d2h_bytes", bytes);
    }
  }

  /// Launch a kernel over `grid_dim` blocks of `block_dim` threads.
  /// The kernel callable is invoked once per thread with a ThreadCtx.
  /// Returns per-launch stats; modeled time also accumulates on the
  /// timeline.
  ///
  /// Blocks are dispatched as contiguous ranges to the process-wide
  /// util::ThreadPool (sized by DEDUKT_SIM_THREADS, default hardware
  /// concurrency; 1 = exact legacy sequential block order). This is valid
  /// for the data-parallel, atomics-only kernels this library uses (all
  /// cross-thread writes go through std::atomic_ref, no __syncthreads
  /// dependencies); threads within a block still execute in warp order,
  /// matching the coalescing assumptions of the paper's kernels. Each
  /// block range accumulates into private LaunchCounters merged
  /// deterministically after the join, so counter totals — and everything
  /// priced from them — are identical for every pool size.
  template <typename Kernel>
  LaunchStats launch(std::uint32_t grid_dim, std::uint32_t block_dim,
                     Kernel&& kernel) {
    return launch("kernel", grid_dim, block_dim,
                  std::forward<Kernel>(kernel));
  }

  /// Named launch: identical semantics, but the kernel's trace span and
  /// per-kernel metrics carry `name` (a static string, e.g. the real
  /// kernel's identifier) instead of the generic "kernel".
  template <typename Kernel>
  LaunchStats launch(const char* name, std::uint32_t grid_dim,
                     std::uint32_t block_dim, Kernel&& kernel) {
    return run_blocks(name, grid_dim, block_dim, /*ordered=*/false,
                      per_thread(grid_dim, block_dim, kernel));
  }

  /// Order-pinned launch: blocks always execute in the canonical
  /// sequential order 0..grid_dim-1, regardless of DEDUKT_SIM_THREADS.
  ///
  /// Required for kernels whose results depend on the order occurrences
  /// reach shared state: the atomic-cursor append pattern (idx =
  /// atomicAdd(cursor), out[idx] = x), whose output order feeds later
  /// kernels, and kernels whose counts depend on which occurrence of a key
  /// comes first (a Bloom filter that absorbs first occurrences, the
  /// conservative sketch update). The real GPU produces a
  /// scheduling-dependent order there; the simulation contract is stricter
  /// (bit-identical buffers, counts and charges across pool sizes), so the
  /// producer's block order is pinned. Charges are identical to the
  /// parallel launch; only host wall time loses the block-level
  /// parallelism.
  template <typename Kernel>
  LaunchStats launch_ordered(const char* name, std::uint32_t grid_dim,
                             std::uint32_t block_dim, Kernel&& kernel) {
    return run_blocks(name, grid_dim, block_dim, /*ordered=*/true,
                      per_thread(grid_dim, block_dim, kernel));
  }

  /// Block-cooperative launch: the kernel callable is invoked once per
  /// block with a BlockCtx, on one pool worker, and steps through the
  /// block's threads itself, in thread order. `smem_bytes` is the
  /// block's declared __shared__ footprint; a footprint above
  /// DeviceProps::smem_bytes_per_block throws SimulationError before any
  /// block runs. Counters, LaunchStats, timeline and trace span are merged
  /// exactly as for the per-thread form, so a kernel ported between the
  /// two forms with the same charges prices identically.
  template <typename Kernel>
  LaunchStats launch_blocks(const char* name, std::uint32_t grid_dim,
                            std::uint32_t block_dim, std::uint64_t smem_bytes,
                            Kernel&& kernel) {
    check_smem_footprint(smem_bytes);
    return run_blocks(name, grid_dim, block_dim, /*ordered=*/false,
                      per_block(grid_dim, block_dim, kernel));
  }

  /// Host-evaluated launch: `body(KernelCharges&)` runs once, on the
  /// calling thread, produces the whole grid's result and charges the
  /// grid's traffic itself, in closed form. For kernels whose result and
  /// charges the host computes more cheaply than thread by thread; both
  /// must be what any block interleaving would give. Priced and recorded
  /// exactly like the other forms: the same span, LaunchStats, timeline
  /// and launch count, with `threads` set to grid_dim × block_dim.
  template <typename Body>
  LaunchStats launch_host(const char* name, std::uint32_t grid_dim,
                          std::uint32_t block_dim, Body&& body) {
    check_shape(grid_dim, block_dim);
    trace::ScopedSpan span(trace::kCategoryKernel, name,
                           trace::Track::kDevice);
    Timer wall;
    LaunchCounters counters;
    KernelCharges charges(counters);
    body(charges);
    return record_launch(span, wall, grid_dim, block_dim, counters);
  }

 private:
  /// Block body of a per-thread kernel: its threads in order.
  template <typename Kernel>
  static auto per_thread(std::uint32_t grid_dim, std::uint32_t block_dim,
                         Kernel& kernel) {
    return [grid_dim, block_dim, &kernel](std::uint32_t b,
                                          LaunchCounters& local) {
      for (std::uint32_t t = 0; t < block_dim; ++t) {
        ThreadCtx ctx(b, t, block_dim, grid_dim, local);
        kernel(ctx);
      }
    };
  }

  /// Block body of a block-cooperative kernel: one call per block.
  template <typename Kernel>
  static auto per_block(std::uint32_t grid_dim, std::uint32_t block_dim,
                        Kernel& kernel) {
    return [grid_dim, block_dim, &kernel](std::uint32_t b,
                                          LaunchCounters& local) {
      BlockCtx ctx(b, block_dim, grid_dim, local);
      kernel(ctx);
    };
  }

  void check_smem_footprint(std::uint64_t smem_bytes) const {
    if (smem_bytes > props_.smem_bytes_per_block) {
      throw SimulationError(
          "block shared memory exhausted: " + std::to_string(smem_bytes) +
          " > " + std::to_string(props_.smem_bytes_per_block) +
          " bytes per block");
    }
  }

  void check_shape(std::uint32_t grid_dim, std::uint32_t block_dim) const {
    DEDUKT_REQUIRE_MSG(block_dim > 0 && grid_dim > 0,
                       "empty launch configuration");
    DEDUKT_REQUIRE_MSG(
        block_dim <= static_cast<std::uint32_t>(props_.max_threads_per_block),
        "block_dim " << block_dim << " exceeds device limit");
  }

  /// Run `block_body(b, counters)` for every block b, merge the counters,
  /// price the launch and record it on the timeline and the trace.
  template <typename BlockBody>
  LaunchStats run_blocks(const char* name, std::uint32_t grid_dim,
                         std::uint32_t block_dim, bool ordered,
                         BlockBody&& block_body) {
    check_shape(grid_dim, block_dim);

    trace::ScopedSpan span(trace::kCategoryKernel, name,
                           trace::Track::kDevice);
    Timer wall;
    util::ThreadPool& pool = util::ThreadPool::global();

    // ~4 ranges per pool thread so an uneven kernel load-balances without
    // shrinking ranges below useful sizes; one range when sequential or
    // when the launch pins the canonical block order.
    std::uint32_t nranges = 1;
    if (!ordered && pool.threads() > 1) {
      nranges = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          grid_dim, static_cast<std::uint64_t>(pool.threads()) * 4));
    }
    const std::uint32_t range_blocks = (grid_dim + nranges - 1) / nranges;
    nranges = (grid_dim + range_blocks - 1) / range_blocks;

    std::vector<LaunchCounters> range_counters(nranges);
    pool.run_chunks(nranges, [&](std::uint64_t range) {
      LaunchCounters local;  // worker-private: no cross-range sharing
      const std::uint32_t begin =
          static_cast<std::uint32_t>(range) * range_blocks;
      const std::uint32_t end = std::min(grid_dim, begin + range_blocks);
      for (std::uint32_t b = begin; b < end; ++b) block_body(b, local);
      range_counters[range] = local;
    });

    LaunchCounters counters;
    for (const LaunchCounters& range : range_counters) {
      counters.merge(range);
    }
    return record_launch(span, wall, grid_dim, block_dim, counters);
  }

  /// Price a finished launch from its counters and record it on the
  /// timeline and on its open kernel span.
  LaunchStats record_launch(trace::ScopedSpan& span, const Timer& wall,
                            std::uint32_t grid_dim, std::uint32_t block_dim,
                            LaunchCounters counters) {
    counters.threads = static_cast<std::uint64_t>(grid_dim) * block_dim;

    LaunchStats stats;
    stats.counters = counters;
    stats.modeled_seconds = cost_model_.kernel_seconds(counters);
    stats.wall_seconds = wall.seconds();
    const double volume = cost_model_.kernel_volume_seconds(counters);
    timeline_.kernel_seconds += stats.modeled_seconds;
    timeline_.volume_seconds += volume;
    timeline_.launches += 1;
    if (span.active()) {
      span.set_modeled_seconds(stats.modeled_seconds);
      span.set_modeled_volume_seconds(volume);
      span.arg_u64("grid_dim", grid_dim);
      span.arg_u64("block_dim", block_dim);
      span.arg_u64("threads", counters.threads);
      span.arg_u64("gmem_read_bytes", counters.gmem_read_bytes);
      span.arg_u64("gmem_write_bytes", counters.gmem_write_bytes);
      span.arg_u64("atomics", counters.atomics);
      span.arg_u64("ops", counters.ops);
      // Gate the shared-memory args on nonzero so traces of kernels that
      // never touch shared memory stay byte-identical to before.
      if (counters.smem_read_bytes != 0 || counters.smem_write_bytes != 0 ||
          counters.smem_atomics != 0) {
        span.arg_u64("smem_read_bytes", counters.smem_read_bytes);
        span.arg_u64("smem_write_bytes", counters.smem_write_bytes);
        span.arg_u64("smem_atomics", counters.smem_atomics);
        span.set_smem(counters.smem_read_bytes, counters.smem_write_bytes,
                      counters.smem_atomics);
      }
    }
    return stats;
  }

 public:
  /// Pick a standard launch shape covering `n` work items.
  struct LaunchShape {
    std::uint32_t grid_dim;
    std::uint32_t block_dim;
  };
  [[nodiscard]] LaunchShape shape_for(std::uint64_t items,
                                      std::uint32_t block_dim = 256) const {
    const std::uint64_t blocks =
        items == 0 ? 1 : (items + block_dim - 1) / block_dim;
    return LaunchShape{static_cast<std::uint32_t>(blocks), block_dim};
  }

 private:
  DeviceProps props_;
  GpuCostModel cost_model_;
  DeviceTimeline timeline_;
  std::uint64_t allocated_ = 0;
};

/// Snapshot/delta of a device's modeled timeline around one scope:
/// construct at the start, read the deltas at the end. This is the one
/// canonical way to attribute device time to a pipeline phase (see
/// core::PhaseScope / core::ExchangePlan).
class DeviceCapture {
 public:
  explicit DeviceCapture(Device& device)
      : device_(device), start_(device.timeline()) {}

  [[nodiscard]] double modeled_seconds() const {
    return device_.timeline().total_seconds() - start_.total_seconds();
  }
  [[nodiscard]] double transfer_seconds() const {
    return device_.timeline().transfer_seconds() -
           start_.transfer_seconds();
  }
  /// Volume-proportional share of modeled_seconds().
  [[nodiscard]] double modeled_volume_seconds() const {
    return device_.timeline().volume_seconds - start_.volume_seconds;
  }

 private:
  Device& device_;
  DeviceTimeline start_;
};

}  // namespace dedukt::gpusim
