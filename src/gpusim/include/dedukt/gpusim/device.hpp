// Device — one simulated GPU: memory management, host<->device transfers,
// kernel launches, and a running timeline of modeled time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "dedukt/gpusim/cost_model.hpp"
#include "dedukt/gpusim/device_buffer.hpp"
#include "dedukt/gpusim/device_props.hpp"
#include "dedukt/gpusim/launch.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"
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
};

class Device {
 public:
  explicit Device(DeviceProps props = DeviceProps::v100())
      : props_(std::move(props)), cost_model_(props_) {}

  [[nodiscard]] const DeviceProps& props() const { return props_; }
  [[nodiscard]] const DeviceTimeline& timeline() const { return timeline_; }
  [[nodiscard]] std::uint64_t allocated_bytes() const { return allocated_; }

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

  /// Run one kernel launch: `body(KernelCharges&)` runs once, on the
  /// calling thread, produces the whole grid's result and charges the
  /// grid's traffic itself, in closed form. Both must be what the paper's
  /// per-thread kernel gives in the canonical block order. Returns the
  /// launch's counters, with `threads` set to grid_dim × block_dim, and
  /// its modeled and wall times; the modeled time also accumulates on the
  /// timeline, and a traced launch records a kernel span named `name` (a
  /// static string, e.g. the real kernel's identifier).
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

  /// Throws SimulationError when a block's declared __shared__ footprint
  /// exceeds DeviceProps::smem_bytes_per_block. A launch with block
  /// shared state calls this before launch_host.
  void check_smem_footprint(std::uint64_t smem_bytes) const {
    if (smem_bytes > props_.smem_bytes_per_block) {
      throw SimulationError(
          "block shared memory exhausted: " + std::to_string(smem_bytes) +
          " > " + std::to_string(props_.smem_bytes_per_block) +
          " bytes per block");
    }
  }

 private:
  void check_shape(std::uint32_t grid_dim, std::uint32_t block_dim) const {
    DEDUKT_REQUIRE_MSG(block_dim > 0 && grid_dim > 0,
                       "empty launch configuration");
    DEDUKT_REQUIRE_MSG(
        block_dim <= static_cast<std::uint32_t>(props_.max_threads_per_block),
        "block_dim " << block_dim << " exceeds device limit");
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
