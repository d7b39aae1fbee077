// Kernel launch interface of the GPU simulator.
//
// A kernel is priced, not scheduled: Device::launch_host runs the
// launch's body once, on the calling (rank) thread, and the body computes
// the whole grid's result with a host algorithm and states the grid's
// traffic in closed form through a KernelCharges. Each body produces the
// result and the charges of the paper's CUDA kernel — a grid of blocks of
// threads, each thread processing the elements its global id maps to — run
// in the canonical block order: threads in index order, blocks one after
// another. Kernels with block __shared__ state (the value histogram, the
// sketch update's aggregation) walk their input block by block and keep
// one table for the launch; they declare their per-block shared-memory
// footprint, which Device::check_smem_footprint checks against
// DeviceProps::smem_bytes_per_block before anything runs. The Device
// prices the counters with the analytic cost model.
//
// Launches carry a static kernel name; when tracing is enabled, each
// launch records a "kernel" span on the device track carrying the grid
// shape, memory traffic, and the modeled time the cost model priced it at.
#pragma once

#include <cstdint>

namespace dedukt::gpusim {

/// Per-launch work and traffic counters (summed over all threads).
struct LaunchCounters {
  std::uint64_t threads = 0;
  std::uint64_t gmem_read_bytes = 0;
  std::uint64_t gmem_write_bytes = 0;
  std::uint64_t atomics = 0;
  std::uint64_t ops = 0;  ///< integer/ALU operations
  // Shared-memory traffic (block-scoped __shared__ state). Separate from
  // the global counters because the cost model prices it at SM-local
  // bandwidth/atomic rates, one to two orders cheaper than HBM/global
  // atomics (§III-B3's motivation for on-chip aggregation).
  std::uint64_t smem_read_bytes = 0;
  std::uint64_t smem_write_bytes = 0;
  std::uint64_t smem_atomics = 0;
};

/// Traffic/ops accounting of one launch. Charges price the launch and have
/// no functional effect. A copy charges the same counters.
class KernelCharges {
 public:
  explicit KernelCharges(LaunchCounters& counters) : counters_(counters) {}

  void count_gmem_read(std::uint64_t bytes) {
    counters_.gmem_read_bytes += bytes;
  }
  void count_gmem_write(std::uint64_t bytes) {
    counters_.gmem_write_bytes += bytes;
  }
  void count_atomic(std::uint64_t n = 1) { counters_.atomics += n; }
  void count_ops(std::uint64_t n) { counters_.ops += n; }
  void count_smem_read(std::uint64_t bytes) {
    counters_.smem_read_bytes += bytes;
  }
  void count_smem_write(std::uint64_t bytes) {
    counters_.smem_write_bytes += bytes;
  }
  void count_smem_atomic(std::uint64_t n = 1) { counters_.smem_atomics += n; }

 private:
  LaunchCounters& counters_;
};

/// Result of one kernel launch.
struct LaunchStats {
  LaunchCounters counters;
  double modeled_seconds = 0.0;  ///< time on the modeled device
  double wall_seconds = 0.0;     ///< host wall time of the simulation
};

}  // namespace dedukt::gpusim
