// Kernel launch interface of the GPU simulator.
//
// Kernels are C++ callables structured exactly like the paper's CUDA
// kernels — a grid of blocks of threads, each thread processing the
// elements its global id maps to — and execute *functionally* (results are
// bit-exact). Each thread reports its global-memory traffic and op counts
// through a counter context; the Device aggregates them into LaunchStats
// and prices the launch with the analytic cost model.
//
// Three launch forms exist (see Device):
//  - Per-thread kernels, void(ThreadCtx&), are invoked once per simulated
//    thread (Device::launch / launch_ordered).
//  - Block-cooperative kernels, void(BlockCtx&), are invoked once per
//    block (Device::launch_blocks) and step through
//    the block's threads themselves, in thread order (thread t handles
//    global id first_global_id() + t). This is the form for kernels with
//    __syncthreads()-separated sections over block __shared__ state: the
//    kernel keeps that state itself (it is block-private because a whole
//    block runs on one worker), runs each section as a loop over its
//    threads, and charges per-block fixed costs — shared-memory init,
//    strided scans — in closed form on the BlockCtx. Each launch declares
//    its per-block shared-memory footprint, which the Device checks against
//    DeviceProps::smem_bytes_per_block before any block runs.
//  - Host-evaluated kernels, void(KernelCharges&), are invoked once per
//    launch on the calling thread (Device::launch_host): the body
//    computes the grid's result by a host algorithm and charges the
//    grid's traffic in closed form. The parse launches and the hash-table
//    count launches and reductions take this form; each produces what the
//    per-thread kernel gives in the canonical block order.
//
// Blocks may execute concurrently on host worker threads, so a kernel must
// follow the same discipline as its CUDA counterpart: every write that
// another simulated block could also perform goes through std::atomic_ref
// (the simulated atomicCAS/atomicAdd/atomicOr), and nothing may depend on
// block execution order unless the launch pins it (launch_ordered).
// The LaunchCounters& a context carries is private to one contiguous block
// range — never shared across concurrent workers — and the per-range
// counters are merged deterministically after the launch joins, so every
// block's charges are a pure function of its input, independent of
// DEDUKT_SIM_THREADS.
//
// Launches accept an optional static kernel name; when tracing is enabled,
// each launch records a "kernel" span on the device track carrying the
// grid shape, memory traffic, and the modeled time the cost model priced
// it at.
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

  void merge(const LaunchCounters& other) {
    threads += other.threads;
    gmem_read_bytes += other.gmem_read_bytes;
    gmem_write_bytes += other.gmem_write_bytes;
    atomics += other.atomics;
    ops += other.ops;
    smem_read_bytes += other.smem_read_bytes;
    smem_write_bytes += other.smem_write_bytes;
    smem_atomics += other.smem_atomics;
  }
};

/// Traffic/ops accounting shared by both kernel contexts. Charges price the
/// launch and have no functional effect; they land in the executing
/// worker's block-range-private counters, so counting is race-free under
/// block-parallel execution.
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

 protected:
  LaunchCounters& counters_;
};

/// Execution context of one simulated GPU thread.
class ThreadCtx : public KernelCharges {
 public:
  ThreadCtx(std::uint32_t block_idx, std::uint32_t thread_idx,
            std::uint32_t block_dim, std::uint32_t grid_dim,
            LaunchCounters& counters)
      : KernelCharges(counters),
        block_idx_(block_idx),
        thread_idx_(thread_idx),
        block_dim_(block_dim),
        grid_dim_(grid_dim) {}

  [[nodiscard]] std::uint32_t block_idx() const { return block_idx_; }
  [[nodiscard]] std::uint32_t thread_idx() const { return thread_idx_; }
  [[nodiscard]] std::uint32_t block_dim() const { return block_dim_; }
  [[nodiscard]] std::uint32_t grid_dim() const { return grid_dim_; }

  /// blockIdx.x * blockDim.x + threadIdx.x
  [[nodiscard]] std::uint64_t global_id() const {
    return static_cast<std::uint64_t>(block_idx_) * block_dim_ + thread_idx_;
  }

  /// Total threads in the launch.
  [[nodiscard]] std::uint64_t global_size() const {
    return static_cast<std::uint64_t>(grid_dim_) * block_dim_;
  }

 private:
  std::uint32_t block_idx_;
  std::uint32_t thread_idx_;
  std::uint32_t block_dim_;
  std::uint32_t grid_dim_;
};

/// Execution context of one block of a block-cooperative launch. The
/// kernel charges its threads' per-element work and the block's
/// closed-form fixed costs alike through it.
class BlockCtx : public KernelCharges {
 public:
  BlockCtx(std::uint32_t block_idx, std::uint32_t block_dim,
           std::uint32_t grid_dim, LaunchCounters& counters)
      : KernelCharges(counters),
        block_idx_(block_idx),
        block_dim_(block_dim),
        grid_dim_(grid_dim) {}

  [[nodiscard]] std::uint32_t block_idx() const { return block_idx_; }
  [[nodiscard]] std::uint32_t block_dim() const { return block_dim_; }
  [[nodiscard]] std::uint32_t grid_dim() const { return grid_dim_; }

  /// Global id of the block's thread 0.
  [[nodiscard]] std::uint64_t first_global_id() const {
    return static_cast<std::uint64_t>(block_idx_) * block_dim_;
  }

  /// Threads of this block whose global id falls below `n` (the usual
  /// `if (i >= n) return;` guard, counted for the whole block).
  [[nodiscard]] std::uint32_t threads_below(std::uint64_t n) const {
    const std::uint64_t first = first_global_id();
    if (first >= n) return 0;
    return n - first < block_dim_ ? static_cast<std::uint32_t>(n - first)
                                  : block_dim_;
  }

 private:
  std::uint32_t block_idx_;
  std::uint32_t block_dim_;
  std::uint32_t grid_dim_;
};

/// Result of one kernel launch.
struct LaunchStats {
  LaunchCounters counters;
  double modeled_seconds = 0.0;  ///< time on the modeled device
  double wall_seconds = 0.0;     ///< host wall time of the simulation
};

}  // namespace dedukt::gpusim
