// Sequential runners for reference kernels written thread by thread or
// block by block.
//
// Every launch in src runs once on the host (gpusim::Device::launch_host)
// and charges its grid's traffic in closed form. The oracle tests keep the
// paper's per-thread and per-block kernels as references and run them
// through these runners: one launch_host whose body steps through the grid
// in the canonical block order — blocks 0..grid_dim-1, and a block's
// threads in index order — handing each thread or block a context that
// charges the launch's counters. A reference kernel's device atomics run
// uncontended, in that order. The oracle tests compare each launch with
// its reference through expect_same_launch.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dedukt/gpusim/device.hpp"

namespace dedukt::test_support {

/// Execution context of one simulated GPU thread.
class ThreadCtx : public gpusim::KernelCharges {
 public:
  ThreadCtx(std::uint32_t block_idx, std::uint32_t thread_idx,
            std::uint32_t block_dim, std::uint32_t grid_dim,
            const gpusim::KernelCharges& charges)
      : gpusim::KernelCharges(charges),
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

/// Execution context of one block of a block-cooperative kernel, which
/// steps through its threads itself (thread t handles global id
/// first_global_id() + t) and charges its per-block fixed costs in closed
/// form.
class BlockCtx : public gpusim::KernelCharges {
 public:
  BlockCtx(std::uint32_t block_idx, std::uint32_t block_dim,
           std::uint32_t grid_dim, const gpusim::KernelCharges& charges)
      : gpusim::KernelCharges(charges),
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

/// Launch `kernel(ThreadCtx&)` once per thread of a grid_dim × block_dim
/// grid, in the canonical block order.
template <typename Kernel>
gpusim::LaunchStats launch_per_thread(gpusim::Device& device,
                                      const char* name,
                                      std::uint32_t grid_dim,
                                      std::uint32_t block_dim,
                                      Kernel&& kernel) {
  return device.launch_host(
      name, grid_dim, block_dim, [&](gpusim::KernelCharges& charges) {
        for (std::uint32_t b = 0; b < grid_dim; ++b) {
          for (std::uint32_t t = 0; t < block_dim; ++t) {
            ThreadCtx ctx(b, t, block_dim, grid_dim, charges);
            kernel(ctx);
          }
        }
      });
}

/// Launch `kernel(BlockCtx&)` once per block, blocks in order, after
/// checking the block's declared shared-memory footprint `smem_bytes`
/// against the device.
template <typename Kernel>
gpusim::LaunchStats launch_per_block(gpusim::Device& device,
                                     const char* name, std::uint32_t grid_dim,
                                     std::uint32_t block_dim,
                                     std::uint64_t smem_bytes,
                                     Kernel&& kernel) {
  device.check_smem_footprint(smem_bytes);
  return device.launch_host(
      name, grid_dim, block_dim, [&](gpusim::KernelCharges& charges) {
        for (std::uint32_t b = 0; b < grid_dim; ++b) {
          BlockCtx ctx(b, block_dim, grid_dim, charges);
          kernel(ctx);
        }
      });
}

/// A device buffer holding `host`, at least one element long so that an
/// empty input still has a buffer to point at.
template <typename T>
gpusim::DeviceBuffer<T> upload(gpusim::Device& device,
                               const std::vector<T>& host) {
  auto buffer = device.alloc<T>(std::max<std::size_t>(host.size(), 1));
  device.copy_to_device<T>(host, buffer);
  return buffer;
}

/// Every LaunchCounters field and the modeled time of `launch` equal
/// those of `reference`.
inline void expect_same_launch(const gpusim::LaunchStats& launch,
                               const gpusim::LaunchStats& reference) {
  const gpusim::LaunchCounters& a = launch.counters;
  const gpusim::LaunchCounters& b = reference.counters;
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.gmem_read_bytes, b.gmem_read_bytes);
  EXPECT_EQ(a.gmem_write_bytes, b.gmem_write_bytes);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.smem_read_bytes, b.smem_read_bytes);
  EXPECT_EQ(a.smem_write_bytes, b.smem_write_bytes);
  EXPECT_EQ(a.smem_atomics, b.smem_atomics);
  EXPECT_EQ(launch.modeled_seconds, reference.modeled_seconds);
}

}  // namespace dedukt::test_support
