// Analytic GPU kernel/transfer cost model (roofline style).
//
// A kernel's modeled time is the maximum of its memory-traffic time and its
// ALU time, plus fixed launch overhead; atomics are priced separately since
// contended atomics, not bandwidth, bound the hash-table build kernel
// (§III-B3). Shared-memory traffic and SM-local atomics carry their own
// roofline terms at the much higher on-chip rates, so kernels that
// pre-aggregate in shared memory (the sketch update, the value histogram)
// see their global atomic term shrink while paying a comparatively tiny
// smem term.
// Inputs are the exact counters the simulated kernels report.
#pragma once

#include "dedukt/gpusim/device_props.hpp"
#include "dedukt/gpusim/launch.hpp"

namespace dedukt::gpusim {

class GpuCostModel {
 public:
  explicit GpuCostModel(const DeviceProps& props) : props_(props) {}

  /// Modeled execution time of a kernel with the given counters.
  [[nodiscard]] double kernel_seconds(const LaunchCounters& counters) const;

  /// Volume-proportional share of kernel_seconds (without the fixed launch
  /// overhead); scales linearly with the work counters.
  [[nodiscard]] double kernel_volume_seconds(
      const LaunchCounters& counters) const;

  /// Modeled time of a host<->device transfer of `bytes`.
  [[nodiscard]] double transfer_seconds(std::uint64_t bytes) const;

  /// Volume-proportional share of transfer_seconds (without the fixed
  /// per-transfer overhead).
  [[nodiscard]] double transfer_volume_seconds(std::uint64_t bytes) const;

 private:
  DeviceProps props_;
};

}  // namespace dedukt::gpusim
