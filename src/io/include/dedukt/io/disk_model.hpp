// Analytic disk performance model — the storage sibling of
// mpisim::NetworkModel.
//
// The out-of-core spill path moves real bytes through local scratch files
// (for correctness), but laptop SSD speed says nothing about the target
// machine. This model converts the *exact byte and operation counts* of
// spill writes and bin reloads into the time the same I/O would take on a
// Summit node's burst-buffer NVMe (one Samsung PM1725a per node, paper
// §V-A's machine). Like the network model, every charge splits into a
// volume-proportional share (bytes / bandwidth — scales when a down-scaled
// run is projected to full size) and a constant share (per-operation
// latency — does not).
#pragma once

#include <cstdint>

namespace dedukt::io {

struct DiskModel {
  /// Sequential write bandwidth, bytes/second (spill appends).
  double seq_write_bw = 2.1e9;
  /// Sequential read bandwidth, bytes/second (bin replay).
  double seq_read_bw = 5.5e9;
  /// Per-operation software + device latency, seconds (one append or one
  /// run-sized read).
  double op_latency_s = 80e-6;

  /// Summit burst-buffer defaults (the paper's machine; see
  /// docs/out-of-core.md for the calibration table).
  [[nodiscard]] static DiskModel summit_nvme();

  /// Modeled time of `ops` sequential appends totalling `bytes`.
  [[nodiscard]] double write_seconds(std::uint64_t bytes,
                                     std::uint64_t ops) const;
  /// The volume-proportional (bandwidth) part of write_seconds().
  [[nodiscard]] double write_volume_seconds(std::uint64_t bytes) const;

  /// Modeled time of `ops` sequential reads totalling `bytes`.
  [[nodiscard]] double read_seconds(std::uint64_t bytes,
                                    std::uint64_t ops) const;
  /// The volume-proportional (bandwidth) part of read_seconds().
  [[nodiscard]] double read_volume_seconds(std::uint64_t bytes) const;
};

}  // namespace dedukt::io
