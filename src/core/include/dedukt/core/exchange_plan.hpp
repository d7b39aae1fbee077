// ExchangePlan — the one implementation of the exchange stage.
//
// Every pipeline's exchange phase does some subset of the same five steps:
//   1. stage the packed outgoing buffer off the device (priced D2H when
//      ExchangeMode::kStaged, free under GPUDirect),
//   2. slice it by destination from the parse stage's counts/offsets,
//   3. Alltoallv,
//   4. stage the received payload back onto the device (priced H2D when
//      staged), and
//   5. charge the phase: exact byte counts, the Alltoallv-routine time
//      alone (Fig. 8's metric), and the full exchange charge
//      (routine + staging copies + constant overhead).
// These used to be copy-pasted across four translation units with subtle
// drift; ExchangePlan owns all of them. Construct one at the top of the
// exchange phase (it snapshots the communication and device ledgers), call
// the steps the pipeline needs — multi-buffer exchanges like the supermer
// pipeline's words+lengths simply call them twice — and finish with
// PhaseScope::commit_exchange.
//
// The payload moves rather than being copied: stage_out hands the device
// buffer's storage to the host (Device::disown), the Alltoallv reads each
// destination's slice of it in place, and stage_in hands the received
// vector to the device (Device::adopt). The supermer pipeline's payload
// is already on the host, one run per destination: price_stage_out
// prices its D2H, and the per-destination exchange reads the runs. A
// staged copy is priced by its bytes through Device::price_transfer,
// exactly as the copy was, so every span, counter and charge is
// unchanged; the only copy left is the one the receive makes, the data
// crossing between ranks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dedukt/core/phase_scope.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/mpisim/comm.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

/// Exclusive prefix sum of per-destination counts; returns the total.
inline std::uint64_t exclusive_prefix(const std::vector<std::uint32_t>& counts,
                                      std::vector<std::uint64_t>& offsets) {
  offsets.resize(counts.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    offsets[i] = running;
    running += counts[i];
  }
  return running;
}

class ExchangePlan {
 public:
  /// `device` may be null for host-only pipelines (no staging steps, zero
  /// staging charge). `staged` selects priced host staging vs GPUDirect.
  ExchangePlan(mpisim::Comm& comm, gpusim::Device* device, bool staged)
      : comm_(comm), device_(device), staged_(staged), comm_capture_(comm) {
    if (device_ != nullptr) device_capture_.emplace(*device_);
  }

  ExchangePlan(const ExchangePlan&) = delete;
  ExchangePlan& operator=(const ExchangePlan&) = delete;

  /// Step 1: move `n` packed elements off the device and release the device
  /// buffer. Priced as a D2H transfer of n elements when staged; GPUDirect
  /// hands the wire the device buffer for free.
  template <typename T>
  [[nodiscard]] std::vector<T> stage_out(gpusim::DeviceBuffer<T>& buffer,
                                         std::uint64_t n) {
    DEDUKT_CHECK_MSG(n <= buffer.size(), "D2H copy larger than source buffer");
    price_stage_out(n * sizeof(T));
    std::vector<T> host = device_->disown(buffer);
    host.resize(n);
    return host;
  }

  /// Step 1 for a payload the host already holds, in per-destination runs
  /// (the supermer count launch's): price the D2H of `bytes` exactly as
  /// stage_out() prices it. The caller releases the device reservation
  /// that stood for the buffer.
  void price_stage_out(std::uint64_t bytes) {
    DEDUKT_CHECK_MSG(device_ != nullptr, "stage_out needs a device");
    if (staged_) {
      device_->price_transfer(gpusim::Device::Link::kToHost, bytes);
    }
  }

  /// Steps 2+3: run the Alltoallv over a staged buffer, each destination
  /// reading its slice (the parse stage's counts/offsets) in place.
  template <typename T>
  [[nodiscard]] mpisim::AlltoallvResult<T> exchange(
      const std::vector<T>& staged_flat,
      const std::vector<std::uint32_t>& counts,
      const std::vector<std::uint64_t>& offsets) {
    const auto parts = static_cast<std::uint32_t>(comm_.size());
    DEDUKT_CHECK(counts.size() == parts && offsets.size() == parts);
    const std::span<const T> flat(staged_flat);
    std::vector<std::span<const T>> slices(parts);
    for (std::uint32_t dest = 0; dest < parts; ++dest) {
      slices[dest] = flat.subspan(offsets[dest], counts[dest]);
    }
    return comm_.alltoallv(slices);
  }

  /// Step 3 for pipelines that bucket per destination while parsing (the
  /// CPU pipelines, source-side consolidation, the supermer count launch's
  /// runs, the out-of-core replay).
  template <typename T>
  [[nodiscard]] mpisim::AlltoallvResult<T> exchange(
      const std::vector<std::vector<T>>& outgoing) {
    return comm_.alltoallv(outgoing);
  }

  /// Step 4: move a received payload onto the device (at least one slot so
  /// kernels can take a pointer). Priced as an H2D transfer of its elements
  /// when staged. Read what the host needs from `data` first: the device
  /// takes its storage.
  template <typename T>
  [[nodiscard]] gpusim::DeviceBuffer<T> stage_in(std::vector<T>&& data) {
    DEDUKT_CHECK_MSG(device_ != nullptr, "stage_in needs a device");
    const std::uint64_t bytes = data.size() * sizeof(T);
    gpusim::DeviceBuffer<T> buffer = device_->adopt(std::move(data));
    if (staged_) {
      device_->price_transfer(gpusim::Device::Link::kToDevice, bytes);
    }
    return buffer;
  }

  // --- step 5: the charges, read by PhaseScope::commit_exchange ---

  /// Exact off-rank payload bytes this plan's collectives sent/received.
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return comm_capture_.bytes_sent();
  }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return comm_capture_.bytes_received();
  }

  /// Modeled time of the communication routines alone — no staging copies,
  /// no phase overhead (what the paper's Fig. 8 measures).
  [[nodiscard]] double alltoallv_seconds() const {
    return comm_capture_.modeled_seconds();
  }
  [[nodiscard]] double alltoallv_volume_seconds() const {
    return comm_capture_.modeled_volume_seconds();
  }

  /// Modeled time the staging copies added on the host link (zero under
  /// GPUDirect and for host-only pipelines).
  [[nodiscard]] double staging_seconds() const {
    return staged_ && device_capture_.has_value()
               ? device_capture_->modeled_seconds()
               : 0.0;
  }
  [[nodiscard]] double staging_volume_seconds() const {
    return staged_ && device_capture_.has_value()
               ? device_capture_->modeled_volume_seconds()
               : 0.0;
  }

  /// The full exchange-phase charge: routine + staging + constant overhead.
  [[nodiscard]] double charge_seconds(double overhead_seconds) const {
    return comm_capture_.modeled_seconds() + staging_seconds() +
           overhead_seconds;
  }
  [[nodiscard]] double charge_volume_seconds() const {
    return comm_capture_.modeled_volume_seconds() + staging_volume_seconds();
  }

 private:
  mpisim::Comm& comm_;
  gpusim::Device* device_;
  const bool staged_;
  mpisim::CommCapture comm_capture_;
  std::optional<gpusim::DeviceCapture> device_capture_;
};

inline void PhaseScope::commit_exchange(const ExchangePlan& plan,
                                        double overhead_seconds) {
  metrics_.bytes_sent = plan.bytes_sent();
  metrics_.bytes_received = plan.bytes_received();
  metrics_.modeled_alltoallv_seconds = plan.alltoallv_seconds();
  metrics_.modeled_alltoallv_volume_seconds = plan.alltoallv_volume_seconds();
  set_charge(plan.charge_seconds(overhead_seconds),
             plan.charge_volume_seconds());
}

}  // namespace dedukt::core
