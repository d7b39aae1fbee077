// ExchangePlan — the one implementation of the exchange stage.
//
// Every pipeline's exchange phase does some subset of the same four steps:
//   1. stage the outgoing payload off the device (priced D2H when
//      ExchangeMode::kStaged, free under GPUDirect),
//   2. Alltoallv, each destination's run read in place,
//   3. stage the received payload back onto the device (priced H2D when
//      staged), and
//   4. charge the phase: exact byte counts, the Alltoallv-routine time
//      alone (Fig. 8's metric), and the full exchange charge
//      (routine + staging copies + constant overhead).
// Construct one at the top of the exchange phase (it snapshots the
// communication and device ledgers), call the steps the pipeline needs —
// multi-buffer exchanges like the supermer pipeline's words+lengths simply
// call them twice — and finish with PhaseScope::commit_exchange.
//
// The payload moves rather than being copied. Every parse phase leaves its
// payload on the host as per-destination runs (the parse count launches'
// runs, or the CPU pipelines' buckets): price_stage_out prices the D2H of
// the device buffer they stand for, and the exchange reads the runs. The
// received vector becomes the device buffer (Device::adopt) in stage_in.
// A staged copy is priced by its bytes through Device::price_transfer, so
// the only copy made is the one the receive makes, the data crossing
// between ranks.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dedukt/core/phase_scope.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/mpisim/comm.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

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

  /// Step 1: price the D2H of the `bytes` device buffer the host's
  /// per-destination runs stand for, when staged; GPUDirect hands the wire
  /// the device buffer for free. The caller releases the device
  /// reservation that stood for the buffer.
  void price_stage_out(std::uint64_t bytes) {
    DEDUKT_CHECK_MSG(device_ != nullptr, "price_stage_out needs a device");
    if (staged_) {
      device_->price_transfer(gpusim::Device::Link::kToHost, bytes);
    }
  }

  /// Step 2: the Alltoallv over per-destination runs, each read in place.
  template <typename T>
  [[nodiscard]] mpisim::AlltoallvResult<T> exchange(
      const std::vector<std::vector<T>>& outgoing) {
    return comm_.alltoallv(outgoing);
  }

  /// Step 3: move a received payload onto the device (at least one slot so
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

  // --- step 4: the charges, read by PhaseScope::commit_exchange ---

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
