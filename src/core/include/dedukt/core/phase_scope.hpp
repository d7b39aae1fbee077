// PhaseScope — the one way a pipeline phase charges time.
//
// Every pipeline phase used to hand-roll the same five-line epilogue: open a
// trace span, time the host wall clock into RankMetrics::measured, snapshot
// the communication and device ledgers, compute the phase's modeled seconds
// and volume share, and commit the pair to RankMetrics::modeled /
// RankMetrics::modeled_volume *and* to the span. Four pipelines times three
// phases meant ~20 near-identical blocks with room for drift. PhaseScope
// fuses all of it: construct one at the top of the phase block, attach the
// ledgers the phase touches, and state the charge once; the destructor
// commits everything in the canonical order.
//
// Bit-identity contract: for the same sequence of priced operations and the
// same charge expressions, the RankMetrics and trace output are
// bit-identical to the hand-rolled blocks this replaces (verified by
// tests/core/stage_framework_test.cpp and the golden files under
// tests/core/data/).
#pragma once

#include <algorithm>
#include <optional>

#include "dedukt/core/result.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

class PhaseScope {
 public:
  /// Host-only phase (CPU parse/count): span + measured wall time.
  PhaseScope(RankMetrics& metrics, const char* phase)
      : metrics_(metrics),
        phase_name_(phase),
        span_(trace::kCategoryPhase, phase),
        measured_(metrics.measured, phase) {}

  /// Device phase (GPU parse/count): also snapshots the device timeline so
  /// the charge can floor on the modeled kernel/transfer time.
  PhaseScope(RankMetrics& metrics, const char* phase, gpusim::Device& device)
      : PhaseScope(metrics, phase) {
    device_.emplace(device);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Commits the charge: RankMetrics::modeled / ::modeled_volume get the
  /// phase's seconds, the span is pinned to the same values, and (via the
  /// ScopedPhase member) RankMetrics::measured gets the host wall time.
  ~PhaseScope() {
    metrics_.modeled.add(phase_name_, modeled_);
    metrics_.modeled_volume.add(phase_name_, volume_);
    span_.set_modeled(modeled_, volume_);
  }

  /// The device timeline delta since the phase opened.
  [[nodiscard]] const gpusim::DeviceCapture& device() const {
    DEDUKT_CHECK_MSG(device_.has_value(), "phase has no device capture");
    return *device_;
  }

  /// State the phase's modeled seconds and volume share explicitly.
  void set_charge(double modeled_seconds, double modeled_volume_seconds) {
    modeled_ = modeled_seconds;
    volume_ = modeled_volume_seconds;
  }

  /// Charge where the volume share equals the modeled time (CPU phases:
  /// pure throughput terms scale entirely with input volume).
  void set_uniform_charge(double seconds) { set_charge(seconds, seconds); }

  /// The GPU phase charge: the calibrated throughput term floored by what
  /// the simulated device actually spent, plus a constant launch overhead
  /// (which does not scale with volume, so it is absent from the volume
  /// share).
  void set_device_floor_charge(double work_seconds, double overhead_seconds) {
    const gpusim::DeviceCapture& capture = device();
    set_charge(
        std::max(capture.modeled_seconds(), work_seconds) + overhead_seconds,
        std::max(capture.modeled_volume_seconds(), work_seconds));
  }

 private:
  RankMetrics& metrics_;
  const char* phase_name_;
  trace::ScopedSpan span_;
  ScopedPhase measured_;
  std::optional<gpusim::DeviceCapture> device_;
  double modeled_ = 0.0;
  double volume_ = 0.0;
};

}  // namespace dedukt::core
