#include "dedukt/trace/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "dedukt/trace/recorder.hpp"

namespace dedukt::trace {

PhaseTimes MetricsReport::modeled_breakdown() const {
  PhaseTimes breakdown;
  for (const auto& r : ranks) {
    PhaseTimes rank_times;
    for (const auto& [name, phase] : r.phases) {
      rank_times.add(name, phase.modeled_seconds);
    }
    breakdown.max_merge(rank_times);
  }
  return breakdown;
}

PhaseTimes MetricsReport::measured_breakdown() const {
  PhaseTimes breakdown;
  for (const auto& r : ranks) {
    PhaseTimes rank_times;
    for (const auto& [name, phase] : r.phases) {
      rank_times.add(name, phase.wall_seconds);
    }
    breakdown.max_merge(rank_times);
  }
  return breakdown;
}

double MetricsReport::modeled_total_seconds() const {
  return modeled_breakdown().total();
}

namespace {

void append_phase(std::ostringstream& out, const PhaseMetrics& phase,
                  bool include_wall) {
  out << "{\"modeled_seconds\":" << json_number(phase.modeled_seconds)
      << ",\"modeled_volume_seconds\":"
      << json_number(phase.modeled_volume_seconds);
  out << ",\"spans\":" << phase.spans;
  if (include_wall) {
    out << ",\"wall_seconds\":" << json_number(phase.wall_seconds);
  }
  out << "}";
}

void append_kernel(std::ostringstream& out, const KernelMetrics& kernel,
                   bool include_wall) {
  out << "{\"launches\":" << kernel.launches
      << ",\"modeled_seconds\":" << json_number(kernel.modeled_seconds);
  // Gated on nonzero: kernels without shared-memory traffic render exactly
  // as before, keeping existing goldens/traces byte-identical.
  if (kernel.smem_read_bytes != 0 || kernel.smem_write_bytes != 0 ||
      kernel.smem_atomics != 0) {
    out << ",\"smem_read_bytes\":" << kernel.smem_read_bytes
        << ",\"smem_write_bytes\":" << kernel.smem_write_bytes
        << ",\"smem_atomics\":" << kernel.smem_atomics;
  }
  if (include_wall) {
    out << ",\"wall_seconds\":" << json_number(kernel.wall_seconds);
  }
  out << "}";
}

void append_phase_times(std::ostringstream& out, const PhaseTimes& times) {
  out << "{";
  bool first = true;
  for (const auto& [name, seconds] : times.phases()) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":" << json_number(seconds);
  }
  out << "}";
}

}  // namespace

std::string MetricsReport::to_json(bool include_wall) const {
  std::ostringstream out;
  out << "{\n\"ranks\":[";
  bool first_rank = true;
  for (const auto& r : ranks) {
    if (!first_rank) out << ",";
    first_rank = false;
    out << "\n {\"rank\":" << r.rank << ",\"total_spans\":" << r.total_spans;

    out << ",\"phases\":{";
    bool first = true;
    for (const auto& [name, phase] : r.phases) {
      if (!first) out << ",";
      first = false;
      out << json_quote(name) << ":";
      append_phase(out, phase, include_wall);
    }
    out << "}";

    out << ",\"kernels\":{";
    first = true;
    for (const auto& [name, kernel] : r.kernels) {
      if (!first) out << ",";
      first = false;
      out << json_quote(name) << ":";
      append_kernel(out, kernel, include_wall);
    }
    out << "}";

    out << ",\"counters\":{";
    first = true;
    for (const auto& [name, value] : r.counters) {
      if (!first) out << ",";
      first = false;
      out << json_quote(name) << ":" << value;
    }
    out << "}}";
  }
  out << "\n],\n\"modeled_breakdown\":";
  append_phase_times(out, modeled_breakdown());
  if (include_wall) {
    out << ",\n\"measured_breakdown\":";
    append_phase_times(out, measured_breakdown());
  }
  out << ",\n\"modeled_total_seconds\":" << json_number(modeled_total_seconds());
  out << "\n}\n";
  return out.str();
}

}  // namespace dedukt::trace
