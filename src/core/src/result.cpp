#include "dedukt/core/result.hpp"

#include <algorithm>

namespace dedukt::core {

RankMetrics CountResult::totals() const {
  RankMetrics total;
  for (const auto& r : ranks) {
    total.reads += r.reads;
    total.bases += r.bases;
    total.kmers_parsed += r.kmers_parsed;
    total.supermers_built += r.supermers_built;
    total.supermer_bases += r.supermer_bases;
    total.kmers_received += r.kmers_received;
    total.supermers_received += r.supermers_received;
    total.bytes_sent += r.bytes_sent;
    total.bytes_received += r.bytes_received;
    total.unique_kmers += r.unique_kmers;
    total.counted_kmers += r.counted_kmers;
    total.spill_bytes_written += r.spill_bytes_written;
    total.spill_bytes_read += r.spill_bytes_read;
    total.peak_resident_bytes =
        std::max(total.peak_resident_bytes, r.peak_resident_bytes);
    total.measured.merge(r.measured);
    total.modeled.merge(r.modeled);
    total.modeled_volume.merge(r.modeled_volume);
  }
  return total;
}

PhaseTimes CountResult::modeled_breakdown() const {
  PhaseTimes breakdown;
  for (const auto& r : ranks) breakdown.max_merge(r.modeled);
  return breakdown;
}

PhaseTimes CountResult::projected_breakdown(double scale) const {
  PhaseTimes breakdown;
  for (const auto& r : ranks) {
    PhaseTimes projected;
    for (const auto& [phase, total] : r.modeled.phases()) {
      const double volume = r.modeled_volume.get(phase);
      projected.add(phase, (total - volume) + volume * scale);
    }
    breakdown.max_merge(projected);
  }
  return breakdown;
}

double CountResult::projected_alltoallv_seconds(double scale) const {
  double worst = 0;
  for (const auto& r : ranks) {
    const double constant =
        r.modeled_alltoallv_seconds - r.modeled_alltoallv_volume_seconds;
    worst = std::max(worst,
                     constant + r.modeled_alltoallv_volume_seconds * scale);
  }
  return worst;
}

double CountResult::modeled_total_seconds() const {
  return modeled_breakdown().total();
}

double CountResult::load_imbalance() const {
  std::vector<std::uint64_t> loads;
  loads.reserve(ranks.size());
  for (const auto& r : ranks) loads.push_back(r.counted_kmers);
  return dedukt::load_imbalance(loads);
}

std::pair<std::uint64_t, std::uint64_t> CountResult::min_max_load() const {
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (const auto& r : ranks) {
    lo = std::min(lo, r.counted_kmers);
    hi = std::max(hi, r.counted_kmers);
  }
  if (ranks.empty()) lo = 0;
  return {lo, hi};
}

std::uint64_t CountResult::total_kmers() const {
  std::uint64_t n = 0;
  for (const auto& r : ranks) n += r.kmers_parsed;
  return n;
}

std::uint64_t CountResult::total_unique() const {
  std::uint64_t n = 0;
  for (const auto& r : ranks) n += r.unique_kmers;
  return n;
}

std::uint64_t CountResult::total_supermers() const {
  std::uint64_t n = 0;
  for (const auto& r : ranks) n += r.supermers_built;
  return n;
}

std::uint64_t CountResult::total_bytes_exchanged() const {
  std::uint64_t n = 0;
  for (const auto& r : ranks) n += r.bytes_sent;
  return n;
}

std::map<std::uint64_t, std::uint64_t> CountResult::spectrum() const {
  std::map<std::uint64_t, std::uint64_t> histogram;
  for (const auto& [key, count] : global_counts) {
    (void)key;
    histogram[count] += 1;
  }
  return histogram;
}

}  // namespace dedukt::core
