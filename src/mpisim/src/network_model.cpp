#include "dedukt/mpisim/network_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dedukt::mpisim {

NetworkModel NetworkModel::summit() { return NetworkModel{}; }

NetworkModel NetworkModel::local() {
  NetworkModel m;
  m.latency_s = 1e-7;
  m.node_injection_bw = 100e9;  // intra-node memory-bus class transport
  m.ranks_per_node = 1;
  m.efficiency = 1.0;
  return m;
}

double NetworkModel::alltoallv_seconds(std::uint64_t max_bytes_per_rank,
                                       int nranks) const {
  if (nranks <= 1) return 0.0;
  // Pairwise-exchange alltoallv: P-1 message rounds of latency, plus the
  // busiest rank's traffic through its share of node injection bandwidth.
  const double alpha = latency_s * static_cast<double>(nranks - 1);
  return alpha + alltoallv_volume_seconds(max_bytes_per_rank, nranks);
}

double NetworkModel::alltoallv_volume_seconds(
    std::uint64_t max_bytes_per_rank, int nranks) const {
  if (nranks <= 1) return 0.0;
  return static_cast<double>(max_bytes_per_rank) / per_rank_bandwidth();
}

double NetworkModel::collective_latency_seconds(int nranks) const {
  if (nranks <= 1) return 0.0;
  const int levels = std::bit_width(static_cast<unsigned>(nranks - 1));
  return latency_s * static_cast<double>(levels);
}

double NetworkModel::overlapped_seconds(double comm_seconds,
                                        double compute_seconds) const {
  const double f = std::clamp(nonoverlap_fraction, 0.0, 1.0);
  const double exposed_floor = comm_seconds * f;
  const double hideable = comm_seconds - exposed_floor;
  return std::max(hideable, compute_seconds) + exposed_floor;
}

}  // namespace dedukt::mpisim
