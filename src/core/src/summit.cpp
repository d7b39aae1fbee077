#include "dedukt/core/summit.hpp"

#include "dedukt/util/error.hpp"

namespace dedukt::core::summit {

mpisim::NetworkModel network(int ranks_per_node) {
  DEDUKT_REQUIRE(ranks_per_node >= 1);
  mpisim::NetworkModel m;
  m.latency_s = 5e-6;
  m.node_injection_bw = 23e9;
  m.ranks_per_node = ranks_per_node;
  m.efficiency = 0.045;
  return m;
}

gpusim::DeviceProps device() { return gpusim::DeviceProps::v100(); }

}  // namespace dedukt::core::summit
