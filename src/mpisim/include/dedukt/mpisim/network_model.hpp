// Analytic network performance model.
//
// mpisim moves real bytes between ranks (for correctness) but runs on one
// host, so measured wall time says nothing about a cluster. This α–β model
// converts the *exact byte counts* of each collective into the time the same
// exchange would take on a target machine. The default parameters describe
// Summit (paper §V-A): dual-rail EDR InfiniBand fat tree with ~23 GB/s
// injection bandwidth per node, shared by the 6 GPU-driving ranks per node.
#pragma once

#include <cstdint>

namespace dedukt::mpisim {

struct NetworkModel {
  /// Per-message software+switch latency (α), seconds.
  double latency_s = 5e-6;
  /// Injection bandwidth per *node*, bytes/second.
  double node_injection_bw = 23e9;
  /// MPI ranks sharing one node's injection bandwidth.
  int ranks_per_node = 6;
  /// Effective fraction of peak bandwidth achieved by large alltoallv
  /// exchanges (protocol + congestion efficiency on a fat tree).
  double efficiency = 0.85;
  /// Fraction of an exchange's modeled time that cannot be hidden behind
  /// concurrently running compute: sender-side packing, MPI progression and
  /// completion handling stay on the critical path even with a fully
  /// asynchronous transport. Only the serving tier's pipelined batches
  /// (--overlap-batches) overlap an exchange with compute.
  double nonoverlap_fraction = 0.25;

  /// Summit-node defaults (the paper's machine).
  [[nodiscard]] static NetworkModel summit();

  /// A single-node shared-memory "network" — effectively free transport,
  /// used when modeling is irrelevant.
  [[nodiscard]] static NetworkModel local();

  /// Effective bandwidth available to a single rank, bytes/second.
  [[nodiscard]] double per_rank_bandwidth() const {
    return node_injection_bw * efficiency / ranks_per_node;
  }

  /// Modeled time of a personalized all-to-all where the busiest rank
  /// sends/receives `max_bytes_per_rank` off-node bytes, across `nranks`.
  [[nodiscard]] double alltoallv_seconds(std::uint64_t max_bytes_per_rank,
                                         int nranks) const;

  /// The volume-proportional (bandwidth, β) part of alltoallv_seconds().
  /// Separated out so callers projecting a down-scaled run to full size can
  /// rescale only this term (latency does not grow with data volume).
  [[nodiscard]] double alltoallv_volume_seconds(
      std::uint64_t max_bytes_per_rank, int nranks) const;

  /// Modeled time of a latency-bound collective (barrier/small allreduce).
  [[nodiscard]] double collective_latency_seconds(int nranks) const;

  /// Modeled time of one overlapped (exchange, compute) pair: the hideable
  /// share of the communication runs concurrently with the compute — max
  /// instead of sum — while the non-overlappable share serializes on top:
  ///   max(comm * (1 - f), compute) + comm * f,   f = nonoverlap_fraction.
  /// With f = 1 (or compute = 0) this degenerates to comm + compute, the
  /// lockstep sum.
  [[nodiscard]] double overlapped_seconds(double comm_seconds,
                                          double compute_seconds) const;
};

}  // namespace dedukt::mpisim
