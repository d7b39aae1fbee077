// Priced device lookup kernels over sorted key arrays.
//
// The serving store (src/store) keeps each shard as a sorted (key, value)
// pair of device-resident arrays plus a fixed-fanout prefix index: bucket b
// covers the keys whose top index bits equal b, and offsets[b]..offsets[b+1]
// bound the bucket's slice of the sorted array. These kernels are the query
// side of that layout — one thread per query, a two-read index probe
// followed by a binary search of the bucket slice — and report exact
// per-probe traffic so the roofline model prices a batch the way it prices
// the counting kernels.
//
// Each runs as one host-evaluated launch (Device::launch_host) that walks
// its input in index order and charges the per-thread kernel's traffic in
// closed form. The two searches are read-only on the table arrays and
// write only their own out[i]; the histogram aggregates block by block in
// shared memory first and commits per-bin totals with global atomic adds.
#pragma once

#include <cstdint>

#include "dedukt/gpusim/device.hpp"
#include "dedukt/gpusim/device_buffer.hpp"

namespace dedukt::gpusim {

/// A sorted u64 table with a prefix index, all device-resident.
/// `offsets` holds fanout+1 entry indices: bucket b (the top index bits of
/// a key, i.e. key >> prefix_shift) spans [offsets[b], offsets[b+1]).
struct SortedTableView {
  const DeviceBuffer<std::uint64_t>* keys = nullptr;
  const DeviceBuffer<std::uint64_t>* values = nullptr;
  const DeviceBuffer<std::uint64_t>* offsets = nullptr;
  std::size_t entries = 0;
  std::uint32_t fanout = 1;  ///< offsets->size() - 1
  int prefix_shift = 0;      ///< bucket = key >> prefix_shift
};

/// Point lookup: out_values[i] = value of queries[i], or 0 when absent.
/// Kernel "lookup_bsearch"; per query: the index probe reads two offsets
/// (16 B), each binary-search step reads one key slot (8 B), a hit reads
/// its value (8 B); the result write is 8 B.
LaunchStats lookup_sorted(Device& device, const SortedTableView& table,
                          const DeviceBuffer<std::uint64_t>& queries,
                          std::size_t n,
                          DeviceBuffer<std::uint64_t>& out_values);

/// Membership probe: out_member[i] = 1 if queries[i] is present, else 0.
/// Kernel "member_bsearch"; identical search charges to lookup_sorted but
/// no value read and a 1 B result write.
LaunchStats member_sorted(Device& device, const SortedTableView& table,
                          const DeviceBuffer<std::uint64_t>& queries,
                          std::size_t n,
                          DeviceBuffer<std::uint8_t>& out_member);

/// Capped value histogram: out_bins[min(values[i], nbins-1)] += 1 for every
/// stored entry. Two-level: each block's values are binned in shared
/// memory, then its nonzero bins are flushed with one global atomic add
/// apiece. Kernel "value_histogram".
/// `out_bins` must hold nbins zero-initialized slots; nbins × 4 bytes of
/// bins must fit the device's per-block shared memory (SimulationError
/// otherwise).
LaunchStats value_histogram(Device& device,
                            const DeviceBuffer<std::uint64_t>& values,
                            std::size_t n, std::size_t nbins,
                            DeviceBuffer<std::uint64_t>& out_bins);

}  // namespace dedukt::gpusim
