// Block-local shared-memory aggregation for the count-min sketch's vanilla
// update kernel (DeviceCountMinSketch::update).
//
// Each block first funnels its keys, in thread order, through a small
// open-addressing table in block shared memory (CAS-claim / add on shared
// slots); a key that cannot be placed within the probe bound falls through
// to the kernel's per-occurrence global path. After the block barrier the
// threads cooperatively scan the shared slots and commit each distinct
// key's block-local count with one global update. Global atomics drop by
// the within-block duplication factor.
//
// The launch walks its blocks one after another through one table: the
// flush clears every slot it commits, so each block starts from an empty
// table without re-initialising it. The fixed per-block costs — the
// cooperative init and the flush scan — are charged in closed form; only
// probes and commits are charged per occurrence. See
// docs/performance-model.md ("Shared memory").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dedukt/gpusim/launch.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/kmer.hpp"

namespace dedukt::core {

/// Shared-table size: 1024 slots of 12 bytes (key + count), 12 KB of the
/// 96 KB V100 budget. Each thread adds one key.
inline constexpr std::size_t kSmemSlots = 1024;
inline constexpr std::uint64_t kSmemSlotBytes = 12;

/// Bounded probing in the shared table: past this, the occurrence
/// overflows to the global path instead of evicting (keeps the shared
/// table lossless and the walk short).
inline constexpr std::size_t kSmemProbeLimit = 16;

class BlockAggregator {
 public:
  /// Shared-memory footprint a launch declares for the table.
  static constexpr std::uint64_t kFootprint = kSmemSlots * kSmemSlotBytes;

  /// An empty table whose probe sequence starts at hash_u64(key, seed).
  explicit BlockAggregator(std::uint64_t seed)
      : keys_(kSmemSlots, kmer::kInvalidCode),
        counts_(kSmemSlots, 0u),
        seed_(seed) {}

  /// Charge the cooperative init of a block of `block_dim` threads in
  /// closed form, at the block's start: every one of its threads clears
  /// ⌈kSmemSlots/block_dim⌉ slots of 12 bytes, whether or not it has
  /// input. The table itself is already empty (see flush).
  static void begin_block(gpusim::KernelCharges& charges,
                          std::uint32_t block_dim) {
    const std::uint64_t per_thread = (kSmemSlots + block_dim - 1) / block_dim;
    charges.count_smem_write(std::uint64_t{block_dim} * per_thread *
                             kSmemSlotBytes);
  }

  /// Aggregate one occurrence, charging its shared-memory probes and
  /// atomics. Returns false when the probe bound is hit (the caller falls
  /// through to its global path).
  bool add(gpusim::KernelCharges& charges, std::uint64_t key) {
    constexpr std::size_t mask = kSmemSlots - 1;
    std::size_t slot = hash::hash_u64(key, seed_) & mask;
    for (std::size_t probes = 1; probes <= kSmemProbeLimit; ++probes) {
      charges.count_smem_read(sizeof(std::uint64_t));
      if (keys_[slot] == kmer::kInvalidCode) {
        keys_[slot] = key;  // shared-memory atomicCAS claim
        counts_[slot] = 1;
        ++occupied_;
        charges.count_smem_atomic(2);
        charges.count_ops(4);
        return true;
      }
      if (keys_[slot] == key) {
        counts_[slot] += 1;  // shared-memory atomicAdd
        charges.count_smem_atomic(1);
        charges.count_ops(2);
        return true;
      }
      slot = (slot + 1) & mask;
    }
    return false;
  }

  /// Commit every occupied slot as commit(key, block_count), clearing each
  /// slot first. Commits are commutative global adds, so the slot order
  /// the host visits gives what any thread-stride scan order gives.
  /// Charges the scan in closed form: every slot is read once, 12 bytes.
  template <typename Commit>
  void flush(gpusim::KernelCharges& charges, Commit&& commit) {
    charges.count_smem_read(kSmemSlots * kSmemSlotBytes);
    for (std::size_t slot = 0; slot < kSmemSlots && occupied_ != 0; ++slot) {
      const std::uint64_t key = keys_[slot];
      if (key == kmer::kInvalidCode) continue;
      keys_[slot] = kmer::kInvalidCode;
      --occupied_;
      commit(key, counts_[slot]);
    }
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> counts_;
  std::uint64_t seed_;
  std::size_t occupied_ = 0;  ///< slots holding a key
};

}  // namespace dedukt::core
