// Batched query engine over an opened KmerStore — the serving half of the
// subsystem (khmer's online-query model: cheap point/membership queries
// against a finished counting run).
//
// Dataflow per batch: route every key to its shard with the store's own
// routing, group the batch by shard, and for each touched shard (ascending
// id — a deterministic order) ensure the shard is device-resident, stage
// the shard's slice of the batch H2D, run the priced binary-search kernel
// (gpusim/lookup.hpp), and copy the results D2H back into batch order.
//
// Residency is the modeled cost lever: a shard miss pays an H2D transfer
// of the whole shard (keys + counts + prefix index) at host-link bandwidth
// through the same Device::copy_to_device charge every pipeline pays, and
// an LRU cache of `cache_shards` hot shards turns Zipf-skewed traffic into
// NVLink-class reuse. cache_shards == 0 disables caching: every touched
// shard is staged, used, and freed within the batch. The LRU clock is a
// logical touch counter — deterministic, and per-shard charges depend only
// on the query stream, so stats and modeled times are bit-identical from
// run to run.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "dedukt/gpusim/device.hpp"
#include "dedukt/gpusim/device_buffer.hpp"
#include "dedukt/gpusim/lookup.hpp"
#include "dedukt/store/store.hpp"

namespace dedukt::store {

struct QueryEngineConfig {
  /// Hot shards kept device-resident between batches; 0 = no cache.
  std::uint32_t cache_shards = 0;
  /// Histogram bins: bin i counts keys with count == i for i < bins-1,
  /// the last bin collects every count >= bins-1.
  std::uint32_t histogram_bins = 256;
  /// Frequency-aware admission: a miss whose shard has been touched fewer
  /// times (all-time) than every resident shard is staged transiently and
  /// released after use instead of evicting a hotter shard. Protects a hot
  /// working set from one-off scans (e.g. a full-store histogram) that
  /// plain LRU lets flush the cache. Off by default: pure LRU.
  bool freq_admission = false;
};

/// Cumulative accounting across an engine's lifetime. All counters are
/// exact and deterministic; the seconds are modeled device time.
struct QueryStats {
  std::uint64_t batches = 0;
  std::uint64_t queries = 0;
  std::uint64_t found = 0;        ///< point lookups that hit a stored key
  std::uint64_t cache_hits = 0;   ///< shard touches served by a resident shard
  std::uint64_t cache_misses = 0; ///< shard touches that had to stage
  std::uint64_t evictions = 0;    ///< LRU evictions (cached mode only)
  std::uint64_t staged_bytes = 0; ///< H2D bytes spent staging shards
  double modeled_seconds = 0.0;   ///< total modeled device time
  double transfer_seconds = 0.0;  ///< H2D/D2H share of modeled_seconds
  /// Misses staged transiently by frequency-aware admission instead of
  /// evicting a hotter resident shard (freq_admission mode only).
  std::uint64_t admission_bypasses = 0;
  /// Duplicate keys removed by per-batch dedup before staging/probing.
  /// The kernels only ever see queries - dedup_saved probes; answers are
  /// fanned back out to every duplicate position.
  std::uint64_t dedup_saved = 0;
};

class QueryEngine {
 public:
  QueryEngine(const KmerStore& store, gpusim::Device& device,
              QueryEngineConfig config = {});

  /// Batched point lookup: out[i] = stored count of keys[i], 0 if absent.
  [[nodiscard]] std::vector<std::uint64_t> lookup(
      std::span<const std::uint64_t> keys);

  /// Batched membership: out[i] = 1 if keys[i] is stored, else 0.
  [[nodiscard]] std::vector<std::uint8_t> contains(
      std::span<const std::uint64_t> keys);

  /// Count histogram over the whole store (every shard's counts), capped
  /// at config.histogram_bins — the serving-side k-mer spectrum.
  [[nodiscard]] std::vector<std::uint64_t> histogram();

  /// Histogram restricted to the given shards (ascending, no duplicates).
  /// The distributed tier's per-rank partial: summing the partials of a
  /// shard partition bit-reproduces histogram() (u64 adds commute).
  [[nodiscard]] std::vector<std::uint64_t> histogram_shards(
      std::span<const std::uint32_t> shard_ids);

  /// Per-batch dedup plan: the distinct keys in first-occurrence order
  /// plus, for every original position, the index of its distinct key —
  /// the fan-out map that turns per-distinct answers back into per-query
  /// answers. Zipf traffic is duplicate-heavy, so probing each distinct
  /// key once is strictly fewer staged query bytes and kernel probes.
  /// Public so the distributed tier's frontend ranks run the identical
  /// dedup before routing (fewer routed bytes, same fan-out map).
  struct BatchPlan {
    std::vector<std::uint64_t> unique_keys;
    std::vector<std::size_t> dup_of;  ///< original position -> unique index
  };
  [[nodiscard]] static BatchPlan dedupe_batch(
      std::span<const std::uint64_t> keys);

  [[nodiscard]] const QueryStats& stats() const { return stats_; }
  /// Modeled device seconds of the most recent lookup/contains batch.
  [[nodiscard]] double last_batch_seconds() const {
    return last_batch_seconds_;
  }
  [[nodiscard]] std::uint32_t resident_shards() const {
    return static_cast<std::uint32_t>(resident_.size());
  }

 private:
  struct ResidentShard {
    gpusim::DeviceBuffer<std::uint64_t> keys;
    gpusim::DeviceBuffer<std::uint64_t> counts;
    gpusim::DeviceBuffer<std::uint64_t> index;
    std::uint64_t last_touch = 0;
    /// Staged past a full cache by the admission policy; released after
    /// the batch that staged it, never a member of the durable set.
    bool transient = false;
  };

  ResidentShard& ensure_resident(std::uint32_t shard);
  void release(std::uint32_t shard);
  void evict_lru();
  [[nodiscard]] gpusim::SortedTableView table_view(
      const ResidentShard& resident, const ShardFile& shard) const;

  /// Shared drive for lookup/contains: group the plan's distinct keys by
  /// shard, stage, launch. `launch` sees positions into the deduped key
  /// array; callers fan results out through plan.dup_of afterwards.
  /// `original_queries` is the pre-dedup batch size, for the ledgers.
  template <typename Launch>
  void run_batch(const BatchPlan& plan, std::size_t original_queries,
                 Launch&& launch);

  const KmerStore& store_;
  gpusim::Device& device_;
  QueryEngineConfig config_;
  QueryStats stats_;
  double last_batch_seconds_ = 0.0;
  std::uint64_t touch_clock_ = 0;
  /// shard id -> resident buffers; std::map so iteration (and therefore
  /// eviction tie-breaks) is ordered and deterministic.
  std::map<std::uint32_t, ResidentShard> resident_;
  /// shard id -> all-time touch count; the admission policy's frequency
  /// signal. Deterministic (a pure function of the query stream).
  std::map<std::uint32_t, std::uint64_t> touch_counts_;
};

}  // namespace dedukt::store
