// The count engine: the one driver loop behind every counting mode.
//
// In-memory, streamed, out-of-core and sketch runs are one dataflow (parse,
// exchange, count; Fig. 1) and differ only in what a rank does with each
// batch. CountEngine owns what they share:
//
//  * the simulated network and the mpisim::Runtime;
//  * the batch loop, which pulls batches one ahead from a BatchSource,
//    splits each across the ranks by bases and runs every rank on a view
//    of its share: no rank's reads are copied;
//  * the fold of each batch's ledger into the rank totals;
//  * the final gather and merge of the (key, count) pairs.
//
// It is a template over the key traits of host_hash_table.hpp:
// NarrowKeyTraits for one-word keys (k <= 31) and WideKeyTraits for
// two-word keys (31 < k <= 63). Internal to dedukt_core.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/core/host_hash_table.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core::detail {

/// Every driver-level rule, checked once per run before any rank starts:
/// the key width each entry point accepts, the rank count, and which modes
/// compose with out-of-core spilling and the sketch backend.
/// PipelineConfig::validate() keeps the rules that concern the pipeline
/// config alone. Defined in driver.cpp.
void validate_run(const DriverOptions& options, bool wide_keys);

/// Wire layout of one gathered (key, count) pair.
template <typename Key>
struct KeyCount {
  Key key;
  std::uint64_t count;
};

/// Merge gathered (key, count) runs, each sorted by key, into one list
/// sorted by key, in one pass that sums duplicate keys. The exact
/// pipelines route every occurrence of a k-mer to one rank for the whole
/// job, so their runs are disjoint; duplicates come only from the
/// sketch's heavy-hitter candidates, where each rank counts its own reads.
template <typename Key>
std::vector<std::pair<Key, std::uint64_t>> merge_gathered_counts(
    const std::vector<std::vector<KeyCount<Key>>>& runs) {
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();
  std::vector<std::pair<Key, std::uint64_t>> counts;
  counts.reserve(total);

  // Heap of each run's next unmerged entry, smallest key on top. Each head
  // carries its entry's key, so a comparison reads no run.
  struct Head {
    Key key;
    std::size_t run;
    std::size_t index;
  };
  const auto later = [](const Head& a, const Head& b) { return b.key < a.key; };
  std::vector<Head> heads;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    if (!runs[run].empty()) heads.push_back({runs[run][0].key, run, 0});
  }
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head& head = heads.back();
    const std::uint64_t count = runs[head.run][head.index].count;
    if (!counts.empty() && counts.back().first == head.key) {
      counts.back().second += count;
    } else {
      counts.emplace_back(head.key, count);
    }
    if (++head.index < runs[head.run].size()) {
      head.key = runs[head.run][head.index].key;
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
  return counts;
}

/// The batch loop's input: slices of the caller's batch, or the batches a
/// stream decodes.
///
/// An in-memory run (run_distributed_count over a ReadBatch) cuts the
/// caller's batch in place by io::BatchBounds::slice — the rule the
/// streams close their batches by — so its batches are views of reads the
/// caller keeps alive for the whole run; unbounded, the one batch is all of
/// it. A streamed run moves each batch out of ReadBatchStream::next(), and
/// the Batch owns it: the loop keeps a streamed batch only while it is the
/// current batch or the lookahead, so a view of it must not outlive its
/// round.
class BatchSource {
 public:
  /// One batch: a slice of the caller's reads, or a streamed batch.
  struct Batch {
    io::ReadView slice;   ///< in-memory runs
    io::ReadBatch owned;  ///< streamed runs
    [[nodiscard]] io::ReadView reads() const {
      return owned.empty() ? slice : io::ReadView(owned);
    }
  };

  BatchSource(const io::ReadBatch& reads, io::BatchBounds bounds)
      : reads_(&reads), bounds_(bounds) {}
  explicit BatchSource(io::ReadBatchStream& stream) : stream_(&stream) {}

  /// The next non-empty batch; nullopt once the input is exhausted.
  [[nodiscard]] std::optional<Batch> next() {
    if (stream_ != nullptr) {
      std::optional<io::ReadBatch> pulled = stream_->next();
      if (!pulled) return std::nullopt;
      return Batch{{}, std::move(*pulled)};
    }
    if (cursor_ >= reads_->size()) return std::nullopt;
    const io::ReadView slice = bounds_.slice(*reads_, cursor_);
    cursor_ += slice.size();
    return Batch{slice, {}};
  }

 private:
  const io::ReadBatch* reads_ = nullptr;
  io::BatchBounds bounds_;
  std::size_t cursor_ = 0;
  io::ReadBatchStream* stream_ = nullptr;
};

/// Where a batch sits in its stream.
struct BatchInfo {
  std::uint64_t index = 0;
  bool last = false;

  /// The whole input came as one batch: the historical in-memory run,
  /// which reports no peak footprint.
  [[nodiscard]] bool single() const { return index == 0 && last; }
};

template <typename KeyTraits>
class CountEngine {
 public:
  using Key = typename KeyTraits::Key;
  using Table = BasicHostHashTable<KeyTraits>;
  using Counts = std::vector<std::pair<Key, std::uint64_t>>;

  /// Checks the run's rules, then sets up `result` (config, rank count and
  /// one ledger per rank) and the simulated network.
  CountEngine(const DriverOptions& options, CountResult& result)
      : options_(validated(options)),
        result_(result),
        runtime_(options.nranks,
                 summit::network(options.effective_ranks_per_node())) {
    result.config = options.pipeline;
    result.nranks = options.nranks;
    result.ranks.resize(nranks());
  }

  CountEngine(const CountEngine&) = delete;
  CountEngine& operator=(const CountEngine&) = delete;

  [[nodiscard]] const DriverOptions& options() const { return options_; }
  [[nodiscard]] CountResult& result() { return result_; }
  [[nodiscard]] std::size_t nranks() const {
    return static_cast<std::size_t>(options_.nranks);
  }

  /// The batch loop: the run's only split of its input, so each batch is
  /// one §III-A round. Pulls `source` one batch ahead (an empty input is
  /// one empty batch), splits each batch across the ranks by bases, and
  /// runs `RankMetrics run_rank(Comm&, io::ReadView mine, const
  /// BatchInfo&)` on every rank inside an app span named `span_name`; `mine`
  /// views the rank's share of the batch and lives as long as the round.
  /// The returned ledger folds into the rank's total: the first batch
  /// assigns it, later batches add to it, and the table-derived fields take
  /// the latest batch's values. After the last batch's fold, `finish(Comm&,
  /// const BatchInfo&)` runs in the same span; that is where the gather
  /// goes. A Bloom-filtered run whose input yields a second batch throws
  /// PreconditionError before any rank parses.
  template <typename RunRank, typename Finish>
  void run_batches(BatchSource& source, const char* span_name,
                   RunRank&& run_rank, Finish&& finish) {
    std::optional<BatchSource::Batch> batch = source.next();
    if (!batch) batch.emplace();
    BatchInfo info;
    while (batch) {
      // Pulled before the run so the loop knows which batch is the last.
      std::optional<BatchSource::Batch> following = source.next();
      info.last = !following;
      // The Bloom filter lives in one count phase, so it cannot span
      // rounds; the lookahead knows at batch 0 whether there is a second.
      DEDUKT_REQUIRE_MSG(info.last || !options_.pipeline.filter_singletons,
                         "the Bloom pre-filter (--filter-singletons) needs "
                         "the whole input in one batch, and this input "
                         "yields a second; raise or drop "
                         "--batch-reads/--batch-bytes");
      const std::vector<io::ReadView> parts =
          io::partition_by_bases(batch->reads(), options_.nranks);

      runtime_.run([&](mpisim::Comm& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        const io::ReadView mine = parts[rank];
        // Top-level app span: everything this rank does for the batch.
        trace::ScopedSpan rank_span(trace::kCategoryApp, span_name);
        if (rank_span.active()) {
          rank_span.arg_u64("reads", mine.size());
          rank_span.arg_u64("bases", mine.total_bases());
        }

        const RankMetrics metrics = run_rank(comm, mine, info);
        RankMetrics& total = result_.ranks[rank];
        if (info.index == 0) {
          total = metrics;
        } else {
          accumulate_round(total, metrics);
          total.unique_kmers = metrics.unique_kmers;
          total.counted_kmers = metrics.counted_kmers;
        }
        if (info.last) finish(comm, info);
      });
      batch = std::move(following);
      ++info.index;
    }
  }

  /// Run `fn(Comm&)` once on every rank inside an app span named
  /// `span_name` (the out-of-core replay pass).
  template <typename Fn>
  void run(const char* span_name, Fn&& fn) {
    runtime_.run([&](mpisim::Comm& comm) {
      trace::ScopedSpan rank_span(trace::kCategoryApp, span_name);
      fn(comm);
    });
  }

  /// Collective: send `table`'s (key, count) pairs to rank 0, sorted by
  /// key, so the ranks sort in parallel and rank 0 only merges. Called
  /// inside a rank span, so the sort and the gatherv count toward the
  /// rank's core layer.
  void gather(mpisim::Comm& comm, const Table& table) {
    std::vector<KeyCount<Key>> entries;
    entries.reserve(table.unique());
    table.for_each([&](const Key& key, std::uint64_t count) {
      entries.push_back({key, count});
    });
    std::sort(entries.begin(), entries.end(),
              [](const KeyCount<Key>& a, const KeyCount<Key>& b) {
                return a.key < b.key;
              });
    auto all = comm.gatherv(entries, /*root=*/0);
    if (comm.rank() == 0) gathered_ = std::move(all);
  }

  /// Every gathered pair, sorted by key with duplicates summed; empty when
  /// nothing was gathered.
  [[nodiscard]] Counts gathered_counts() const {
    return merge_gathered_counts(gathered_);
  }

 private:
  static const DriverOptions& validated(const DriverOptions& options) {
    validate_run(options, std::is_same_v<KeyTraits, WideKeyTraits>);
    return options;
  }

  const DriverOptions& options_;
  CountResult& result_;
  mpisim::Runtime runtime_;
  /// Written only by rank 0 inside a run; read after the run returns.
  std::vector<std::vector<KeyCount<Key>>> gathered_;
};

/// The out-of-core two-pass count (options.ooc.enabled()), defined in
/// ooc.cpp for both key traits. Gathers the tables when
/// options.collect_counts is set.
template <typename KeyTraits>
void count_out_of_core(CountEngine<KeyTraits>& engine, BatchSource& source);

/// Sketch-backend driver (pipeline.sketch), defined in sketch_pipeline.cpp:
/// each rank sketches its own parsed k-mer stream into a count-min sketch —
/// no k-mers cross the wire — and the per-rank cell arrays merge with one
/// cell-wise-sum allreduce_vector after the last batch, charged to the
/// exchange phase. With heavy_threshold > 0 a second pass re-scans the
/// input (a single batch in place; of a streamed run, each rank retains a
/// copy of its reads for it) and keeps exact counts for candidates whose
/// global estimate reaches the threshold.
/// run_distributed_count dispatches here.
[[nodiscard]] CountResult run_sketch_count(BatchSource& source,
                                           const DriverOptions& options);

}  // namespace dedukt::core::detail
