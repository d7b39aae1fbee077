#include "dedukt/store/distributed_query.hpp"

#include <algorithm>
#include <utility>

#include "dedukt/mpisim/comm.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::store {

namespace {

/// One answered query on the wire: the echoed key lets the frontend check
/// the positional match, the count is the payload. 16 bytes per answer.
struct KeyAnswer {
  std::uint64_t key;
  std::uint64_t count;
};
static_assert(std::is_trivially_copyable_v<KeyAnswer>);

/// Frontend slice of rank r: batches are split contiguously so every key
/// position belongs to exactly one frontend rank.
struct Slice {
  std::size_t begin;
  std::size_t end;
};

Slice slice_of(int rank, int ranks, std::size_t n) {
  const auto r = static_cast<std::size_t>(rank);
  const auto p = static_cast<std::size_t>(ranks);
  return Slice{n * r / p, n * (r + 1) / p};
}

}  // namespace

DistributedQueryEngine::DistributedQueryEngine(const KmerStore& store,
                                               DistributedQueryConfig config)
    : store_(store),
      config_(config),
      runtime_(config.ranks, config.network) {
  DEDUKT_REQUIRE_MSG(config_.ranks >= 1,
                     "distributed tier needs at least one rank");
  QueryEngineConfig engine_config;
  engine_config.cache_shards = config_.cache_shards;
  engine_config.histogram_bins = config_.histogram_bins;
  engine_config.freq_admission = config_.freq_admission;
  devices_.reserve(static_cast<std::size_t>(config_.ranks));
  engines_.reserve(static_cast<std::size_t>(config_.ranks));
  for (int r = 0; r < config_.ranks; ++r) {
    devices_.push_back(std::make_unique<gpusim::Device>());
    engines_.push_back(
        std::make_unique<QueryEngine>(store_, *devices_.back(),
                                      engine_config));
  }
}

std::vector<std::uint32_t> DistributedQueryEngine::owned_shards(
    int rank) const {
  DEDUKT_REQUIRE_MSG(rank >= 0 && rank < config_.ranks,
                     "rank out of range: " << rank);
  std::vector<std::uint32_t> owned;
  for (std::uint32_t s = static_cast<std::uint32_t>(rank);
       s < store_.shards(); s += static_cast<std::uint32_t>(config_.ranks)) {
    owned.push_back(s);
  }
  return owned;
}

const QueryStats& DistributedQueryEngine::rank_stats(int rank) const {
  DEDUKT_REQUIRE_MSG(rank >= 0 && rank < config_.ranks,
                     "rank out of range: " << rank);
  return engines_[static_cast<std::size_t>(rank)]->stats();
}

std::vector<std::uint64_t> DistributedQueryEngine::lookup(
    std::span<const std::uint64_t> keys) {
  std::vector<std::vector<std::uint64_t>> batches(1);
  batches[0].assign(keys.begin(), keys.end());
  return std::move(run_batches(batches, /*membership=*/false)[0]);
}

std::vector<std::uint8_t> DistributedQueryEngine::contains(
    std::span<const std::uint64_t> keys) {
  std::vector<std::vector<std::uint64_t>> batches(1);
  batches[0].assign(keys.begin(), keys.end());
  const std::vector<std::uint64_t> wide =
      std::move(run_batches(batches, /*membership=*/true)[0]);
  std::vector<std::uint8_t> out(wide.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(wide[i]);
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> DistributedQueryEngine::lookup_batches(
    const std::vector<std::vector<std::uint64_t>>& batches) {
  return run_batches(batches, /*membership=*/false);
}

std::vector<std::vector<std::uint64_t>> DistributedQueryEngine::run_batches(
    const std::vector<std::vector<std::uint64_t>>& batches, bool membership) {
  const int P = config_.ranks;
  const std::size_t B = batches.size();
  std::vector<std::vector<std::uint64_t>> results(B);
  for (std::size_t b = 0; b < B; ++b) {
    results[b].assign(batches[b].size(), 0);
  }
  if (B == 0) return results;

  // Per-batch timing components the serve-time model aggregates on the
  // host after the run. The comm seconds of one exchange are identical on
  // every rank (round-max pricing), so rank 0's values are authoritative;
  // device seconds differ per rank and land in rank-indexed slots.
  std::vector<double> query_comm(B, 0.0);
  std::vector<double> answer_comm(B, 0.0);
  std::vector<std::vector<double>> dev(B,
                                       std::vector<double>(
                                           static_cast<std::size_t>(P), 0.0));
  std::vector<std::uint64_t> found(static_cast<std::size_t>(P), 0);
  std::vector<std::uint64_t> deduped(static_cast<std::size_t>(P), 0);
  std::vector<std::uint64_t> routed(static_cast<std::size_t>(P), 0);

  const std::uint64_t nic_before = runtime_.total_stats().bytes_sent;

  runtime_.run([&](mpisim::Comm& comm) {
    const int rank = comm.rank();
    auto& engine = *engines_[static_cast<std::size_t>(rank)];
    auto& device = *devices_[static_cast<std::size_t>(rank)];

    // Reprice the exchange that just charged from its round-max bytes: a
    // pure function of the traffic. A ledger delta would pick up rounding
    // from the accumulator's prior contents and move the recorded seconds.
    const auto last_exchange_seconds = [&comm, P] {
      return comm.network().alltoallv_seconds(comm.last_round_max_bytes(),
                                              P);
    };

    for (std::size_t b = 0; b < B; ++b) {
      // Route this rank's slice: dedupe, bucket distinct keys by owner.
      const Slice slice = slice_of(rank, P, batches[b].size());
      const std::span<const std::uint64_t> keys(
          batches[b].data() + slice.begin, slice.end - slice.begin);
      QueryEngine::BatchPlan plan;
      // Per distinct key: owner rank and position in the bucket sent to it.
      std::vector<std::pair<int, std::size_t>> route;
      std::vector<std::vector<std::uint64_t>> buckets(
          static_cast<std::size_t>(P));
      {
        trace::ScopedSpan span(trace::kCategoryApp, "serve_route");
        plan = QueryEngine::dedupe_batch(keys);
        route.reserve(plan.unique_keys.size());
        for (const std::uint64_t key : plan.unique_keys) {
          const int owner = owner_of(store_.routing().shard_of(key), P);
          auto& bucket = buckets[static_cast<std::size_t>(owner)];
          route.emplace_back(owner, bucket.size());
          bucket.push_back(key);
        }
        deduped[static_cast<std::size_t>(rank)] +=
            keys.size() - plan.unique_keys.size();
        routed[static_cast<std::size_t>(rank)] += plan.unique_keys.size();
        if (span.active()) {
          span.arg_u64("queries", keys.size());
          span.arg_u64("routed", plan.unique_keys.size());
          trace::counter("serve.queries_routed", plan.unique_keys.size());
          trace::counter("serve.dedup_saved",
                         keys.size() - plan.unique_keys.size());
        }
      }

      const auto q = comm.alltoallv(buckets);
      if (rank == 0) query_comm[b] = last_exchange_seconds();

      // Serve the keys this rank owns: its engine only ever touches its
      // resident shards (routing sent every key to its owner). Answers go
      // back in received order, bucketed by source.
      std::vector<std::vector<KeyAnswer>> answers(static_cast<std::size_t>(P));
      {
        trace::ScopedSpan span(trace::kCategoryApp, "serve_lookup");
        gpusim::DeviceCapture capture(device);
        std::vector<std::uint64_t> counts;
        if (membership) {
          const std::vector<std::uint8_t> member = engine.contains(q.data);
          counts.assign(member.begin(), member.end());
        } else {
          counts = engine.lookup(q.data);
        }
        dev[b][static_cast<std::size_t>(rank)] = capture.modeled_seconds();
        if (span.active()) {
          span.set_modeled_seconds(capture.modeled_seconds());
          span.arg_u64("served", q.data.size());
        }
        for (int src = 0; src < P; ++src) {
          const std::span<const std::uint64_t> from = q.from(src);
          auto& bucket = answers[static_cast<std::size_t>(src)];
          bucket.reserve(from.size());
          const std::size_t base = q.offsets[static_cast<std::size_t>(src)];
          for (std::size_t j = 0; j < from.size(); ++j) {
            bucket.push_back(KeyAnswer{from[j], counts[base + j]});
          }
        }
      }

      const auto ans = comm.alltoallv(answers);
      if (rank == 0) answer_comm[b] = last_exchange_seconds();

      // Fan the answers back into the shared results array (each rank owns
      // a disjoint slice, so the writes never race).
      trace::ScopedSpan span(trace::kCategoryApp, "serve_fanout");
      std::vector<std::uint64_t> unique_vals(plan.unique_keys.size(), 0);
      for (std::size_t i = 0; i < plan.unique_keys.size(); ++i) {
        const auto [owner, idx] = route[i];
        const KeyAnswer a = ans.from(owner)[idx];
        // Positional matching contract: owners answer in received order,
        // per-source order is preserved both ways.
        DEDUKT_CHECK(a.key == plan.unique_keys[i]);
        unique_vals[i] = a.count;
      }
      std::uint64_t hits = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t v = unique_vals[plan.dup_of[i]];
        results[b][slice.begin + i] = v;
        if (v != 0) ++hits;
      }
      if (!membership) found[static_cast<std::size_t>(rank)] += hits;
      if (span.active()) span.arg_u64("answers", keys.size());
    }
  });

  // Host-side aggregation into the serve-time model: the pipelined
  // schedule overlaps batch b-1's answer exchange with batch b's
  // slowest-rank lookup; the lockstep sum is its counterfactual. With one
  // batch both sum the same three terms, so they agree bit for bit.
  double lockstep = 0.0;
  std::vector<double> max_dev(B, 0.0);
  for (std::size_t b = 0; b < B; ++b) {
    max_dev[b] = *std::max_element(dev[b].begin(), dev[b].end());
    lockstep += query_comm[b] + max_dev[b] + answer_comm[b];
    stats_.exchange_seconds += query_comm[b] + answer_comm[b];
    stats_.lookup_seconds += max_dev[b];
  }
  double serve_time = max_dev[0];
  for (std::size_t b = 0; b < B; ++b) serve_time += query_comm[b];
  for (std::size_t b = 1; b < B; ++b) {
    serve_time +=
        config_.network.overlapped_seconds(answer_comm[b - 1], max_dev[b]);
  }
  serve_time += answer_comm[B - 1];
  stats_.batches += B;
  for (std::size_t b = 0; b < B; ++b) stats_.queries += batches[b].size();
  for (int r = 0; r < P; ++r) {
    stats_.found += found[static_cast<std::size_t>(r)];
    stats_.dedup_saved += deduped[static_cast<std::size_t>(r)];
    stats_.routed_queries += routed[static_cast<std::size_t>(r)];
  }
  stats_.nic_bytes += runtime_.total_stats().bytes_sent - nic_before;
  stats_.lockstep_seconds += lockstep;
  stats_.serve_seconds += serve_time;
  stats_.overlap_saved_seconds += lockstep - serve_time;
  return results;
}

std::vector<std::uint64_t> DistributedQueryEngine::histogram() {
  const int P = config_.ranks;
  std::vector<std::uint64_t> merged;
  std::vector<double> dev(static_cast<std::size_t>(P), 0.0);
  double comm_seconds = 0.0;
  const std::uint64_t nic_before = runtime_.total_stats().bytes_sent;
  runtime_.run([&](mpisim::Comm& comm) {
    const int rank = comm.rank();
    auto& engine = *engines_[static_cast<std::size_t>(rank)];
    gpusim::DeviceCapture capture(*devices_[static_cast<std::size_t>(rank)]);
    const std::vector<std::uint32_t> owned = owned_shards(rank);
    const std::vector<std::uint64_t> partial = engine.histogram_shards(owned);
    dev[static_cast<std::size_t>(rank)] = capture.modeled_seconds();
    mpisim::CommCapture ccap(comm);
    std::vector<std::uint64_t> bins =
        comm.allreduce_vector(partial, mpisim::ReduceOp::kSum);
    if (rank == 0) {
      comm_seconds = ccap.modeled_seconds();
      merged = std::move(bins);
    }
  });
  stats_.exchange_seconds += comm_seconds;
  const double max_dev = *std::max_element(dev.begin(), dev.end());
  stats_.lookup_seconds += max_dev;
  stats_.lockstep_seconds += comm_seconds + max_dev;
  stats_.serve_seconds += comm_seconds + max_dev;
  stats_.nic_bytes += runtime_.total_stats().bytes_sent - nic_before;
  return merged;
}

}  // namespace dedukt::store
