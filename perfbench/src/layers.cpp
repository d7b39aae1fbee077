#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "dedukt/trace/session.hpp"
#include "support.hpp"

namespace perfbench {

namespace tr = dedukt::trace;

namespace {

bool category_is(const tr::SpanRecord& span, const char* category) {
  return std::strcmp(span.category, category) == 0;
}

bool is_kernel(const tr::SpanRecord& s) {
  return category_is(s, tr::kCategoryKernel);
}

bool is_device(const tr::SpanRecord& s) {
  return is_kernel(s) || category_is(s, tr::kCategoryTransfer);
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The layer (module) a span's self time belongs to.
const char* layer_of(const tr::SpanRecord& s) {
  if (is_device(s)) return "gpusim";
  if (category_is(s, tr::kCategoryCollective) ||
      category_is(s, tr::kCategoryCollectiveAsync)) {
    return "mpisim";
  }
  if (category_is(s, tr::kCategoryPhase) || starts_with(s.name, "rank_")) {
    return "core";
  }
  if (starts_with(s.name, "serve_") || starts_with(s.name, "store_")) {
    return "store";
  }
  return "other";
}

std::uint64_t u64_arg(const tr::SpanRecord& s, std::string_view key) {
  for (const tr::SpanArg& arg : s.args) {
    if (arg.key == key) return std::stoull(arg.json);
  }
  return 0;
}

/// Direct-children sums of every span of one recorder. Spans are stored in
/// open order with their nesting depth, so a stack recovers the tree.
struct ChildSums {
  std::vector<double> all, kernels, device;
};

ChildSums child_sums(const std::vector<tr::SpanRecord>& spans) {
  ChildSums sums{std::vector<double>(spans.size(), 0.0),
                 std::vector<double>(spans.size(), 0.0),
                 std::vector<double>(spans.size(), 0.0)};
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].depth >= spans[i].depth) {
      open.pop_back();
    }
    if (!open.empty()) {
      const std::size_t parent = open.back();
      sums.all[parent] += spans[i].wall_seconds;
      if (is_kernel(spans[i])) sums.kernels[parent] += spans[i].wall_seconds;
      if (is_device(spans[i])) sums.device[parent] += spans[i].wall_seconds;
    }
    open.push_back(i);
  }
  return sums;
}

RankSpans summarize_rank(const std::vector<tr::SpanRecord>& spans) {
  RankSpans out;
  const ChildSums children = child_sums(spans);
  for (const char* layer : {"core", "gpusim", "mpisim", "store", "other"}) {
    out.layer_self[layer] = 0.0;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const tr::SpanRecord& s = spans[i];
    const double self = s.wall_seconds - children.all[i];
    out.min_self_s = std::min(out.min_self_s, self);
    out.layer_self[layer_of(s)] += self;
    if (s.depth == 0) out.attributed_s += s.wall_seconds;

    if (category_is(s, tr::kCategoryPhase)) {
      out.phase_wall[s.name] += s.wall_seconds;
      out.phase_self_of_device[s.name] += s.wall_seconds - children.device[i];
      out.phase_self_of_kernels[s.name] +=
          s.wall_seconds - children.kernels[i];
    } else if (is_kernel(s)) {
      KernelTotals& k = out.kernels[s.name];
      k.wall_s += s.wall_seconds;
      k.launches += 1;
    } else if (category_is(s, tr::kCategoryTransfer)) {
      out.transfer_s += s.wall_seconds;
      out.transfer_bytes += u64_arg(s, "bytes");
    } else if (category_is(s, tr::kCategoryCollective) ||
               category_is(s, tr::kCategoryCollectiveAsync)) {
      CollectiveTotals& c = out.collectives[s.name];
      c.wall_s += s.wall_seconds;
      c.bytes_sent += u64_arg(s, "bytes_sent");
      c.call_seconds.push_back(s.wall_seconds);
    } else if (starts_with(s.name, "serve_")) {
      out.serve_wall[s.name] += s.wall_seconds;
    }
  }
  return out;
}

MainSpans summarize_main(const std::vector<tr::SpanRecord>& spans) {
  MainSpans out;
  for (const tr::SpanRecord& s : spans) {
    if (s.name == kJobSpan || s.name == kLookupSpan) {
      if (s.depth == 0) out.job_s += s.wall_seconds;
    } else if (s.name == kDecodeSpan) {
      out.decode_s += s.wall_seconds;
    } else if (s.name == kOutputSpan) {
      out.output_s += s.wall_seconds;
    }
  }
  return out;
}

double max_over_ranks(const TraceSummary& summary,
                      const auto& value_of_rank) {
  double best = 0.0;
  for (const RankSpans& r : summary.ranks) {
    best = std::max(best, static_cast<double>(value_of_rank(r)));
  }
  return best;
}

template <typename T>
T lookup_or_zero(const std::map<std::string, T>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? T{} : it->second;
}

const RankSpans* busiest_rank(const TraceSummary& summary) {
  const RankSpans* busiest = nullptr;
  for (const RankSpans& r : summary.ranks) {
    if (busiest == nullptr || r.attributed_s > busiest->attributed_s) {
      busiest = &r;
    }
  }
  return busiest;
}

}  // namespace

TraceSummary summarize_spans(
    const std::vector<std::vector<tr::SpanRecord>>& span_sets,
    const std::vector<tr::SpanRecord>& main_spans) {
  TraceSummary summary;
  for (const auto& spans : span_sets) {
    summary.ranks.push_back(summarize_rank(spans));
  }
  summary.main = summarize_main(main_spans);
  return summary;
}

TraceSummary summarize_session(int nranks) {
  tr::TraceSession& session = tr::TraceSession::instance();
  std::vector<std::vector<tr::SpanRecord>> span_sets;
  for (int rank = 0; rank < nranks; ++rank) {
    span_sets.push_back(session.recorder(rank).spans_snapshot());
  }
  return summarize_spans(
      span_sets,
      session.recorder(tr::SpanRecorder::kMainRank).spans_snapshot());
}

double unattributed_seconds(const TraceSummary& summary) {
  const RankSpans* busiest = busiest_rank(summary);
  const double ranks_s = busiest == nullptr ? 0.0 : busiest->attributed_s;
  return summary.main.job_s - summary.main.decode_s - summary.main.output_s -
         ranks_s;
}

std::vector<std::string> accounting_errors(const TraceSummary& summary) {
  std::vector<std::string> errors;
  for (const RankSpans& r : summary.ranks) {
    if (r.min_self_s < 0.0) {
      errors.emplace_back("a span is shorter than its children");
    }
  }
  if (unattributed_seconds(summary) < 0.0) {
    errors.emplace_back("traced spans cover more than the job's wall time");
  }
  return errors;
}

MetricList per_layer_metrics(const TraceSummary& summary,
                             const LayerInputs& in) {
  MetricList m;
  const auto add = [&m](const std::string& name, double value,
                        const char* unit) {
    m.push_back(Metric{name, value, unit});
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const dedukt::core::CountResult* count = in.count;
  const auto measured_max = [&](const char* phase) {
    double best = 0.0;
    if (count == nullptr) return best;
    for (const auto& rank : count->ranks) {
      best = std::max(best, rank.measured.get(phase));
    }
    return best;
  };
  const auto ranks_sum = [&](auto field) {
    std::uint64_t total = 0;
    if (count == nullptr) return total;
    for (const auto& rank : count->ranks) total += rank.*field;
    return total;
  };
  using dedukt::core::RankMetrics;
  const MainSpans& main = summary.main;

  // io
  add("io.decode_s", main.decode_s, "s");
  add("io.decode_bytes", static_cast<double>(in.decode_bytes), "bytes");
  add("io.decode_mb_per_s",
      ratio(static_cast<double>(in.decode_bytes) / 1e6, main.decode_s),
      "MB/s");
  add("io.output_s", main.output_s, "s");
  add("io.spill_bytes",
      static_cast<double>(ranks_sum(&RankMetrics::spill_bytes_written)),
      "bytes");
  add("io.reload_bytes",
      static_cast<double>(ranks_sum(&RankMetrics::spill_bytes_read)),
      "bytes");

  // kmer / core parse
  add("core.parse_s", measured_max(dedukt::core::kPhaseParse), "s");
  add("core.parse_self_s", max_over_ranks(summary, [](const RankSpans& r) {
        return lookup_or_zero(r.phase_self_of_device,
                              dedukt::core::kPhaseParse);
      }),
      "s");

  // gpusim
  for (const char* kernel : kReportedKernels) {
    const std::string prefix = std::string("gpusim.") + kernel;
    std::uint64_t launches = 0;
    for (const RankSpans& r : summary.ranks) {
      launches += lookup_or_zero(r.kernels, kernel).launches;
    }
    add(prefix + ".wall_s", max_over_ranks(summary, [&](const RankSpans& r) {
          return lookup_or_zero(r.kernels, kernel).wall_s;
        }),
        "s");
    add(prefix + ".launches", static_cast<double>(launches), "count");
  }
  double hash_rank_wall_sum = 0.0;
  for (const RankSpans& r : summary.ranks) {
    hash_rank_wall_sum +=
        lookup_or_zero(r.kernels, "hash_count_supermers").wall_s;
  }
  const auto hashed_kmers =
      static_cast<double>(ranks_sum(&RankMetrics::kmers_received));
  add("gpusim.hash_count_supermers.kmers", hashed_kmers, "count");
  add("gpusim.hash_count_supermers.rank_wall_sum_s", hash_rank_wall_sum, "s");
  add("gpusim.hash_count_supermers.kmers_per_s",
      ratio(hashed_kmers, hash_rank_wall_sum), "1/s");
  std::uint64_t transfer_bytes = 0;
  for (const RankSpans& r : summary.ranks) transfer_bytes += r.transfer_bytes;
  add("gpusim.transfer_s",
      max_over_ranks(summary, [](const RankSpans& r) { return r.transfer_s; }),
      "s");
  add("gpusim.transfer_bytes", static_cast<double>(transfer_bytes), "bytes");

  // core
  const auto parse_count = [](const RankSpans& r) {
    return lookup_or_zero(r.phase_wall, dedukt::core::kPhaseParse) +
           lookup_or_zero(r.phase_wall, dedukt::core::kPhaseCount);
  };
  const double parse_count_max = max_over_ranks(summary, parse_count);
  double parse_count_min = parse_count_max;
  for (const RankSpans& r : summary.ranks) {
    parse_count_min = std::min(parse_count_min, parse_count(r));
  }
  add("core.exchange_s", measured_max(dedukt::core::kPhaseExchange), "s");
  add("core.count_s", measured_max(dedukt::core::kPhaseCount), "s");
  add("core.count_self_s", max_over_ranks(summary, [](const RankSpans& r) {
        return lookup_or_zero(r.phase_self_of_kernels,
                              dedukt::core::kPhaseCount);
      }),
      "s");
  add("core.spill_s", measured_max(dedukt::core::kPhaseSpill), "s");
  add("core.reload_s", measured_max(dedukt::core::kPhaseReload), "s");
  add("core.unattributed_s", unattributed_seconds(summary), "s");
  add("core.rank_skew_s", parse_count_max - parse_count_min, "s");
  add("core.kmers",
      count == nullptr ? 0.0 : static_cast<double>(count->total_kmers()),
      "count");
  add("core.distinct",
      count == nullptr ? 0.0 : static_cast<double>(count->total_unique()),
      "count");
  add("core.exchanged_bytes",
      count == nullptr ? 0.0
                       : static_cast<double>(count->total_bytes_exchanged()),
      "bytes");

  // mpisim
  std::uint64_t a2a_calls = 0;
  std::uint64_t bytes_sent = 0;
  std::vector<double> a2a_call_seconds;
  for (const RankSpans& r : summary.ranks) {
    const CollectiveTotals a2a = lookup_or_zero(r.collectives, "alltoallv");
    a2a_calls += a2a.call_seconds.size();
    a2a_call_seconds.insert(a2a_call_seconds.end(), a2a.call_seconds.begin(),
                            a2a.call_seconds.end());
    for (const auto& [name, c] : r.collectives) bytes_sent += c.bytes_sent;
  }
  add("mpisim.alltoallv_s", max_over_ranks(summary, [](const RankSpans& r) {
        return lookup_or_zero(r.collectives, "alltoallv").wall_s;
      }),
      "s");
  add("mpisim.alltoallv_calls", static_cast<double>(a2a_calls), "count");
  add("mpisim.alltoallv_p50_us",
      a2a_call_seconds.empty() ? 0.0 : median(a2a_call_seconds) * 1e6, "us");
  add("mpisim.gatherv_s", max_over_ranks(summary, [](const RankSpans& r) {
        return lookup_or_zero(r.collectives, "gatherv").wall_s;
      }),
      "s");
  add("mpisim.bytes_sent", static_cast<double>(bytes_sent), "bytes");

  // store
  const auto serve_max = [&](const char* span) {
    return max_over_ranks(summary, [span](const RankSpans& r) {
      return lookup_or_zero(r.serve_wall, span);
    });
  };
  add("store.open_s", in.store_open_s, "s");
  add("store.route_s", serve_max("serve_route"), "s");
  add("store.lookup_s", serve_max("serve_lookup"), "s");
  add("store.fanout_s", serve_max("serve_fanout"), "s");
  add("store.queries", static_cast<double>(in.queries), "count");
  add("store.dedup_saved", static_cast<double>(in.dedup_saved), "count");
  add("store.dedup_ratio",
      ratio(static_cast<double>(in.dedup_saved),
            static_cast<double>(in.queries)),
      "ratio");
  add("store.cache_hits", static_cast<double>(in.cache_hits), "count");
  add("store.shard_touches", static_cast<double>(in.shard_touches), "count");
  add("store.cache_hit_ratio",
      ratio(static_cast<double>(in.cache_hits),
            static_cast<double>(in.shard_touches)),
      "ratio");
  add("store.staged_bytes", static_cast<double>(in.staged_bytes), "bytes");
  add("store.nic_bytes", static_cast<double>(in.nic_bytes), "bytes");
  add("store.modeled_exchange_s", in.modeled_exchange_s, "s");
  add("store.modeled_lookup_s", in.modeled_lookup_s, "s");

  // The job's wall split: io spans + the busiest rank's traced time by
  // layer + what no span covers.
  const RankSpans* busiest = busiest_rank(summary);
  const auto busiest_layer = [busiest](const char* layer) {
    return busiest == nullptr ? 0.0
                              : lookup_or_zero(busiest->layer_self, layer);
  };
  const double io_s = main.decode_s + main.output_s;
  double accounted = io_s + unattributed_seconds(summary);
  for (const char* layer : {"core", "gpusim", "mpisim", "store", "other"}) {
    accounted += busiest_layer(layer);
  }
  add("job.wall_s", main.job_s, "s");
  add("job.io_s", io_s, "s");
  add("job.rank_core_s", busiest_layer("core"), "s");
  add("job.rank_gpusim_s", busiest_layer("gpusim"), "s");
  add("job.rank_mpisim_s", busiest_layer("mpisim"), "s");
  add("job.rank_store_s", busiest_layer("store"), "s");
  add("job.rank_other_s", busiest_layer("other"), "s");
  add("job.accounted_pct", 100.0 * ratio(accounted, main.job_s), "%");

  // trace
  add("trace.untraced_job_s", in.untraced_job_s, "s");
  add("trace.overhead_pct",
      in.untraced_job_s > 0.0 ? 100.0 * (main.job_s / in.untraced_job_s - 1.0)
                              : 0.0,
      "%");
  return m;
}

}  // namespace perfbench
