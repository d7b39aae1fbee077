#include "dedukt/trace/session.hpp"

#include <cstdlib>
#include <fstream>
#include <string_view>

#include "dedukt/trace/chrome_trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::trace {

TraceSession& TraceSession::instance() {
  static TraceSession session;
  return session;
}

TraceSession::TraceSession() {
  if (const char* clock = std::getenv("DEDUKT_TRACE_CLOCK")) {
    if (std::string(clock) == "wall") export_clock_ = Clock::kWall;
  }
  if (const char* path = std::getenv("DEDUKT_TRACE")) {
    if (*path != '\0') enable(path);
  }
}

TraceSession::~TraceSession() {
  // The DEDUKT_TRACE=<path> contract: files appear at process exit even if
  // the program never calls write_files() itself (examples, tools).
  if (enabled() && !chrome_path_.empty()) write_files();
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void TraceSession::enable(std::string chrome_path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!chrome_path.empty()) chrome_path_ = std::move(chrome_path);
  }
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void TraceSession::disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void TraceSession::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [rank, recorder] : recorders_) recorder->reset();
}

SpanRecorder& TraceSession::recorder(int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = recorders_.find(rank);
  if (it == recorders_.end()) {
    it = recorders_.emplace(rank, std::make_unique<SpanRecorder>(rank)).first;
  }
  return *it->second;
}

SpanRecorder& TraceSession::current_or_main() {
  if (SpanRecorder* bound = detail::current_recorder()) return *bound;
  return recorder(SpanRecorder::kMainRank);
}

MetricsReport TraceSession::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsReport report;
  // std::map iteration: ranks ascending, main recorder (-1) first.
  for (const auto& [rank, recorder] : recorders_) {
    RankMetricsReport rr;
    rr.rank = rank;
    for (const SpanRecord& span : recorder->spans_snapshot()) {
      ++rr.total_spans;
      if (span.category == std::string_view(kCategoryPhase)) {
        PhaseMetrics& slot = rr.phases[span.name];
        slot.wall_seconds += span.wall_seconds;
        slot.modeled_seconds += span.modeled_seconds;
        slot.modeled_volume_seconds += span.modeled_volume_seconds;
        slot.spans += 1;
      } else if (span.category == std::string_view(kCategoryKernel)) {
        KernelMetrics& slot = rr.kernels[span.name];
        slot.launches += 1;
        slot.modeled_seconds += span.modeled_seconds;
        slot.wall_seconds += span.wall_seconds;
        slot.smem_read_bytes += span.smem_read_bytes;
        slot.smem_write_bytes += span.smem_write_bytes;
        slot.smem_atomics += span.smem_atomics;
      }
    }

    rr.counters = recorder->counters_snapshot();

    if (rr.total_spans > 0 || !rr.counters.empty()) {
      report.ranks.push_back(std::move(rr));
    }
  }
  return report;
}

std::string TraceSession::chrome_json(Clock clock) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RankSpans> merged;
  for (const auto& [rank, recorder] : recorders_) {
    RankSpans rs;
    rs.rank = rank;
    rs.spans = recorder->spans_snapshot();
    if (!rs.spans.empty()) merged.push_back(std::move(rs));
  }
  return chrome_trace_json(merged, clock);
}

std::string TraceSession::metrics_path_for(const std::string& path) {
  const std::string suffix = ".json";
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return path.substr(0, path.size() - suffix.size()) + ".metrics.json";
  }
  return path + ".metrics.json";
}

std::string TraceSession::write_files() {
  std::string chrome_path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    chrome_path = chrome_path_;
  }
  if (chrome_path.empty()) return {};

  const std::string chrome = chrome_json(export_clock_);
  const std::string metrics_json = metrics().to_json(/*include_wall=*/false);

  std::ofstream chrome_out(chrome_path);
  DEDUKT_REQUIRE_MSG(chrome_out.good(),
                     "cannot open trace file " << chrome_path);
  chrome_out << chrome;

  const std::string metrics_path = metrics_path_for(chrome_path);
  std::ofstream metrics_out(metrics_path);
  DEDUKT_REQUIRE_MSG(metrics_out.good(),
                     "cannot open metrics file " << metrics_path);
  metrics_out << metrics_json;
  return chrome_path;
}

namespace {

/// Pulls the session up at static-init time when DEDUKT_TRACE is set, so
/// unmodified binaries (examples, tools) trace end to end.
struct EnvBootstrap {
  EnvBootstrap() {
    if (const char* path = std::getenv("DEDUKT_TRACE")) {
      if (*path != '\0') (void)TraceSession::instance();
    }
  }
} g_env_bootstrap;

}  // namespace

}  // namespace dedukt::trace
