#include "selftest.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "dedukt/trace/span.hpp"
#include "layers.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace tr = dedukt::trace;

/// A genome down-scale divisor that shrinks every workload's genome to the
/// generator's 10 kb floor, so a traced run takes seconds.
constexpr std::uint64_t kTinyScale = 1'000'000;

struct Failure {
  std::string what;
};

void expect(bool condition, const std::string& what) {
  if (!condition) throw Failure{what};
}

const Metric& metric(const RunResult& result, const std::string& name) {
  for (const Metric& m : result.metrics) {
    if (m.name == name) return m;
  }
  throw Failure{"missing metric " + name};
}

RunResult tiny_run(const std::filesystem::path& work_dir,
                   const std::string& workload, bool trace, bool corrupt) {
  RunConfig config;
  config.workload = workload;
  config.seed = 7;
  config.seconds = 0.0;
  config.trace = trace;
  config.work_dir = work_dir / ("selftest-" + workload);
  config.scale = kTinyScale;
  config.setup_reps = 1;
  config.corrupt_first_output = corrupt;
  std::filesystem::create_directories(config.work_dir);
  return run_workload(config);
}

void percentile_helper() {
  std::vector<double> samples(2048);
  std::iota(samples.begin(), samples.end(), 1.0);
  const TailPercentile p = highest_supported_percentile(samples);
  expect(p.percentile == 99.0, "2048 samples support p99, not p99.9");
  expect(p.samples == 2048, "the sample count is stated");
  expect(p.beyond >= 10, "at least ten samples lie beyond the percentile");
  expect(p.value == 2028.0, "nearest-rank p99 of 1..2048 is 2028");

  samples.resize(100);
  const TailPercentile q = highest_supported_percentile(samples);
  expect(q.percentile == 90.0 && q.beyond == 10,
         "100 samples support p90 with exactly ten beyond");

  samples.resize(5);
  const TailPercentile m = highest_supported_percentile(samples);
  expect(m.percentile == 50.0 && m.value == 3.0,
         "too few samples for any tail fall back to the median");
}

tr::SpanRecord span(const char* category, const char* name, int depth,
                    double wall) {
  tr::SpanRecord s;
  s.category = category;
  s.name = name;
  s.depth = depth;
  s.wall_seconds = wall;
  return s;
}

void self_time_arithmetic() {
  // rank_pipeline 1.0 { parse 0.6 { kernel 0.25, h2d 0.05 }, count 0.3
  // { kernel 0.1, d2h 0.02 } } and, on the main thread, a 1.5 s job with
  // 0.2 s of decode and 0.1 s of output inside it.
  const std::vector<tr::SpanRecord> rank = {
      span(tr::kCategoryApp, "rank_pipeline", 0, 1.0),
      span(tr::kCategoryPhase, "parse", 1, 0.6),
      span(tr::kCategoryKernel, "supermer_count", 2, 0.25),
      span(tr::kCategoryTransfer, "h2d", 2, 0.05),
      span(tr::kCategoryPhase, "count", 1, 0.3),
      span(tr::kCategoryKernel, "hash_count_supermers", 2, 0.1),
      span(tr::kCategoryTransfer, "d2h", 2, 0.02),
  };
  const std::vector<tr::SpanRecord> main = {
      span(tr::kCategoryApp, kJobSpan, 0, 1.5),
      span(tr::kCategoryApp, kDecodeSpan, 1, 0.2),
      span(tr::kCategoryApp, kCountSpan, 1, 1.1),
      span(tr::kCategoryApp, kOutputSpan, 1, 0.1),
  };
  const TraceSummary summary = summarize_spans({rank}, main);
  const RankSpans& r = summary.ranks.front();
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-12; };
  expect(near(r.phase_self_of_device.at("parse"), 0.3),
         "parse self excludes kernel and transfer children");
  expect(near(r.phase_self_of_kernels.at("count"), 0.2),
         "count self keeps the device-to-host copy");
  expect(near(r.layer_self.at("gpusim"), 0.42), "gpusim self time");
  expect(near(r.layer_self.at("core"), 0.58), "core self time");
  expect(near(r.attributed_s, 1.0), "layer self times sum to the root");
  expect(near(unattributed_seconds(summary), 0.2),
         "unattributed = job - io - busiest rank");
}

void tiny_traced_runs(const std::filesystem::path& work_dir) {
  for (const char* workload : kWorkloads) {
    const RunResult result = tiny_run(work_dir, workload, true, false);
    expect(result.correct(),
           std::string(workload) + ": tiny traced run is correct");
    for (const Metric& m : result.metrics) {
      const bool time = m.unit == "s";
      expect(!time || m.value >= 0.0,
             std::string(workload) + ": " + m.name + " is negative");
    }
    expect(metric(result, "core.unattributed_s").value >= 0.0,
           std::string(workload) + ": unattributed time is negative");
    expect(std::abs(metric(result, "job.accounted_pct").value - 100.0) < 1e-6,
           std::string(workload) + ": layers do not add up to the job wall");
    expect(metric(result, "job.wall_s").value > 0.0,
           std::string(workload) + ": traced job has no wall time");
  }
}

void zipf_traffic() {
  std::vector<std::uint64_t> keys(5000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 3 * i + 1;
  const auto a = make_zipf_traffic(keys, 17, 1.0, 20000, 11);
  const auto b = make_zipf_traffic(keys, 17, 1.0, 20000, 11);
  const auto c = make_zipf_traffic(keys, 17, 1.0, 20000, 12);
  expect(a == b, "one seed gives identical traffic");
  expect(a != c, "different seeds give different traffic");
  std::size_t absent = 0;
  for (const std::uint64_t key : a) {
    absent += std::binary_search(keys.begin(), keys.end(), key) ? 0 : 1;
  }
  const double share = static_cast<double>(absent) / 20000.0;
  expect(share > 0.11 && share < 0.14, "about 1/8 of queries are absent");
}

void corrupted_output(const std::filesystem::path& work_dir) {
  for (const char* workload : {"supermer-hsapiens", "serve-zipf"}) {
    const RunResult clean = tiny_run(work_dir, workload, false, false);
    expect(clean.failed == 0 && clean.correct(),
           std::string(workload) + ": clean run has no failures");
    const RunResult bad = tiny_run(work_dir, workload, false, true);
    expect(bad.failed == 1 && !bad.correct(),
           std::string(workload) + ": one corrupted output is one failure");
    expect(bad.attempted == clean.attempted,
           std::string(workload) + ": attempts are still counted");
  }
}

}  // namespace

int run_selftests(const std::filesystem::path& work_dir) {
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"percentile_helper", percentile_helper},
      {"self_time_arithmetic", self_time_arithmetic},
      {"zipf_traffic", zipf_traffic},
      {"tiny_traced_runs", [&] { tiny_traced_runs(work_dir); }},
      {"corrupted_output", [&] { corrupted_output(work_dir); }},
  };
  int failures = 0;
  for (const auto& [name, test] : tests) {
    try {
      test();
      std::cout << "PASS " << name << "\n";
    } catch (const Failure& f) {
      ++failures;
      std::cout << "FAIL " << name << ": " << f.what << "\n";
    }
  }
  std::cout << (failures == 0 ? "all self-tests passed" : "self-tests failed")
            << std::endl;
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
