// perfbench_runner — times DEDUKT's public APIs on one workload and prints
// one JSON line: the run manifest, the operation counts, the metrics and
// supporting details. perfbench/run.py builds and drives it.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> [--sim-threads <n>] [--git-sha <sha>]
//   perfbench_runner --selftest --work-dir <dir>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "dedukt/util/thread_pool.hpp"
#include "selftest.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + arg);
    }
    if (arg == "--selftest") {
      flags["selftest"] = "1";
    } else if (i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + arg);
    }
  }
  return flags;
}

std::string required(const std::map<std::string, std::string>& flags,
                     const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

std::string optional(const std::map<std::string, std::string>& flags,
                     const std::string& name, const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

std::string render(const RunConfig& config, const RunResult& result,
                   const std::string& git_sha) {
  JsonObject manifest;
  manifest.add("workload", config.workload)
      .add("seed", config.seed)
      .add("seconds", config.seconds)
      .add("trace", config.trace)
      .add("ranks", kRanks)
      .add("pool_threads", static_cast<std::uint64_t>(
                               dedukt::util::ThreadPool::global().threads()))
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("host_cores",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .add("git_sha", git_sha)
      .add("scale", default_scale(config.workload))
      .add("setup_reps", config.setup_reps);
  JsonObject metrics;
  for (const Metric& m : result.metrics) {
    metrics.add_raw(m.name, JsonObject()
                                .add("value", m.value)
                                .add("unit", m.unit)
                                .str());
  }
  std::string errors = "[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += json_string(result.errors[i]);
  }
  errors += "]";
  JsonObject doc;
  doc.add_raw("manifest", manifest.str())
      .add("correct", result.correct())
      .add("attempted", result.attempted)
      .add("failed", result.failed)
      .add_raw("errors", errors)
      .add_raw("metrics", metrics.str())
      .add_raw("details", result.details);
  return doc.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = parse_flags(argc, argv);
    dedukt::util::ThreadPool::set_global_threads(static_cast<unsigned>(
        std::stoul(optional(flags, "sim-threads", "4"))));
    const std::filesystem::path work_dir = required(flags, "work-dir");
    std::filesystem::create_directories(work_dir);
    if (flags.count("selftest") != 0) return run_selftests(work_dir);

    RunConfig config;
    config.workload = required(flags, "workload");
    config.seed = std::stoull(required(flags, "seed"));
    config.seconds = std::stod(required(flags, "seconds"));
    config.trace = required(flags, "trace") == "1";
    config.work_dir = work_dir / config.workload;
    std::filesystem::create_directories(config.work_dir);
    const RunResult result = run_workload(config);
    std::cout << render(config, result,
                        optional(flags, "git-sha", "unavailable"))
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
