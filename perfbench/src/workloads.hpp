// The benchmark's three workloads. Each one builds its inputs from the
// seed, times calls into DEDUKT's public APIs, and checks every output
// outside the timers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

inline constexpr int kRanks = 4;

/// Workload names, in BENCHMARK.json order.
inline constexpr const char* kWorkloads[] = {
    "supermer-hsapiens", "ooc-ecoli-stream", "serve-zipf"};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch for the FASTQ, spill bins, counts file and store, plus the
  /// cache of expected output digests.
  std::filesystem::path work_dir;
  /// Genome down-scale divisor; 0 picks the workload's default.
  std::uint64_t scale = 0;
  /// Set-up repetitions; setup_s is their median.
  int setup_reps = 5;
  /// Self-test hook: corrupt the first checked output (one answer, or one
  /// count of the first counts file) after its timer stops.
  bool corrupt_first_output = false;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Problems that make the run incorrect beyond failed operations.
  std::vector<std::string> errors;
  MetricList metrics;
  /// Supporting numbers (sample counts, splits, sizes) as a JSON object.
  std::string details = "{}";

  [[nodiscard]] bool correct() const {
    return failed == 0 && errors.empty() && attempted > 0;
  }
};

/// Default genome down-scale divisor of a workload.
[[nodiscard]] std::uint64_t default_scale(const std::string& workload);

/// Run one workload: end-to-end metrics untraced, or (config.trace) the
/// per-layer metrics of one traced job. Throws std::invalid_argument for an
/// unknown workload.
[[nodiscard]] RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
