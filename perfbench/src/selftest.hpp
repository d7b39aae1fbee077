// The benchmark's own checks: statistics, span accounting, traffic
// determinism and failure counting (perfbench_runner --selftest).
#pragma once

#include <filesystem>

namespace perfbench {

/// Run every self-test with scratch under `work_dir`; returns the process
/// exit code (0 when all pass) after printing one line per test.
int run_selftests(const std::filesystem::path& work_dir);

}  // namespace perfbench
