// Approximate-counting ablation — error vs memory and exact-vs-sketch
// throughput of the count-min sketch backend.
//
// Not a paper figure: the paper counts exactly. This driver measures what
// the sketch backend trades — an ecoli30x preset is counted exactly, then
// sketched at a width x depth sweep (plus a conservative-update point),
// and every sketch estimate is compared against the exact spectrum. Each
// configuration reports the sketch's fixed footprint, its observed max and
// mean over-count, and the modeled Summit time next to the exact run's
// (the sketch run exchanges O(sketch bytes), not O(k-mers), so its
// exchange share collapses). A final configuration runs the two-pass
// heavy-hitter extraction at a threshold chosen from the exact spectrum.
//
// Self-checks (DEDUKT_CHECK, so a regression aborts the run): every
// estimate is >= the exact count (one-sidedness, all configurations), the
// sweep's smaller sketches use less memory than the exact global table at
// equal input, conservative estimates never exceed vanilla estimates, and
// heavy-hitter recall is exactly 1.0 with bit-identical exact counts.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dedukt/core/sketch.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

namespace {

using namespace dedukt;

struct ErrorStats {
  std::uint64_t max_error = 0;
  double mean_error = 0.0;
};

/// Over-count of every exact key, with the one-sidedness DEDUKT_CHECK.
ErrorStats measure_errors(
    const core::SketchSummary& sketch,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& exact) {
  ErrorStats stats;
  double sum = 0.0;
  for (const auto& [key, count] : exact) {
    const std::uint64_t estimate = sketch.estimate(key);
    DEDUKT_CHECK_MSG(estimate >= count,
                     "sketch undercounted key " << key << ": " << estimate
                                                << " < " << count);
    const std::uint64_t error = estimate - count;
    stats.max_error = std::max(stats.max_error, error);
    sum += static_cast<double>(error);
  }
  stats.mean_error = exact.empty() ? 0.0 : sum / exact.size();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::start(argc, argv, "Approximate counting",
               "Error vs memory and exact-vs-sketch modeled throughput of "
               "the\ncount-min sketch backend (not a paper figure).");

  const std::uint64_t scale = bench::default_scale("ecoli30x");
  const int nranks = 8;
  const auto preset = io::find_preset("ecoli30x");
  DEDUKT_REQUIRE(preset.has_value());
  const io::ReadBatch reads = io::make_dataset(*preset, scale, /*seed=*/42);

  core::DriverOptions base;
  base.pipeline.kind = core::PipelineKind::kGpuKmer;
  base.nranks = nranks;

  TextTable table("Sketch sweep — ecoli30x at 1/" + std::to_string(scale) +
                  ", " + std::to_string(nranks) + " GPU ranks");
  table.set_header({"configuration", "memory", "max err", "mean err",
                    "exchanged", "modeled total"});

  // Reference: the exact backend on the same pipeline kind. Its table
  // memory is the gathered global spectrum at 16 bytes/entry (key+count).
  const core::CountResult exact = core::run_distributed_count(reads, base);
  DEDUKT_CHECK_MSG(!exact.global_counts.empty(),
                   "exact run produced no k-mers");
  const std::uint64_t exact_bytes =
      exact.global_counts.size() * 2 * sizeof(std::uint64_t);
  table.add_row({"exact/gpu-kmer", format_bytes(exact_bytes), "0", "0",
                 format_bytes(exact.totals().bytes_sent),
                 format_seconds(exact.modeled_total_seconds())});

  struct Shape {
    std::uint32_t width, depth;
    bool conservative;
  };
  std::vector<Shape> shapes = {{1u << 12, 4, false}, {1u << 14, 4, false},
                               {1u << 16, 4, false}, {1u << 14, 2, false},
                               {1u << 14, 6, false}, {1u << 14, 4, true}};
  double vanilla_mean_at_default = -1.0;
  for (const Shape& shape : shapes) {
    core::DriverOptions options = base;
    options.pipeline.sketch = true;
    options.pipeline.sketch_width = shape.width;
    options.pipeline.sketch_depth = shape.depth;
    options.pipeline.sketch_conservative = shape.conservative;

    const core::CountResult result =
        core::run_distributed_count(reads, options);
    const ErrorStats errors =
        measure_errors(result.sketch, exact.global_counts);
    table.add_row({"sketch/w=" + std::to_string(shape.width) +
                       ",d=" + std::to_string(shape.depth) +
                       (shape.conservative ? ",conservative" : ""),
                   format_bytes(result.sketch.sketch_bytes),
                   std::to_string(errors.max_error),
                   format_fixed(errors.mean_error, 3),
                   format_bytes(result.totals().bytes_sent),
                   format_seconds(result.modeled_total_seconds())});

    // Conservative update must only tighten the default-shape estimates.
    if (shape.width == (1u << 14) && shape.depth == 4) {
      if (!shape.conservative) {
        vanilla_mean_at_default = errors.mean_error;
      } else {
        DEDUKT_CHECK_MSG(
            vanilla_mean_at_default >= 0.0 &&
                errors.mean_error <= vanilla_mean_at_default,
            "conservative update increased the mean over-count: "
                << errors.mean_error << " > " << vanilla_mean_at_default);
      }
    }
  }

  // The memory claim: the sweep's smaller sketches undercut the exact
  // table on the same input.
  const std::uint64_t smallest =
      std::uint64_t{1u << 12} * 4 * sizeof(std::uint32_t);
  DEDUKT_CHECK_MSG(smallest < exact_bytes,
                   "sketch (" << smallest << " B) should be smaller than "
                              << "the exact table (" << exact_bytes
                              << " B) at this input size");

  // Heavy hitters: threshold at the ~100th largest exact count, so the
  // extraction has a meaningful target set.
  std::vector<std::uint64_t> counts;
  counts.reserve(exact.global_counts.size());
  for (const auto& [_, count] : exact.global_counts) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  const std::uint64_t threshold =
      std::max<std::uint64_t>(2, counts[std::min<std::size_t>(
                                     100, counts.size() - 1)]);
  {
    core::DriverOptions options = base;
    options.pipeline.sketch = true;
    options.pipeline.sketch_width = 1u << 16;
    options.pipeline.sketch_depth = 4;
    options.pipeline.heavy_threshold = threshold;
    const core::CountResult result =
        core::run_distributed_count(reads, options);
    const std::map<std::uint64_t, std::uint64_t> extracted(
        result.sketch.heavy_hitters.begin(),
        result.sketch.heavy_hitters.end());
    std::uint64_t heavy_truth = 0;
    for (const auto& [key, count] : exact.global_counts) {
      if (count < threshold) continue;
      ++heavy_truth;
      const auto it = extracted.find(key);
      DEDUKT_CHECK_MSG(it != extracted.end(),
                       "heavy-hitter recall < 1.0: missed key " << key);
      DEDUKT_CHECK_MSG(it->second == count,
                       "extracted count diverged for key " << key);
    }
    table.add_row({"heavy/w=65536,d=4,T=" + std::to_string(threshold),
                   format_bytes(result.sketch.sketch_bytes), "-", "-",
                   format_bytes(result.totals().bytes_sent),
                   format_seconds(result.modeled_total_seconds())});
    std::printf("heavy hitters at T=%llu: %llu extracted, %llu true, "
                "%llu sketch false positives\n",
                static_cast<unsigned long long>(threshold),
                static_cast<unsigned long long>(extracted.size()),
                static_cast<unsigned long long>(heavy_truth),
                static_cast<unsigned long long>(
                    result.sketch.false_positives()));
  }

  table.print();
  return 0;
}
