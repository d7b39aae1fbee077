// Integration matrix: every Table-I preset (strongly down-scaled) through
// the default supermer pipeline, verified against the serial reference and
// against the dataset's structural expectations.
#include <gtest/gtest.h>

#include <map>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/datasets.hpp"

namespace dedukt::core {
namespace {

class PresetMatrix : public ::testing::TestWithParam<std::string> {};

TEST_P(PresetMatrix, CountsMatchReferenceOnEveryPreset) {
  const auto preset = io::find_preset(GetParam());
  ASSERT_TRUE(preset.has_value());
  // Strong down-scale so the whole matrix stays fast.
  const std::uint64_t scale = preset->genome_size / 12'000 + 1;
  const io::ReadBatch reads = io::make_dataset(*preset, scale, 7);

  DriverOptions options;
  options.nranks = 5;
  const CountResult result = run_distributed_count(reads, options);

  std::map<std::uint64_t, std::uint64_t> expected;
  reference_count(reads, options.pipeline)
      .for_each([&](std::uint64_t key, std::uint64_t count) {
        expected[key] = count;
      });
  const std::map<std::uint64_t, std::uint64_t> actual(
      result.global_counts.begin(), result.global_counts.end());
  EXPECT_EQ(actual, expected);

  // Coverage structure: total instances per distinct k-mer should be on
  // the order of the dataset's coverage (both strands halve it).
  const double multiplicity =
      static_cast<double>(result.totals().counted_kmers) /
      static_cast<double>(result.total_unique());
  EXPECT_GT(multiplicity, preset->coverage / 5.0);
  EXPECT_LT(multiplicity, preset->coverage * 1.5);

  // The §IV compression must materialize on every dataset.
  const double units_reduction =
      static_cast<double>(result.totals().kmers_parsed) /
      static_cast<double>(result.total_supermers());
  EXPECT_GT(units_reduction, 3.0);
  EXPECT_LT(units_reduction, 5.0);
}

INSTANTIATE_TEST_SUITE_P(AllTable1Presets, PresetMatrix,
                         ::testing::Values("ecoli30x", "paeruginosa30x",
                                           "vvulnificus30x",
                                           "abaumannii30x", "celegans40x",
                                           "hsapiens54x"));

}  // namespace
}  // namespace dedukt::core
