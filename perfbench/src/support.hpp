// Benchmark support: statistics, a small JSON writer, process memory
// probes, dump hashing and the seeded Zipf traffic generator. Nothing here
// calls into DEDUKT's pipelines; it is the measuring side of the runner.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- statistics ------------------------------------------------------------

/// Median of `values` (mean of the two middle values for an even count).
/// Precondition: non-empty.
[[nodiscard]] double median(std::vector<double> values);

/// A tail percentile together with the evidence behind it.
struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly ranked above it
};

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at least
/// ten samples ranked beyond it; the median when no tail qualifies.
/// Precondition: non-empty.
[[nodiscard]] TailPercentile highest_supported_percentile(
    std::vector<double> samples);

// ---- JSON ------------------------------------------------------------------

/// Render a double with all its digits ("%.17g"); non-finite values are a
/// benchmark bug and throw.
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& value);
[[nodiscard]] std::string json_array(const std::vector<double>& values);

/// Ordered JSON object built field by field.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, int value);
  JsonObject& add(const std::string& key, bool value);
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add_raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name);
  std::string body_;
};

// ---- process memory --------------------------------------------------------

/// Return freed heap pages to the OS and reset the kernel's peak-RSS
/// high-water mark (VmHWM) to the current RSS. False if the kernel refused
/// the reset, in which case peak_rss_mib() includes earlier peaks.
[[nodiscard]] bool reset_peak_rss();

/// VmHWM of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// ---- output identity -------------------------------------------------------

/// Shape and digest of a sorted (key, count) dump: what a counting job's
/// output is checked against.
struct DumpDigest {
  std::uint64_t distinct = 0;
  std::uint64_t total = 0;
  std::uint64_t hash = 0;  ///< FNV-1a 64 over the little-endian pairs

  friend bool operator==(const DumpDigest&, const DumpDigest&) = default;
};

[[nodiscard]] DumpDigest digest_of(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> sorted_counts);

// ---- serving traffic -------------------------------------------------------

/// Seeded closed-loop traffic over a store's keys: each query is, with
/// probability 7/8, a stored key drawn with Zipf skew `skew` over a seeded
/// shuffle of `stored_sorted`, and otherwise a uniformly drawn k-mer code
/// that is not stored. Identical for one seed, different across seeds.
[[nodiscard]] std::vector<std::uint64_t> make_zipf_traffic(
    const std::vector<std::uint64_t>& stored_sorted, int k, double skew,
    std::size_t queries, std::uint64_t seed);

}  // namespace perfbench
