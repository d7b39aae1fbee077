#include "support.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "dedukt/kmer/kmer.hpp"
#include "dedukt/util/rng.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`.
TailPercentile percentile_of(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile needs samples and 0 < p <= 100");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least p% of samples at or
  // below it.
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  TailPercentile out;
  out.percentile = p;
  out.value = samples[rank - 1];
  out.samples = n;
  out.beyond = n - rank;
  return out;
}

}  // namespace

TailPercentile highest_supported_percentile(std::vector<double> samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    TailPercentile candidate = percentile_of(samples, p);
    if (candidate.beyond >= 10) return candidate;
  }
  return percentile_of(std::move(samples), 50.0);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return out + "]";
}

void JsonObject::key(const std::string& name) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(name) + ": ";
}

JsonObject& JsonObject::add(const std::string& name, double value) {
  key(name);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::add(const std::string& name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::add(const std::string& name, int value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::add(const std::string& name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::add(const std::string& name,
                            const std::string& value) {
  key(name);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::add(const std::string& name, const char* value) {
  return add(name, std::string(value));
}

JsonObject& JsonObject::add_raw(const std::string& name,
                                const std::string& json) {
  key(name);
  body_ += json;
  return *this;
}

bool reset_peak_rss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kib = std::stod(line.substr(6));
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

DumpDigest digest_of(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> sorted_counts) {
  DumpDigest d;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [key, count] : sorted_counts) {
    mix(key);
    mix(count);
    d.total += count;
  }
  d.distinct = sorted_counts.size();
  d.hash = h;
  return d;
}

std::vector<std::uint64_t> make_zipf_traffic(
    const std::vector<std::uint64_t>& stored_sorted, int k, double skew,
    std::size_t queries, std::uint64_t seed) {
  if (stored_sorted.empty()) throw std::invalid_argument("empty store");
  dedukt::Xoshiro256 rng(seed);
  // Popularity ranks are a seeded shuffle, so hot keys spread over shards.
  std::vector<std::uint64_t> ranked = stored_sorted;
  for (std::size_t i = ranked.size(); i > 1; --i) {
    std::swap(ranked[i - 1], ranked[rng.below(i)]);
  }
  std::vector<double> cdf(ranked.size());
  double total = 0.0;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf[r] = total;
  }
  const std::uint64_t key_space = dedukt::kmer::code_mask(k) + 1;
  std::vector<std::uint64_t> traffic;
  traffic.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    if (rng.below(8) == 0) {
      std::uint64_t absent = rng.below(key_space);
      while (std::binary_search(stored_sorted.begin(), stored_sorted.end(),
                                absent)) {
        absent = (absent + 1) % key_space;
      }
      traffic.push_back(absent);
    } else {
      const double u = rng.uniform() * total;
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      const auto r = std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf.begin()), ranked.size() - 1);
      traffic.push_back(ranked[r]);
    }
  }
  return traffic;
}

}  // namespace perfbench
