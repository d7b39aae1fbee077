#include "dedukt/kmer/supermer.hpp"

#include <span>

#include "dedukt/util/error.hpp"

namespace dedukt::kmer {

namespace {

/// The k-mer codes of one fragment of at least k bases and each k-mer's
/// minimizer (minimizers_of), in one allocation: the builders' one walk.
class KmerScan {
 public:
  KmerScan(std::string_view fragment, int k, const MinimizerPolicy& policy)
      : n_(fragment.size() - static_cast<std::size_t>(k) + 1), data_(2 * n_) {
    std::size_t i = 0;
    for_each_kmer(fragment, k, policy.encoding(),
                  [&](KmerCode code) { data_[i++] = code; });
    const std::span<KmerCode> all(data_);
    minimizers_of(all.first(n_), k, policy, all.subspan(n_));
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] KmerCode code(std::size_t i) const { return data_[i]; }
  [[nodiscard]] KmerCode minimizer(std::size_t i) const {
    return data_[n_ + i];
  }

 private:
  std::size_t n_;
  std::vector<KmerCode> data_;  // n_ codes, then their n_ minimizers
};

}  // namespace

void SupermerConfig::validate() const {
  DEDUKT_REQUIRE_MSG(k >= 2 && k <= kMaxPackedK, "k out of range: " << k);
  DEDUKT_REQUIRE_MSG(m >= 1 && m < k, "need 1 <= m < k, got m=" << m
                                          << " k=" << k);
  DEDUKT_REQUIRE_MSG(window >= 1, "window must be >= 1");
  if (wide) {
    DEDUKT_REQUIRE_MSG(
        max_supermer_bases() <= kMaxWideK,
        "k + window - 1 = " << max_supermer_bases()
                            << " bases will not pack into two 64-bit words");
  } else {
    DEDUKT_REQUIRE_MSG(
        max_supermer_bases() <= kMaxPackedK,
        "k + window - 1 = " << max_supermer_bases()
                            << " bases will not pack into a 64-bit word");
  }
}

void build_supermers(std::string_view fragment, const SupermerConfig& config,
                     std::uint32_t parts,
                     std::vector<DestinedSupermer>& out) {
  config.validate();
  DEDUKT_REQUIRE(parts >= 1);
  const int k = config.k;
  if (fragment.size() < static_cast<std::size_t>(k)) return;

  // One walk over the fragment gives every k-mer's code and minimizer;
  // each window's "thread" then walks its k-mer starts exactly as
  // Algorithm 2 does.
  const KmerScan scan(fragment, k, config.policy());
  const std::size_t nkmers = scan.size();
  const auto window = static_cast<std::size_t>(config.window);
  for (std::size_t wstart = 0; wstart < nkmers; wstart += window) {
    const std::size_t wend = std::min(wstart + window, nkmers);

    // First k-mer of the window seeds the supermer (Algorithm 2 lines 4-10).
    PackedSupermer current{scan.code(wstart), static_cast<std::uint8_t>(k)};
    KmerCode prev_min = scan.minimizer(wstart);

    for (std::size_t p = wstart + 1; p < wend; ++p) {
      const KmerCode minimizer = scan.minimizer(p);
      if (minimizer == prev_min) {
        // Same minimizer: extend with the k-mer's last base
        // (Algorithm 2 lines 20-21).
        current.bases = append_base(
            current.bases, static_cast<io::BaseCode>(scan.code(p) & 3));
        current.len += 1;
      } else {
        // New minimizer: flush and restart (lines 14-18).
        out.push_back(
            {current, minimizer_partition(prev_min, parts), prev_min});
        current = PackedSupermer{scan.code(p), static_cast<std::uint8_t>(k)};
        prev_min = minimizer;
      }
    }
    out.push_back({current, minimizer_partition(prev_min, parts), prev_min});
  }
}

std::vector<DestinedSupermer> build_supermers_read(
    std::string_view read, const SupermerConfig& config,
    std::uint32_t parts) {
  std::vector<DestinedSupermer> out;
  for (std::string_view fragment : acgt_fragments(read)) {
    build_supermers(fragment, config, parts, out);
  }
  return out;
}

void build_wide_supermers(std::string_view fragment,
                          const SupermerConfig& config, std::uint32_t parts,
                          std::vector<DestinedWideSupermer>& out) {
  DEDUKT_REQUIRE_MSG(config.wide,
                     "build_wide_supermers needs config.wide = true");
  config.validate();
  DEDUKT_REQUIRE(parts >= 1);
  const int k = config.k;
  if (fragment.size() < static_cast<std::size_t>(k)) return;

  const KmerScan scan(fragment, k, config.policy());
  const std::size_t nkmers = scan.size();
  const auto window = static_cast<std::size_t>(config.window);
  for (std::size_t wstart = 0; wstart < nkmers; wstart += window) {
    const std::size_t wend = std::min(wstart + window, nkmers);

    WideCode current = scan.code(wstart);
    std::uint8_t len = static_cast<std::uint8_t>(k);
    KmerCode prev_min = scan.minimizer(wstart);

    auto flush = [&] {
      out.push_back({PackedWideSupermer{to_key(current), len},
                     minimizer_partition(prev_min, parts), prev_min});
    };
    for (std::size_t p = wstart + 1; p < wend; ++p) {
      const KmerCode minimizer = scan.minimizer(p);
      if (minimizer == prev_min) {
        current = wide_append(current,
                              static_cast<io::BaseCode>(scan.code(p) & 3));
        len += 1;
      } else {
        flush();
        current = scan.code(p);
        len = static_cast<std::uint8_t>(k);
        prev_min = minimizer;
      }
    }
    flush();
  }
}

std::vector<DestinedWideSupermer> build_wide_supermers_read(
    std::string_view read, const SupermerConfig& config,
    std::uint32_t parts) {
  std::vector<DestinedWideSupermer> out;
  for (std::string_view fragment : acgt_fragments(read)) {
    build_wide_supermers(fragment, config, parts, out);
  }
  return out;
}

std::vector<MaximalSupermer> build_supermers_maximal(
    std::string_view fragment, int k, const MinimizerPolicy& policy,
    std::uint32_t parts) {
  DEDUKT_REQUIRE(k >= 2 && k <= kMaxPackedK);
  DEDUKT_REQUIRE(policy.m() < k);
  std::vector<MaximalSupermer> out;
  if (fragment.size() < static_cast<std::size_t>(k)) return out;

  const KmerScan scan(fragment, k, policy);
  const std::size_t nkmers = scan.size();
  std::size_t start = 0;  // base index where the current supermer starts
  KmerCode prev_min = scan.minimizer(0);
  for (std::size_t p = 1; p < nkmers; ++p) {
    const KmerCode minimizer = scan.minimizer(p);
    if (minimizer != prev_min) {
      MaximalSupermer smer;
      // Supermer spans base `start` through the last base of k-mer p-1.
      smer.bases = std::string(
          fragment.substr(start, (p - 1) + static_cast<std::size_t>(k) -
                                     start));
      smer.minimizer = prev_min;
      smer.dest = minimizer_partition(prev_min, parts);
      out.push_back(std::move(smer));
      start = p;
      prev_min = minimizer;
    }
  }
  MaximalSupermer last;
  last.bases = std::string(fragment.substr(start));
  last.minimizer = prev_min;
  last.dest = minimizer_partition(prev_min, parts);
  out.push_back(std::move(last));
  return out;
}

}  // namespace dedukt::kmer
