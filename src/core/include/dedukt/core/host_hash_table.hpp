// Host-side open-addressing k-mer counter — the hash table of the CPU
// baseline (Algorithm 1 lines 10-15) and the merge target for gathered
// results. Linear probing, power-of-two capacity, grows by doubling.
//
// Generic over the key type: HostHashTable counts single-word packed
// k-mers (k <= 31, the paper's regime); WideHostHashTable counts two-word
// wide k-mers (k <= 63). The key traits also carry each width's k-mer walk
// with routing, which the CPU pipelines and the out-of-core pass 1 share.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/kmer.hpp"
#include "dedukt/kmer/minimizer.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

/// Key policy for single-word packed k-mers (k <= 31).
struct NarrowKeyTraits {
  using Key = kmer::KmerCode;
  [[nodiscard]] static constexpr Key invalid() { return kmer::kInvalidCode; }
  [[nodiscard]] static constexpr std::uint64_t hash(const Key& key,
                                                    std::uint64_t seed) {
    return hash::hash_u64(key, seed);
  }

  /// Visit every k-mer of an ACGT-only `fragment` as (destination rank,
  /// key): Algorithm 1's parse and route, canonicalized on request.
  template <typename Fn>
  static void for_each_routed(std::string_view fragment, int k,
                              bool canonical, io::BaseEncoding enc,
                              std::uint32_t parts, Fn&& fn) {
    kmer::for_each_kmer(fragment, k, enc, [&](kmer::KmerCode code) {
      if (canonical) code = kmer::canonical(code, k, enc);
      fn(kmer::kmer_partition(code, parts), code);
    });
  }
};

/// Key policy for two-word wide k-mers (31 < k <= 63): the 16-byte WideKey
/// goes on the wire, so the exchanged volume per k-mer doubles.
struct WideKeyTraits {
  using Key = kmer::WideKey;
  [[nodiscard]] static constexpr Key invalid() {
    return kmer::kInvalidWideKey;
  }
  [[nodiscard]] static constexpr std::uint64_t hash(const Key& key,
                                                    std::uint64_t seed) {
    return kmer::hash_wide(key, seed);
  }

  template <typename Fn>
  static void for_each_routed(std::string_view fragment, int k,
                              bool canonical, io::BaseEncoding enc,
                              std::uint32_t parts, Fn&& fn) {
    kmer::for_each_wide_kmer(fragment, k, enc, [&](kmer::WideCode code) {
      if (canonical) code = kmer::wide_canonical(code, k, enc);
      fn(kmer::wide_kmer_partition(code, parts), kmer::to_key(code));
    });
  }
};

template <typename Traits>
class BasicHostHashTable {
 public:
  using Key = typename Traits::Key;

  /// Seed for the slot hash; distinct from the destination hash so the
  /// per-rank tables do not inherit the partitioning function's structure.
  static constexpr std::uint64_t kProbeSeed = 0x7AB1Eu;

  explicit BasicHostHashTable(std::size_t expected_keys = 64) {
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(expected_keys * 2, 16));
    keys_.assign(capacity, Traits::invalid());
    counts_.assign(capacity, 0);
  }

  /// Add `count` occurrences of `key` (Algorithm 1: INSERT or INCREMENT).
  /// Returns true when the key was new to the table (an INSERT). The
  /// one-key case of add_all.
  bool add(const Key& key, std::uint64_t count = 1) {
    bool inserted = false;
    add_all([&](auto& add_one) { inserted = add_one(key, count); });
    return inserted;
  }

  /// Bulk add: `visit(add)` calls `add(key, count)` once per occurrence,
  /// which adds as add() does and returns what add() would. The array
  /// pointers, mask, size and total live in locals for the whole visit, and
  /// the visit is compiled into one loop with them (flatten), so an
  /// occurrence costs no call and no reload; size and total are written
  /// back when the table grows and when the visit returns or throws. The
  /// probe sequence and the growth rule are add()'s, so the table ends
  /// with the slot layout of the same add() calls made one by one.
  template <typename Visit>
  [[gnu::flatten]] void add_all(Visit&& visit) {
    Key* keys = keys_.data();
    std::uint64_t* counts = counts_.data();
    std::size_t mask = keys_.size() - 1;
    std::size_t size = size_;
    std::uint64_t total = total_;
    const auto add = [&](const Key& key, std::uint64_t count) {
      if ((size + 1) * 2 > mask + 1 || key == Traits::invalid())
          [[unlikely]] {
        size_ = size;
        total_ = total;
        make_room(key);
        keys = keys_.data();
        counts = counts_.data();
        mask = keys_.size() - 1;
      }
      total += count;
      const std::size_t slot = probe(keys, mask, key);
      if (keys[slot] == key) {
        counts[slot] += count;
        return false;
      }
      keys[slot] = key;
      counts[slot] = count;
      ++size;
      return true;
    };
    try {
      visit(add);
    } catch (...) {
      size_ = size;
      total_ = total;
      throw;
    }
    size_ = size;
    total_ = total;
  }

  /// Count of `key` (0 if absent).
  [[nodiscard]] std::uint64_t count(const Key& key) const {
    const std::size_t slot = probe(keys_.data(), keys_.size() - 1, key);
    return keys_[slot] == key ? counts_[slot] : 0;
  }

  /// Number of distinct keys.
  [[nodiscard]] std::size_t unique() const { return size_; }

  /// Sum of all counts.
  [[nodiscard]] std::uint64_t total() const { return total_; }

  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

  /// Visit all (key, count) pairs in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (!(keys_[i] == Traits::invalid())) fn(keys_[i], counts_[i]);
    }
  }

  /// Extract all entries as a vector (sorted by key for determinism).
  [[nodiscard]] std::vector<std::pair<Key, std::uint64_t>> entries_sorted()
      const {
    std::vector<std::pair<Key, std::uint64_t>> out;
    out.reserve(size_);
    for_each([&](const Key& key, std::uint64_t count) {
      out.emplace_back(key, count);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Merge another table into this one.
  void merge(const BasicHostHashTable& other) {
    add_all([&](auto& add) {
      other.for_each(
          [&](const Key& key, std::uint64_t count) { add(key, count); });
    });
  }

 private:
  /// The bulk add's rare case, out of its loop: reject the sentinel
  /// `key`, and grow the table when one more key would fill more than half
  /// of it.
  [[gnu::noinline]] void make_room(const Key& key) {
    DEDUKT_REQUIRE_MSG(
        !(key == Traits::invalid()),
        "the all-ones key is reserved as the empty-slot sentinel");
    if ((size_ + 1) * 2 > keys_.size()) grow();
  }

  void grow() {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<std::uint64_t> old_counts = std::move(counts_);
    keys_.assign(old_keys.size() * 2, Traits::invalid());
    counts_.assign(old_counts.size() * 2, 0);
    size_ = 0;
    total_ = 0;
    add_all([&](auto& add) {
      for (std::size_t i = 0; i < old_keys.size(); ++i) {
        if (!(old_keys[i] == Traits::invalid())) {
          add(old_keys[i], old_counts[i]);
        }
      }
    });
  }

  /// The slot of the `mask + 1` slots at `keys` that holds `key`, or the
  /// empty slot that ends its probe sequence.
  [[nodiscard]] static std::size_t probe(const Key* keys, std::size_t mask,
                                         const Key& key) {
    std::size_t slot = Traits::hash(key, kProbeSeed) & mask;
    while (!(keys[slot] == key) && !(keys[slot] == Traits::invalid())) {
      slot = (slot + 1) & mask;  // linear probing (§III-B3)
    }
    return slot;
  }

  std::vector<Key> keys_;
  std::vector<std::uint64_t> counts_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

/// The paper's regime: single-word packed k-mers (k <= 31).
using HostHashTable = BasicHostHashTable<NarrowKeyTraits>;

/// Wide k-mers (31 < k <= 63), used by the wide CPU pipeline.
using WideHostHashTable = BasicHostHashTable<WideKeyTraits>;

}  // namespace dedukt::core
