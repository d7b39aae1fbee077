// detail::total_displacement — the claims' probe charge of every count
// launch — against two references: std::sort for the order its radix sort
// leaves the home slots in, and a linear-probing insert with wrap-around,
// key by key in input order, for the total. Table sizes cover one, two and
// three 11-bit digits, with and without a partial last digit.
#include "dedukt/core/device_hash_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dedukt/util/error.hpp"

namespace dedukt::core {
namespace {

/// Σ (final slot − home slot) of inserting keys with these home slots, in
/// this order, into a `capacity`-slot linear-probing table that wraps:
/// each key takes the first free slot at or after its home. `free_from[s]`
/// leads, through path-compressed links, to the first free slot at or
/// after s, so long runs are not walked slot by slot.
std::uint64_t probed_displacement(const std::vector<std::uint32_t>& homes,
                                  std::uint64_t capacity) {
  std::vector<std::uint64_t> free_from(capacity);
  for (std::uint64_t s = 0; s < capacity; ++s) free_from[s] = s;
  const auto first_free = [&](std::uint64_t s) {
    std::uint64_t root = s;
    while (free_from[root] != root) root = free_from[root];
    while (free_from[s] != root) s = std::exchange(free_from[s], root);
    return root;
  };
  std::uint64_t total = 0;
  for (const std::uint64_t home : homes) {
    const std::uint64_t slot = first_free(home);
    total += (slot + capacity - home) % capacity;
    free_from[slot] = (slot + 1) % capacity;
  }
  return total;
}

void expect_matches_references(const std::vector<std::uint32_t>& homes,
                               std::uint64_t capacity,
                               const std::string& kind) {
  std::vector<std::uint32_t> sorted = homes;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> radix = homes;
  EXPECT_EQ(detail::total_displacement(radix, capacity),
            probed_displacement(homes, capacity))
      << kind << ", " << homes.size() << " homes in " << capacity
      << " slots";
  EXPECT_EQ(radix, sorted) << kind << ", " << homes.size() << " homes in "
                           << capacity << " slots";
}

std::vector<std::uint32_t> random_homes(std::mt19937_64& rng, std::size_t n,
                                        std::uint64_t capacity) {
  std::vector<std::uint32_t> homes(n);
  for (std::uint32_t& home : homes) {
    home = static_cast<std::uint32_t>(rng() % capacity);
  }
  return homes;
}

TEST(TotalDisplacementTest, RandomHomes) {
  std::mt19937_64 rng(1);
  for (const std::uint64_t capacity :
       {1ull, 2ull, 8ull, 1ull << 11, 1ull << 12, 1ull << 13, 1ull << 22}) {
    const std::size_t n = std::min<std::uint64_t>(capacity / 2, 200'000);
    expect_matches_references(random_homes(rng, n, capacity), capacity,
                              "random");
  }
  // A count launch's size on perfbench's supermer-hsapiens workload.
  expect_matches_references(random_homes(rng, 95'000, 1ull << 23),
                            1ull << 23, "random");
  expect_matches_references({}, 1ull << 12, "empty");
}

TEST(TotalDisplacementTest, ClusteredHomes) {
  std::mt19937_64 rng(2);
  for (const std::uint64_t capacity : {1ull << 11, 1ull << 13, 1ull << 20}) {
    // Eight narrow clusters, each far longer than its spread, so long runs
    // of keys share homes and push into each other.
    std::vector<std::uint32_t> centers = random_homes(rng, 8, capacity);
    std::vector<std::uint32_t> homes(capacity / 3);
    for (std::uint32_t& home : homes) {
      home = static_cast<std::uint32_t>(
          (centers[rng() % centers.size()] + rng() % 16) % capacity);
    }
    expect_matches_references(homes, capacity, "clustered");
  }
}

TEST(TotalDisplacementTest, FullTable) {
  std::mt19937_64 rng(3);
  for (const std::uint64_t capacity :
       {1ull, 8ull, 1ull << 11, 1ull << 12, 1ull << 14}) {
    expect_matches_references(random_homes(rng, capacity, capacity),
                              capacity, "full, random");
  }
  // Every key on one home: the run fills the table and wraps once.
  expect_matches_references(std::vector<std::uint32_t>(1 << 12, 1000),
                            1ull << 12, "full, one home");
}

TEST(TotalDisplacementTest, WrappingHomes) {
  std::mt19937_64 rng(4);
  for (const std::uint64_t capacity : {1ull << 11, 1ull << 13, 1ull << 16}) {
    // A quarter of the table's keys homed in its last sixteenth: their run
    // passes the last slot and continues from slot 0.
    std::vector<std::uint32_t> homes(capacity / 4);
    for (std::uint32_t& home : homes) {
      home = static_cast<std::uint32_t>(capacity - 1 - rng() % (capacity / 16));
    }
    expect_matches_references(homes, capacity, "wrapping");
    // A few keys placed at the front first, which the wrapped run must
    // pass.
    for (int i = 0; i < 8; ++i) {
      homes.insert(homes.begin(), static_cast<std::uint32_t>(rng() % 4));
    }
    expect_matches_references(homes, capacity, "wrapping into taken slots");
  }
}

TEST(TotalDisplacementTest, TableBeyond32BitHomesIsRejected) {
  // Home slots are 32-bit: a table of more than 2^32 slots is refused when
  // it is built, on a device large enough to hold it.
  gpusim::DeviceProps props = gpusim::DeviceProps::v100();
  props.memory_bytes = std::uint64_t{1} << 40;
  gpusim::Device device(props);
  EXPECT_NO_THROW(DeviceHashTable(device, std::size_t{1} << 32, 1.0));
  EXPECT_THROW(DeviceHashTable(device, (std::size_t{1} << 32) + 1, 1.0),
               PreconditionError);
}

}  // namespace
}  // namespace dedukt::core
