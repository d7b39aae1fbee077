#include "dedukt/core/host_hash_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dedukt/util/rng.hpp"

namespace dedukt::core {
namespace {

TEST(HostHashTableTest, InsertAndIncrement) {
  HostHashTable table;
  table.add(42);
  table.add(42);
  table.add(7);
  EXPECT_EQ(table.count(42), 2u);
  EXPECT_EQ(table.count(7), 1u);
  EXPECT_EQ(table.count(99), 0u);
  EXPECT_EQ(table.unique(), 2u);
  EXPECT_EQ(table.total(), 3u);
}

TEST(HostHashTableTest, AddWithExplicitCount) {
  HostHashTable table;
  table.add(5, 10);
  table.add(5, 3);
  EXPECT_EQ(table.count(5), 13u);
  EXPECT_EQ(table.total(), 13u);
}

TEST(HostHashTableTest, GrowsBeyondInitialCapacity) {
  HostHashTable table(4);
  const std::size_t initial_capacity = table.capacity();
  for (std::uint64_t key = 0; key < 10'000; ++key) table.add(key);
  EXPECT_GT(table.capacity(), initial_capacity);
  EXPECT_EQ(table.unique(), 10'000u);
  for (std::uint64_t key = 0; key < 10'000; ++key) {
    ASSERT_EQ(table.count(key), 1u);
  }
}

TEST(HostHashTableTest, MatchesUnorderedMapUnderRandomWorkload) {
  Xoshiro256 rng(55);
  HostHashTable table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  for (int op = 0; op < 50'000; ++op) {
    const std::uint64_t key = rng.below(5'000);  // force collisions
    table.add(key);
    ++oracle[key];
  }
  EXPECT_EQ(table.unique(), oracle.size());
  for (const auto& [key, count] : oracle) {
    ASSERT_EQ(table.count(key), count);
  }
}

TEST(HostHashTableTest, RejectsSentinelKey) {
  HostHashTable table;
  EXPECT_THROW(table.add(kmer::kInvalidCode), PreconditionError);
}

TEST(HostHashTableTest, EntriesSortedIsSortedAndComplete) {
  HostHashTable table;
  for (std::uint64_t key : {9ull, 1ull, 5ull, 1ull}) table.add(key);
  const auto entries = table.entries_sorted();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (std::pair<std::uint64_t, std::uint64_t>{1, 2}));
  EXPECT_EQ(entries[1], (std::pair<std::uint64_t, std::uint64_t>{5, 1}));
  EXPECT_EQ(entries[2], (std::pair<std::uint64_t, std::uint64_t>{9, 1}));
}

TEST(HostHashTableTest, MergeCombinesCounts) {
  HostHashTable a, b;
  a.add(1, 2);
  a.add(2, 1);
  b.add(2, 5);
  b.add(3, 7);
  a.merge(b);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.count(2), 6u);
  EXPECT_EQ(a.count(3), 7u);
  EXPECT_EQ(a.total(), 15u);
}

TEST(HostHashTableTest, ForEachVisitsEveryEntryOnce) {
  HostHashTable table;
  for (std::uint64_t key = 100; key < 200; ++key) table.add(key, key);
  std::uint64_t visits = 0, sum = 0;
  table.for_each([&](std::uint64_t key, std::uint64_t count) {
    ++visits;
    EXPECT_EQ(key, count);
    sum += count;
  });
  EXPECT_EQ(visits, 100u);
  EXPECT_EQ(sum, (100 + 199) * 100 / 2);
}

TEST(HostHashTableTest, AdversarialKeysCollidingModCapacity) {
  // Keys spaced by the capacity would all share a slot under a bare modulo;
  // MurmurHash3 probing must keep them distinct and countable.
  HostHashTable table(16);
  const std::size_t cap = table.capacity();
  for (std::uint64_t i = 0; i < 100; ++i) table.add(i * cap);
  EXPECT_EQ(table.unique(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(table.count(i * cap), 1u);
  }
}

// --- The bulk add, on both key widths ---

template <typename Table>
class HostHashTableBulkAddTest : public testing::Test {};

using Tables = testing::Types<HostHashTable, WideHostHashTable>;
TYPED_TEST_SUITE(HostHashTableBulkAddTest, Tables);

/// Key `i` of a table's width: distinct for distinct `i`, never the
/// sentinel.
template <typename Table>
typename Table::Key key_of(std::uint64_t i) {
  if constexpr (std::is_same_v<Table, WideHostHashTable>) {
    return kmer::WideKey{i % 3, i * 0x9E3779B97F4A7C15ull};
  } else {
    return i * 0x9E3779B97F4A7C15ull;
  }
}

template <typename Table>
typename Table::Key sentinel() {
  if constexpr (std::is_same_v<Table, WideHostHashTable>) {
    return kmer::kInvalidWideKey;
  } else {
    return kmer::kInvalidCode;
  }
}

/// The table's for_each sequence, in slot order.
template <typename Table>
std::vector<std::pair<typename Table::Key, std::uint64_t>> slots_of(
    const Table& table) {
  std::vector<std::pair<typename Table::Key, std::uint64_t>> out;
  table.for_each([&](const auto& key, std::uint64_t count) {
    out.emplace_back(key, count);
  });
  return out;
}

/// 12'000 distinct keys, which grow a table from its 128 slots to 32 Ki,
/// with repeats and counts above 1 between the first adds.
template <typename Table>
std::vector<std::pair<typename Table::Key, std::uint64_t>> seeded_adds() {
  Xoshiro256 rng(71);
  std::vector<std::pair<typename Table::Key, std::uint64_t>> adds;
  for (std::uint64_t i = 0; i < 12'000; ++i) {
    adds.emplace_back(key_of<Table>(i), 1 + rng.below(3));
    adds.emplace_back(key_of<Table>(rng.below(i + 1)), 1 + rng.below(5));
  }
  return adds;
}

TYPED_TEST(HostHashTableBulkAddTest, MatchesOneByOneAddsAcrossEveryGrowth) {
  const auto adds = seeded_adds<TypeParam>();
  TypeParam one_by_one;
  ASSERT_EQ(one_by_one.capacity(), 128u);
  std::vector<bool> added_one_by_one;
  for (const auto& [key, count] : adds) {
    added_one_by_one.push_back(one_by_one.add(key, count));
  }
  TypeParam bulk;
  std::vector<bool> added_in_bulk;
  bulk.add_all([&](auto& add) {
    for (const auto& [key, count] : adds) {
      added_in_bulk.push_back(add(key, count));
    }
  });
  EXPECT_EQ(one_by_one.capacity(), 32'768u);
  EXPECT_EQ(bulk.capacity(), one_by_one.capacity());
  EXPECT_EQ(bulk.unique(), one_by_one.unique());
  EXPECT_EQ(bulk.total(), one_by_one.total());
  EXPECT_EQ(added_in_bulk, added_one_by_one);
  EXPECT_EQ(slots_of(bulk), slots_of(one_by_one));
}

/// The layout of plain linear probing, written out with separate key and
/// count arrays: home slot `hash(key, kProbeSeed) & mask`, then one slot
/// on, and growth to twice the slots, by re-adding the old slots in slot
/// order, when one more key would fill more than half of them.
template <typename Table>
std::vector<std::pair<typename Table::Key, std::uint64_t>> reference_slots(
    const std::vector<std::pair<typename Table::Key, std::uint64_t>>& adds) {
  using Key = typename Table::Key;
  const auto home = [](const Key& key) -> std::uint64_t {
    if constexpr (std::is_same_v<Table, WideHostHashTable>) {
      return WideKeyTraits::hash(key, Table::kProbeSeed);
    } else {
      return NarrowKeyTraits::hash(key, Table::kProbeSeed);
    }
  };
  std::vector<Key> keys(128, sentinel<Table>());
  std::vector<std::uint64_t> counts(128, 0);
  std::size_t size = 0;
  const auto place = [&](const Key& key, std::uint64_t count) {
    const std::size_t mask = keys.size() - 1;
    std::size_t slot = home(key) & mask;
    while (!(keys[slot] == key) && !(keys[slot] == sentinel<Table>())) {
      slot = (slot + 1) & mask;
    }
    if (keys[slot] == key) {
      counts[slot] += count;
      return;
    }
    keys[slot] = key;
    counts[slot] = count;
    ++size;
  };
  for (const auto& [key, count] : adds) {
    if ((size + 1) * 2 > keys.size()) {
      const std::vector<Key> old_keys = std::move(keys);
      const std::vector<std::uint64_t> old_counts = std::move(counts);
      keys.assign(old_keys.size() * 2, sentinel<Table>());
      counts.assign(old_keys.size() * 2, 0);
      size = 0;
      for (std::size_t i = 0; i < old_keys.size(); ++i) {
        if (!(old_keys[i] == sentinel<Table>())) {
          place(old_keys[i], old_counts[i]);
        }
      }
    }
    place(key, count);
  }
  std::vector<std::pair<Key, std::uint64_t>> out;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!(keys[i] == sentinel<Table>())) out.emplace_back(keys[i], counts[i]);
  }
  return out;
}

TYPED_TEST(HostHashTableBulkAddTest, SlotLayoutIsThatOfPlainLinearProbing) {
  const auto adds = seeded_adds<TypeParam>();
  TypeParam bulk;
  bulk.add_all([&](auto& add) {
    for (const auto& [key, count] : adds) add(key, count);
  });
  EXPECT_EQ(slots_of(bulk), reference_slots<TypeParam>(adds));
}

TYPED_TEST(HostHashTableBulkAddTest,
           SentinelMidVisitThrowsAndKeepsEarlierAdds) {
  TypeParam table;
  std::uint64_t before = 0;
  EXPECT_THROW(table.add_all([&](auto& add) {
    // 200 adds cross two growths before the sentinel arrives.
    for (std::uint64_t i = 0; i < 200; ++i) {
      add(key_of<TypeParam>(i % 150), 2);
      before += 2;
    }
    add(sentinel<TypeParam>(), 1);
    add(key_of<TypeParam>(999), 1);
  }),
               PreconditionError);
  EXPECT_EQ(table.unique(), 150u);
  EXPECT_EQ(table.total(), before);
  EXPECT_EQ(table.count(key_of<TypeParam>(999)), 0u);
}

TYPED_TEST(HostHashTableBulkAddTest, ThrowingVisitorKeepsTheAddsMadeBeforeIt) {
  TypeParam table;
  table.add(key_of<TypeParam>(0), 5);
  EXPECT_THROW(table.add_all([&](auto& add) {
    for (std::uint64_t i = 0; i < 100; ++i) add(key_of<TypeParam>(i), 1);
    throw std::runtime_error("visitor stops");
  }),
               std::runtime_error);
  EXPECT_EQ(table.unique(), 100u);
  EXPECT_EQ(table.total(), 105u);
  EXPECT_EQ(table.count(key_of<TypeParam>(0)), 6u);
  // The table stays usable after the throw.
  EXPECT_TRUE(table.add(key_of<TypeParam>(100), 1));
  EXPECT_EQ(table.unique(), 101u);
  EXPECT_EQ(table.total(), 106u);
}

}  // namespace
}  // namespace dedukt::core
