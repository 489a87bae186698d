// FlatMap: the open-addressed table behind TimerServer's session table. The
// targeted cases build probe runs by hand from the map's own home() — a run
// broken in the middle, a run that wraps past the last slot — so backward-shift
// deletion is checked exactly where it moves entries and where it must not.
// A seeded differential run against std::unordered_map covers the rest, and
// ForEach is checked against the same reference after churn on wrapped runs.

#include "src/base/flat_map.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/rng/rng.h"

namespace twheel {
namespace {

// The first `count` keys (from 1 up) whose home slot in `map` is `home`.
std::vector<std::uint64_t> KeysWithHome(const FlatMap<std::uint64_t>& map,
                                        std::size_t home, std::size_t count) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < count; ++k) {
    if (map.home(k) == home) {
      keys.push_back(k);
    }
  }
  return keys;
}

void Put(FlatMap<std::uint64_t>& map, std::uint64_t key, std::uint64_t value) {
  *map.FindOrInsert(key).first = value;
}

// Every key in `expected` maps to its value, and nothing else is stored.
void ExpectHolds(const FlatMap<std::uint64_t>& map,
                 const std::unordered_map<std::uint64_t, std::uint64_t>& expected) {
  EXPECT_EQ(map.size(), expected.size());
  for (const auto& [key, value] : expected) {
    const std::uint64_t* found = map.Find(key);
    ASSERT_NE(found, nullptr) << "lost key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
  }
}

TEST(FlatMapTest, EmptyMapFindsNothing) {
  FlatMap<std::uint64_t> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), 64u);
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(~std::uint64_t{0}), nullptr);
  EXPECT_FALSE(map.Take(7).has_value());
}

TEST(FlatMapTest, ZeroAndAllOnesAreOrdinaryKeys) {
  // No key value is reserved as an empty marker.
  FlatMap<std::uint64_t> map;
  Put(map, 0, 10);
  Put(map, ~std::uint64_t{0}, 20);
  ExpectHolds(map, {{0, 10}, {~std::uint64_t{0}, 20}});
  EXPECT_TRUE(map.Take(0).has_value());
  ExpectHolds(map, {{~std::uint64_t{0}, 20}});
}

TEST(FlatMapTest, GrowsAcrossSeveralDoublingsAtThreeQuartersLoad) {
  FlatMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> expected;
  std::size_t doublings = 0;
  std::size_t capacity = map.capacity();
  for (std::uint64_t i = 0; i < 5000; ++i) {
    // Cookie-shaped keys: session in the high word, a small timer number low.
    const std::uint64_t key = ((i / 3) << 32) | (i % 3);
    Put(map, key, i);
    expected[key] = i;
    EXPECT_LE(map.size() * 4, map.capacity() * 3) << "over 3/4 full";
    if (map.capacity() != capacity) {
      EXPECT_EQ(map.capacity(), 2 * capacity);
      // A doubling happens only when the insert would pass 3/4 of the old size.
      EXPECT_GT(map.size() * 4, capacity * 3);
      capacity = map.capacity();
      ++doublings;
      ExpectHolds(map, expected);  // every entry survived the rehash
    }
  }
  EXPECT_EQ(doublings, 7u);  // 64 -> 8192
  EXPECT_EQ(map.capacity(), 8192u);
  ExpectHolds(map, expected);
}

TEST(FlatMapTest, OverwriteKeepsOneEntry) {
  FlatMap<std::uint64_t> map;
  auto [first, inserted] = map.FindOrInsert(42);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*first, 0u);  // default-constructed
  *first = 1;
  auto [again, inserted_again] = map.FindOrInsert(42);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again, first);
  EXPECT_EQ(*again, 1u);
  *again = 2;
  ExpectHolds(map, {{42, 2}});
  EXPECT_EQ(map.Take(42), std::optional<std::uint64_t>(2));
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMapTest, EraseInTheMiddleOfAProbeRunShiftsOnlyWhatMayMove) {
  // A run starting at slot 1:
  //   slot 1: a (home 1)   slot 2: b (home 1)   slot 3: c (home 3)
  //   slot 4: d (home 1)   slot 5: e (home 2)
  // Erasing b moves d and e back but must leave c at its own home.
  FlatMap<std::uint64_t> map;
  const std::size_t capacity = map.capacity();
  const std::vector<std::uint64_t> home1 = KeysWithHome(map, 1, 3);
  const std::uint64_t c = KeysWithHome(map, 3, 1)[0];
  const std::uint64_t e = KeysWithHome(map, 2, 1)[0];
  std::unordered_map<std::uint64_t, std::uint64_t> expected;
  for (const std::uint64_t key : {home1[0], home1[1], c, home1[2], e}) {
    Put(map, key, key * 7);
    expected[key] = key * 7;
  }
  ASSERT_EQ(map.capacity(), capacity);
  EXPECT_TRUE(map.Take(home1[1]).has_value());
  expected.erase(home1[1]);
  ExpectHolds(map, expected);
  EXPECT_EQ(map.Find(home1[1]), nullptr);
  // Erase the run's head, then its tail, checking the survivors each time.
  EXPECT_EQ(map.Take(home1[0]), std::optional<std::uint64_t>(home1[0] * 7));
  expected.erase(home1[0]);
  ExpectHolds(map, expected);
  EXPECT_TRUE(map.Take(e).has_value());
  expected.erase(e);
  ExpectHolds(map, expected);
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatMapTest, EraseAcrossTheWraparound) {
  // A run that starts in the last two slots (n-2, n-1) and wraps:
  //   slot n-2: a (home n-2)  slot n-1: b (home n-2)  slot 0: c (home n-1)
  //   slot 1: d (home 0)      slot 2: e (home n-2)
  // Erasing b shifts c, d and e back across the end of the array.
  FlatMap<std::uint64_t> map;
  const std::size_t n = map.capacity();
  const std::vector<std::uint64_t> home_a = KeysWithHome(map, n - 2, 3);
  const std::uint64_t c = KeysWithHome(map, n - 1, 1)[0];
  const std::uint64_t d = KeysWithHome(map, 0, 1)[0];
  std::unordered_map<std::uint64_t, std::uint64_t> expected;
  for (const std::uint64_t key : {home_a[0], home_a[1], c, d, home_a[2]}) {
    Put(map, key, key + 1);
    expected[key] = key + 1;
  }
  ASSERT_EQ(map.capacity(), n);
  EXPECT_TRUE(map.Take(home_a[1]).has_value());
  expected.erase(home_a[1]);
  ExpectHolds(map, expected);
  // Now erase the key whose home is slot 0, which sits past the wrap.
  EXPECT_TRUE(map.Take(d).has_value());
  expected.erase(d);
  ExpectHolds(map, expected);
  // Refill across the wrap, then empty the table completely.
  Put(map, d, 99);
  expected[d] = 99;
  ExpectHolds(map, expected);
  for (const auto& [key, value] : expected) {
    EXPECT_EQ(map.Take(key), std::optional<std::uint64_t>(value));
  }
  EXPECT_EQ(map.size(), 0u);
  for (const auto& [key, value] : expected) {
    EXPECT_EQ(map.Find(key), nullptr);
  }
}

TEST(FlatMapTest, EraseAtRemovesTheSlotFindReturned) {
  // The wrapped run of EraseAcrossTheWraparound, emptied through pointers
  // from Find: the run's middle, the entry past the wrap, then the rest.
  FlatMap<std::uint64_t> map;
  const std::size_t n = map.capacity();
  const std::vector<std::uint64_t> home_a = KeysWithHome(map, n - 2, 3);
  const std::uint64_t c = KeysWithHome(map, n - 1, 1)[0];
  const std::uint64_t d = KeysWithHome(map, 0, 1)[0];
  std::unordered_map<std::uint64_t, std::uint64_t> expected;
  for (const std::uint64_t key : {home_a[0], home_a[1], c, d, home_a[2]}) {
    Put(map, key, key + 1);
    expected[key] = key + 1;
  }
  ASSERT_EQ(map.capacity(), n);
  for (const std::uint64_t key : {home_a[1], d, home_a[0], home_a[2], c}) {
    const std::uint64_t* found = map.Find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    map.EraseAt(found);
    expected.erase(key);
    ExpectHolds(map, expected);
    EXPECT_EQ(map.Find(key), nullptr);
  }
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMapTest, ChurnAtASteadySizeNeverGrowsTheTable) {
  // No tombstones: erased slots are reclaimed at once, so endless
  // insert/erase churn that never holds more than 3/4 of the slots never
  // grows the table.
  FlatMap<std::uint64_t> map;
  const std::size_t capacity = map.capacity();
  std::vector<std::uint64_t> live;
  rng::Xoshiro256 rng(7);
  for (std::uint64_t i = 0; i < 100000; ++i) {
    if (live.size() < capacity * 3 / 4 && (live.empty() || rng.NextBounded(2) == 0)) {
      const std::uint64_t key = rng.Next();
      if (map.FindOrInsert(key).second) {
        live.push_back(key);
      }
    } else {
      const std::size_t victim = rng.NextBounded(live.size());
      ASSERT_TRUE(map.Take(live[victim]).has_value());
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), live.size());
  for (const std::uint64_t key : live) {
    EXPECT_NE(map.Find(key), nullptr);
  }
}

TEST(FlatMapTest, ForEachVisitsEveryEntryOnceAfterWrappedChurn) {
  // 40 keys homed in the last two slots and the first two of the 64-slot
  // table, so probe runs wrap past the end and every erase shifts entries
  // back across it. After each burst of churn ForEach must visit exactly the
  // reference's keys, each once, with its value.
  FlatMap<std::uint64_t> map;
  const std::size_t n = map.capacity();
  std::vector<std::uint64_t> pool;
  for (const std::size_t home : {n - 2, n - 1, std::size_t{0}, std::size_t{1}}) {
    const std::vector<std::uint64_t> keys = KeysWithHome(map, home, 10);
    pool.insert(pool.end(), keys.begin(), keys.end());
  }
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  rng::Xoshiro256 rng(18);
  for (int burst = 0; burst < 200; ++burst) {
    for (int op = 0; op < 50; ++op) {
      const std::uint64_t key = pool[rng.NextBounded(pool.size())];
      if (rng.NextBounded(2) == 0) {
        const std::uint64_t value = rng.Next();
        Put(map, key, value);
        reference[key] = value;
      } else if (const std::uint64_t* found = map.Find(key); found != nullptr) {
        map.EraseAt(found);
        reference.erase(key);
      }
    }
    ASSERT_EQ(map.capacity(), n) << "the churn must stay in one table size";
    std::unordered_map<std::uint64_t, int> visits;
    map.ForEach([&](std::uint64_t key, std::uint64_t& value) {
      ++visits[key];
      const auto it = reference.find(key);
      ASSERT_NE(it, reference.end()) << "visited erased key " << key;
      EXPECT_EQ(value, it->second) << "key " << key;
      ++value;  // ForEach may change values in place
      ++it->second;
    });
    ASSERT_EQ(visits.size(), reference.size()) << "burst " << burst;
    for (const auto& [key, count] : visits) {
      EXPECT_EQ(count, 1) << "key " << key << " visited " << count << " times";
    }
    ExpectHolds(map, reference);
  }
}

TEST(FlatMapTest, SeededDifferentialAgainstUnorderedMap) {
  // 2*10^5 random operations over 512 cookie-shaped keys (64 sessions x 8
  // timer numbers), so runs form, break and wrap constantly.
  FlatMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  rng::Xoshiro256 rng(20260117);
  const auto random_key = [&rng] {
    return (rng.NextBounded(64) << 32) | rng.NextBounded(8);
  };
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = random_key();
    switch (rng.NextBounded(4)) {
      case 0: {  // insert or overwrite
        const std::uint64_t value = rng.Next();
        const bool inserted = map.FindOrInsert(key).second;
        ASSERT_EQ(inserted, reference.count(key) == 0) << "op " << op;
        *map.Find(key) = value;
        reference[key] = value;
        break;
      }
      case 1: {  // find
        const std::uint64_t* found = map.Find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << "op " << op;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "op " << op;
        }
        break;
      }
      case 2:  // erase through the pointer Find returned
        if (const std::uint64_t* found = map.Find(key); found != nullptr) {
          map.EraseAt(found);
          ASSERT_EQ(reference.erase(key), 1u) << "op " << op;
        } else {
          ASSERT_EQ(reference.count(key), 0u) << "op " << op;
        }
        break;
      default: {  // take
        const std::optional<std::uint64_t> taken = map.Take(key);
        const auto it = reference.find(key);
        ASSERT_EQ(taken.has_value(), it != reference.end()) << "op " << op;
        if (it != reference.end()) {
          ASSERT_EQ(*taken, it->second) << "op " << op;
          reference.erase(it);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size()) << "op " << op;
  }
  ExpectHolds(map, reference);
  EXPECT_LE(map.capacity(), 1024u);  // 512 keys at most, at 3/4 load
}

}  // namespace
}  // namespace twheel
