// Scheme 2 (Section 3.2, Figure 2): ordered-list specifics — both search
// directions, scan-cost asymmetries, and the hardware single-timer hook.

#include <gtest/gtest.h>

#include <vector>

#include "src/baselines/sorted_list_timers.h"

namespace twheel {
namespace {

TEST(SortedListTest, Figure2OrderingAndHeadExpiry) {
  // Figure 2's queue: timers due at 10:23:12, 10:23:24, 10:24:03 (as offsets here);
  // a new 10:24:01 timer belongs between the second and third elements.
  SortedListTimers timers;
  std::vector<std::pair<Tick, RequestId>> fired;
  timers.set_expiry_handler([&](RequestId id, Tick when, bool) { fired.push_back({when, id}); });

  ASSERT_TRUE(timers.StartTimer(12, 1).has_value());
  ASSERT_TRUE(timers.StartTimer(24, 2).has_value());
  ASSERT_TRUE(timers.StartTimer(63, 3).has_value());
  ASSERT_TRUE(timers.StartTimer(61, 4).has_value());  // the 10:24:01 insertion

  EXPECT_EQ(timers.NextExpiry(), 12u);
  timers.AdvanceBy(63);
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], (std::pair<Tick, RequestId>{12, 1}));
  EXPECT_EQ(fired[1], (std::pair<Tick, RequestId>{24, 2}));
  EXPECT_EQ(fired[2], (std::pair<Tick, RequestId>{61, 4}));
  EXPECT_EQ(fired[3], (std::pair<Tick, RequestId>{63, 3}));
}

TEST(SortedListTest, FrontAndRearSearchesProduceSameOrder) {
  for (auto direction : {SearchDirection::kFromFront, SearchDirection::kFromRear}) {
    SortedListTimers timers(direction);
    std::vector<RequestId> fired;
    timers.set_expiry_handler([&](RequestId id, Tick, bool) { fired.push_back(id); });
    const Duration intervals[] = {50, 10, 30, 10, 70, 30};
    for (RequestId id = 0; id < 6; ++id) {
      ASSERT_TRUE(timers.StartTimer(intervals[id], id).has_value());
    }
    timers.AdvanceBy(80);
    // Equal expiries (10,10 and 30,30) stay FIFO under either search direction.
    EXPECT_EQ(fired, (std::vector<RequestId>{1, 3, 2, 5, 0, 4})) << "direction "
        << static_cast<int>(direction);
  }
}

TEST(SortedListTest, FrontSearchScanCountMatchesRank) {
  SortedListTimers timers(SearchDirection::kFromFront);
  // List will hold expiries {10, 20, 30}; inserting 25 from the front examines 3
  // elements (10, 20, then 30 which terminates the scan).
  ASSERT_TRUE(timers.StartTimer(10, 1).has_value());
  ASSERT_TRUE(timers.StartTimer(20, 2).has_value());
  ASSERT_TRUE(timers.StartTimer(30, 3).has_value());
  auto before = timers.counts();
  ASSERT_TRUE(timers.StartTimer(25, 4).has_value());
  EXPECT_EQ((timers.counts() - before).comparisons, 3u);
}

TEST(SortedListTest, RearSearchScanCountMatchesReverseRank) {
  SortedListTimers timers(SearchDirection::kFromRear);
  ASSERT_TRUE(timers.StartTimer(10, 1).has_value());
  ASSERT_TRUE(timers.StartTimer(20, 2).has_value());
  ASSERT_TRUE(timers.StartTimer(30, 3).has_value());
  auto before = timers.counts();
  ASSERT_TRUE(timers.StartTimer(25, 4).has_value());
  // From the rear: examines 30, then 20 which terminates.
  EXPECT_EQ((timers.counts() - before).comparisons, 2u);
}

TEST(SortedListTest, RearSearchConstantIntervalsIsO1) {
  // "If timers are always inserted at the rear of the list, this search strategy
  // yields an O(1) START_TIMER latency. This happens, for instance, if all timers
  // intervals have the same value."
  SortedListTimers timers(SearchDirection::kFromRear);
  for (RequestId id = 0; id < 1000; ++id) {
    auto before = timers.counts();
    ASSERT_TRUE(timers.StartTimer(100, id).has_value());
    EXPECT_LE((timers.counts() - before).comparisons, 1u) << "insert " << id;
    timers.PerTickBookkeeping();
  }
}

TEST(SortedListTest, FrontSearchConstantIntervalsIsOn) {
  // The mirror image: constant intervals are the worst case for front search.
  SortedListTimers timers(SearchDirection::kFromFront);
  for (RequestId id = 0; id < 100; ++id) {
    ASSERT_TRUE(timers.StartTimer(1000, id).has_value());
  }
  auto before = timers.counts();
  ASSERT_TRUE(timers.StartTimer(1000, 999).has_value());
  EXPECT_EQ((timers.counts() - before).comparisons, 100u);
}

TEST(SortedListTest, NextExpiryTracksHead) {
  SortedListTimers timers;
  EXPECT_EQ(timers.NextExpiry(), 0u);
  auto h = timers.StartTimer(40, 1);
  ASSERT_TRUE(h.has_value());
  ASSERT_TRUE(timers.StartTimer(60, 2).has_value());
  EXPECT_EQ(timers.NextExpiry(), 40u);
  EXPECT_EQ(timers.StopTimer(h.value()), TimerError::kOk);
  EXPECT_EQ(timers.NextExpiry(), 60u);
}

TEST(SortedListTest, PerTickCostIsConstantWhenNothingExpires) {
  SortedListTimers timers;
  for (RequestId id = 0; id < 500; ++id) {
    ASSERT_TRUE(timers.StartTimer(10000 + id, id).has_value());
  }
  auto before = timers.counts();
  timers.AdvanceBy(100);
  auto delta = timers.counts() - before;
  EXPECT_EQ(delta.comparisons, 100u);  // exactly one head comparison per tick
  EXPECT_EQ(delta.decrement_visits, 0u);
}

}  // namespace
}  // namespace twheel
