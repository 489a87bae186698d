// Scheme 4 (Section 5, Figure 8): range-bounded timing wheel specifics.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/basic_wheel.h"

namespace twheel {
namespace {

TEST(BasicWheelTest, RejectsIntervalAtOrBeyondMaxInterval) {
  BasicWheel wheel(16);
  auto at_max = wheel.StartTimer(16, 1);
  ASSERT_FALSE(at_max.has_value());
  EXPECT_EQ(at_max.error(), TimerError::kIntervalOutOfRange);
  auto beyond = wheel.StartTimer(1000, 2);
  ASSERT_FALSE(beyond.has_value());
  EXPECT_EQ(beyond.error(), TimerError::kIntervalOutOfRange);
  // The maximum representable interval is MaxInterval - 1.
  EXPECT_TRUE(wheel.StartTimer(15, 3).has_value());
}

TEST(BasicWheelTest, ClampPolicySaturates) {
  BasicWheel wheel(16, OverflowPolicy::kClamp);
  std::vector<Tick> fired;
  wheel.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
  ASSERT_TRUE(wheel.StartTimer(1000, 1).has_value());
  wheel.AdvanceBy(15);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 15u);  // clamped to MaxInterval - 1
}

TEST(BasicWheelTest, CursorWrapsModuloMaxInterval) {
  BasicWheel wheel(8);
  EXPECT_EQ(wheel.cursor(), 0u);
  wheel.AdvanceBy(8);
  EXPECT_EQ(wheel.cursor(), 0u);
  wheel.AdvanceBy(3);
  EXPECT_EQ(wheel.cursor(), 3u);
  EXPECT_EQ(wheel.now(), 11u);
}

TEST(BasicWheelTest, ExpiryCorrectAcrossManyRevolutions) {
  // Start timers from arbitrary cursor positions over many wraps; each must fire at
  // exactly start + interval.
  BasicWheel wheel(32);
  std::vector<std::pair<Tick, RequestId>> fired;
  wheel.set_expiry_handler([&](RequestId id, Tick when, bool) { fired.push_back({when, id}); });

  Tick expected_expiry[100];
  RequestId id = 0;
  for (int revolution = 0; revolution < 10; ++revolution) {
    for (int step = 0; step < 10; ++step) {
      Duration interval = 1 + (id * 7) % 31;  // spans [1, 31]
      expected_expiry[id] = wheel.now() + interval;
      ASSERT_TRUE(wheel.StartTimer(interval, id).has_value());
      ++id;
      wheel.AdvanceBy(3);
    }
  }
  wheel.AdvanceBy(40);  // drain
  ASSERT_EQ(fired.size(), 100u);
  for (const auto& [when, rid] : fired) {
    EXPECT_EQ(when, expected_expiry[rid]) << "request " << rid;
  }
}

TEST(BasicWheelTest, StartCostIndependentOfOutstandingCount) {
  // The O(1) claim, in op counts: the 10,000th start does the same link work as the
  // first.
  BasicWheel wheel(1024);
  auto cost_of_one_start = [&](RequestId id) {
    auto before = wheel.counts();
    EXPECT_TRUE(wheel.StartTimer(500, id).has_value());
    auto delta = wheel.counts() - before;
    return delta.comparisons + delta.insert_link_ops;
  };
  std::uint64_t first = cost_of_one_start(0);
  for (RequestId id = 1; id < 10000; ++id) {
    ASSERT_TRUE(wheel.StartTimer(1 + id % 1000, id + 100000).has_value());
  }
  std::uint64_t later = cost_of_one_start(1);
  EXPECT_EQ(first, later);
  EXPECT_EQ(later, 1u);  // exactly one link op, zero comparisons
}

TEST(BasicWheelTest, EmptyTickCostsOneSlotCheck) {
  BasicWheel wheel(64);
  auto before = wheel.counts();
  wheel.AdvanceBy(100);
  auto delta = wheel.counts() - before;
  EXPECT_EQ(delta.empty_slot_checks, 100u);
  EXPECT_EQ(delta.decrement_visits, 0u);
}

TEST(BasicWheelTest, SameSlotDifferentRevolutionNeverConfused) {
  // With MaxInterval 8, timers started 8 ticks apart share a slot index but never an
  // occupancy: the first leaves before the second arrives.
  BasicWheel wheel(8);
  std::vector<RequestId> fired;
  wheel.set_expiry_handler([&](RequestId id, Tick, bool) { fired.push_back(id); });
  ASSERT_TRUE(wheel.StartTimer(7, 1).has_value());
  wheel.AdvanceBy(7);
  ASSERT_TRUE(wheel.StartTimer(7, 2).has_value());
  wheel.AdvanceBy(7);
  EXPECT_EQ(fired, (std::vector<RequestId>{1, 2}));
}

TEST(BasicWheelTest, StopFromOccupiedSlotLeavesSiblings) {
  BasicWheel wheel(16);
  std::vector<RequestId> fired;
  wheel.set_expiry_handler([&](RequestId id, Tick, bool) { fired.push_back(id); });
  auto a = wheel.StartTimer(5, 1);
  auto b = wheel.StartTimer(5, 2);
  auto c = wheel.StartTimer(5, 3);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  EXPECT_EQ(wheel.StopTimer(b.value()), TimerError::kOk);
  wheel.AdvanceBy(5);
  EXPECT_EQ(fired, (std::vector<RequestId>{1, 3}));
}

TEST(BasicWheelDeathTest, TooSmallWheelAborts) {
  EXPECT_DEATH(BasicWheel wheel(1), "at least two slots");
}

}  // namespace
}  // namespace twheel
