// Section 5's wheel+list hybrid: residence routing, per-tick cost shape, and the
// long-timer start cost it consciously accepts.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/hybrid_wheel.h"

namespace twheel {
namespace {

TEST(HybridWheelTest, RoutesByIntervalRange) {
  HybridWheel hybrid(64);
  ASSERT_TRUE(hybrid.StartTimer(63, 1).has_value());   // wheel
  ASSERT_TRUE(hybrid.StartTimer(64, 2).has_value());   // list
  ASSERT_TRUE(hybrid.StartTimer(5000, 3).has_value()); // list
  EXPECT_EQ(hybrid.OverflowCountSlow(), 2u);
  EXPECT_EQ(hybrid.outstanding(), 3u);
}

TEST(HybridWheelTest, BothResidencesExpireExactly) {
  HybridWheel hybrid(64);
  std::vector<std::pair<Tick, RequestId>> fired;
  hybrid.set_expiry_handler([&](RequestId id, Tick when, bool) { fired.push_back({when, id}); });
  hybrid.AdvanceBy(11);  // unaligned start
  ASSERT_TRUE(hybrid.StartTimer(30, 1).has_value());
  ASSERT_TRUE(hybrid.StartTimer(64, 2).has_value());
  ASSERT_TRUE(hybrid.StartTimer(301, 3).has_value());
  hybrid.AdvanceBy(301);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<Tick, RequestId>{41, 1}));
  EXPECT_EQ(fired[1], (std::pair<Tick, RequestId>{75, 2}));
  EXPECT_EQ(fired[2], (std::pair<Tick, RequestId>{312, 3}));
}

TEST(HybridWheelTest, ShortTimerStartIsConstantEvenWithDeepOverflow) {
  HybridWheel hybrid(64);
  for (RequestId id = 0; id < 500; ++id) {
    ASSERT_TRUE(hybrid.StartTimer(100 + id, id).has_value());  // all overflow
  }
  auto before = hybrid.counts();
  ASSERT_TRUE(hybrid.StartTimer(10, 999).has_value());
  auto delta = hybrid.counts() - before;
  EXPECT_EQ(delta.comparisons, 0u) << "wheel inserts never touch the list";
}

TEST(HybridWheelTest, LongTimerStartPaysListScan) {
  HybridWheel hybrid(64);
  for (RequestId id = 0; id < 100; ++id) {
    ASSERT_TRUE(hybrid.StartTimer(1000 + id, id).has_value());
  }
  auto before = hybrid.counts();
  ASSERT_TRUE(hybrid.StartTimer(2000, 999).has_value());  // beyond all: full scan
  auto delta = hybrid.counts() - before;
  EXPECT_EQ(delta.comparisons, 100u);
}

TEST(HybridWheelTest, PerTickCostIsWheelSlotPlusHeadCheck) {
  HybridWheel hybrid(64);
  for (RequestId id = 0; id < 200; ++id) {
    ASSERT_TRUE(hybrid.StartTimer(100000 + id, id).has_value());  // far-future list
  }
  auto before = hybrid.counts();
  hybrid.AdvanceBy(1000);
  auto delta = hybrid.counts() - before;
  EXPECT_EQ(delta.empty_slot_checks, 1000u);  // wheel slots all empty
  EXPECT_EQ(delta.comparisons, 1000u);        // one list-head compare per tick
  EXPECT_EQ(delta.decrement_visits, 0u) << "no per-record work until expiry";
}

TEST(HybridWheelTest, StopWorksInBothResidences) {
  HybridWheel hybrid(64);
  std::size_t fired = 0;
  hybrid.set_expiry_handler([&](RequestId, Tick, bool) { ++fired; });
  auto short_timer = hybrid.StartTimer(10, 1);
  auto long_timer = hybrid.StartTimer(500, 2);
  ASSERT_TRUE(short_timer.has_value() && long_timer.has_value());
  EXPECT_EQ(hybrid.StopTimer(short_timer.value()), TimerError::kOk);
  EXPECT_EQ(hybrid.StopTimer(long_timer.value()), TimerError::kOk);
  EXPECT_EQ(hybrid.OverflowCountSlow(), 0u);
  hybrid.AdvanceBy(600);
  EXPECT_EQ(fired, 0u);
}

}  // namespace
}  // namespace twheel
