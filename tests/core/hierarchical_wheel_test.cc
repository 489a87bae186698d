// Scheme 7 (Section 6.2): hierarchy construction, the exact Figure 10 -> Figure 11
// worked example, migration accounting, range limits, and the Wick Nichols
// precision-trading variants.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/core/hierarchical_wheel.h"

namespace twheel {
namespace {

// The paper's second/minute/hour/day geometry: 60 + 60 + 24 + 100 = 244 slots
// instead of 8.64 million.
constexpr std::array<std::size_t, 4> kPaperLevels = {60, 60, 24, 100};

TEST(HierarchicalWheelTest, PaperGeometryProperties) {
  HierarchicalWheel wheel(kPaperLevels);
  EXPECT_EQ(wheel.num_levels(), 4u);
  EXPECT_EQ(wheel.granularity(0), 1u);        // seconds
  EXPECT_EQ(wheel.granularity(1), 60u);       // minutes
  EXPECT_EQ(wheel.granularity(2), 3600u);     // hours
  EXPECT_EQ(wheel.granularity(3), 86400u);    // days
  EXPECT_EQ(wheel.max_interval(), 100u * 86400u - 86400u);  // 99 days
}

TEST(HierarchicalWheelTest, Figure10To11WorkedExample) {
  // "Let the current time be 11 days 10 hours, 24 minutes, 30 seconds. Then to set a
  // timer of 50 minutes and 45 seconds, we first calculate the absolute time at
  // which the timer will expire. This is 11 days, 11 hours, 15 minutes, 15 seconds.
  // Then we insert the timer into a list beginning 1 (11 - 10 hours) element ahead
  // of the current hour pointer in the hour array."
  HierarchicalWheel wheel(kPaperLevels);
  const Tick start = 11 * 86400 + 10 * 3600 + 24 * 60 + 30;
  wheel.AdvanceBy(start);
  ASSERT_EQ(wheel.now(), start);

  std::vector<Tick> fired;
  wheel.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });

  const Duration interval = 50 * 60 + 45;  // 50 minutes 45 seconds
  ASSERT_TRUE(wheel.StartTimer(interval, 1).has_value());

  // Figure 10: the timer sits in the hour array (level 2).
  EXPECT_EQ(wheel.LevelPopulationSlow(2), 1u);
  EXPECT_EQ(wheel.LevelPopulationSlow(1), 0u);
  EXPECT_EQ(wheel.LevelPopulationSlow(0), 0u);

  // Advance to the top of hour 11 (the Figure 11 moment): "EXPIRY_PROCESSING will
  // insert the remainder of the seconds in the minute array, 15 elements after the
  // current minute pointer (0)."
  const Tick hour11 = 11 * 86400 + 11 * 3600;
  wheel.AdvanceBy(hour11 - start);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.LevelPopulationSlow(2), 0u);
  EXPECT_EQ(wheel.LevelPopulationSlow(1), 1u);  // minute array, slot 15

  // "Eventually, the minute array will reach the 15th element; as part of
  // EXPIRY_PROCESSING we will move the timer into the SECOND array 15 seconds after
  // the current value."
  wheel.AdvanceBy(15 * 60 - 1);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.LevelPopulationSlow(1), 1u);
  wheel.PerTickBookkeeping();  // minute boundary: migrate to second array
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.LevelPopulationSlow(1), 0u);
  EXPECT_EQ(wheel.LevelPopulationSlow(0), 1u);

  // "15 seconds later the timer will actually expire."
  wheel.AdvanceBy(15);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], start + interval);
  EXPECT_EQ(fired[0], 11 * 86400 + 11 * 3600 + 15 * 60 + 15);

  // Exactly the paper's two migrations: hour -> minute -> second.
  EXPECT_EQ(wheel.counts().migrations, 2u);
}

TEST(HierarchicalWheelTest, ZeroRemainderSkipsLevels) {
  // "Of course, if the minutes remaining were zero, we could go directly to the
  // second array" — and with zero seconds too, expiry happens at the hour visit.
  HierarchicalWheel wheel(kPaperLevels);
  std::vector<Tick> fired;
  wheel.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
  wheel.AdvanceBy(3600);  // aligned at an hour boundary

  ASSERT_TRUE(wheel.StartTimer(2 * 3600, 1).has_value());  // exactly two hours
  EXPECT_EQ(wheel.LevelPopulationSlow(2), 1u);
  wheel.AdvanceBy(2 * 3600);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3 * 3600u);
  EXPECT_EQ(wheel.counts().migrations, 0u);  // expired straight from the hour array
}

TEST(HierarchicalWheelTest, MigrationCountBoundedByLevels) {
  HierarchicalWheel wheel(kPaperLevels);
  std::size_t fired = 0;
  wheel.set_expiry_handler([&](RequestId, Tick, bool) { ++fired; });
  // A day-level timer with nonzero day/hour/minute/second digits migrates
  // day -> hour -> minute -> second = m - 1 = 3 times.
  ASSERT_TRUE(wheel.StartTimer(86400 + 3600 + 60 + 1, 1).has_value());
  wheel.AdvanceBy(86400 + 3600 + 60 + 1);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(wheel.counts().migrations, 3u);
}

TEST(HierarchicalWheelTest, RangeRejectAndClamp) {
  HierarchicalWheel reject(kPaperLevels);
  auto r = reject.StartTimer(reject.max_interval() + 1, 1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), TimerError::kIntervalOutOfRange);
  EXPECT_TRUE(reject.StartTimer(reject.max_interval(), 2).has_value());

  HierarchicalWheelOptions options;
  options.overflow = OverflowPolicy::kClamp;
  HierarchicalWheel clamp(kPaperLevels, options);
  std::vector<Tick> fired;
  clamp.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
  ASSERT_TRUE(clamp.StartTimer(clamp.max_interval() + 12345, 1).has_value());
  clamp.AdvanceBy(clamp.max_interval());
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], clamp.max_interval());
}

TEST(HierarchicalWheelTest, ExactExpiryForBoundaryIntervalsFromUnalignedNow) {
  // Sweep intervals across level granularity boundaries from a deliberately ugly
  // current time; full migration must deliver exact expiry for all of them.
  HierarchicalWheel wheel(std::array<std::size_t, 3>{8, 8, 8});
  wheel.AdvanceBy(123);  // not aligned to anything
  std::vector<std::pair<Tick, RequestId>> fired;
  wheel.set_expiry_handler([&](RequestId id, Tick when, bool) { fired.push_back({when, id}); });

  std::vector<Tick> expected;
  RequestId id = 0;
  for (Duration interval :
       {Duration{1},  Duration{7},   Duration{8},   Duration{9},   Duration{63},
        Duration{64}, Duration{65},  Duration{127}, Duration{128}, Duration{129},
        Duration{447}, Duration{448}}) {
    ASSERT_LE(interval, wheel.max_interval());
    expected.push_back(wheel.now() + interval);
    ASSERT_TRUE(wheel.StartTimer(interval, id++).has_value());
  }
  wheel.AdvanceBy(600);
  ASSERT_EQ(fired.size(), expected.size());
  for (const auto& [when, rid] : fired) {
    EXPECT_EQ(when, expected[rid]) << "interval index " << rid;
  }
}

TEST(HierarchicalWheelTest, StopDuringAnyResidenceLevel) {
  HierarchicalWheel wheel(kPaperLevels);
  std::size_t fired = 0;
  wheel.set_expiry_handler([&](RequestId, Tick, bool) { ++fired; });

  auto h = wheel.StartTimer(3 * 3600 + 30 * 60 + 30, 1);  // 3h30m30s
  ASSERT_TRUE(h.has_value());
  // Let it migrate into the minute array, then stop it there.
  wheel.AdvanceBy(3 * 3600 + 1);
  EXPECT_EQ(wheel.LevelPopulationSlow(1), 1u);
  EXPECT_EQ(wheel.StopTimer(h.value()), TimerError::kOk);
  wheel.AdvanceBy(7200);
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(wheel.outstanding(), 0u);
}

TEST(HierarchicalWheelTest, NoMigrationModeRoundsWithinOneUnit) {
  // Wick Nichols: "we would round off to the nearest hour and only set the timer in
  // hours... a loss in precision of up to 50%". The fire tick may deviate from the
  // exact expiry by at most the insertion level's granularity.
  HierarchicalWheelOptions options;
  options.migration = MigrationPolicy::kNone;
  HierarchicalWheel wheel(std::array<std::size_t, 3>{16, 16, 16}, options);
  wheel.AdvanceBy(57);

  for (Duration interval : {Duration{5}, Duration{20}, Duration{100}, Duration{300},
                            Duration{1000}, Duration{3000}}) {
    std::vector<Tick> fired;
    wheel.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
    const Tick exact = wheel.now() + interval;
    ASSERT_TRUE(wheel.StartTimer(interval, 1).has_value());
    wheel.AdvanceBy(2 * interval + 512);
    ASSERT_EQ(fired.size(), 1u) << "interval " << interval;
    // Error bound: one unit of the coarsest granularity the interval can occupy.
    Duration bound = 1;
    for (std::size_t level = 0; level < wheel.num_levels(); ++level) {
      if (wheel.granularity(level) <= interval) {
        bound = wheel.granularity(level);
      }
    }
    const Tick fired_at = fired[0];
    const Duration error =
        fired_at > exact ? fired_at - exact : exact - fired_at;
    EXPECT_LE(error, bound) << "interval " << interval;
    EXPECT_EQ(wheel.counts().migrations, 0u);
  }
}

TEST(HierarchicalWheelTest, SingleStepModeErrorBoundedByAdjacentGranularity) {
  // "Alternately, we can improve the precision by allowing just one migration
  // between adjacent lists."
  HierarchicalWheelOptions options;
  options.migration = MigrationPolicy::kSingleStep;
  HierarchicalWheel wheel(std::array<std::size_t, 3>{16, 16, 16}, options);
  wheel.AdvanceBy(39);

  for (Duration interval : {Duration{300}, Duration{1000}, Duration{3000}}) {
    std::vector<Tick> fired;
    wheel.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
    const Tick exact = wheel.now() + interval;
    ASSERT_TRUE(wheel.StartTimer(interval, 1).has_value());
    wheel.AdvanceBy(2 * interval + 512);
    ASSERT_EQ(fired.size(), 1u) << "interval " << interval;
    // After one migration the timer rests one level below its insertion level; the
    // residual error is under that level's granularity. For these intervals the
    // insertion level is at most 2, so the bound is g(1) = 16.
    const Tick fired_at = fired[0];
    ASSERT_LE(fired_at, exact);
    EXPECT_LT(exact - fired_at, 16u) << "interval " << interval;
  }
}

TEST(HierarchicalWheelTest, SpaceIsSumNotProductOfLevelSizes) {
  // "Instead of 100 * 24 * 60 * 60 = 8.64 million locations to store timers up to
  // 100 days, we need only 100 + 24 + 60 + 60 = 244 locations." We can't observe
  // allocation directly here, but the span/slots relationship is testable.
  HierarchicalWheel wheel(kPaperLevels);
  std::size_t total_slots = 0;
  for (std::size_t level = 0; level < wheel.num_levels(); ++level) {
    total_slots += level == 0 ? 60 : level == 1 ? 60 : level == 2 ? 24 : 100;
  }
  EXPECT_EQ(total_slots, 244u);
  EXPECT_EQ(wheel.max_interval() + 86400u, 8640000u);  // spans the 8.64M ticks
}

TEST(HierarchicalWheelDeathTest, BadGeometriesAbort) {
  EXPECT_DEATH(HierarchicalWheel(std::array<std::size_t, 1>{64}), "2..8 levels");
  EXPECT_DEATH(HierarchicalWheel(std::array<std::size_t, 2>{1, 64}),
               "at least two slots");
}

}  // namespace
}  // namespace twheel
