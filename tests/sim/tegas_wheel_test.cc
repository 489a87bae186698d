// The Section 4.2 logic-simulation wheel: overflow-list mechanics, the
// growing-overflow defect the paper identifies, and the half-cycle mitigation.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/tegas_wheel.h"
#include "src/workload/workload.h"

namespace twheel::sim {
namespace {

TEST(TegasWheelTest, ExactExpiryWithinAndBeyondCycle) {
  TegasWheel wheel(16);
  std::vector<std::pair<Tick, RequestId>> fired;
  wheel.set_expiry_handler([&](RequestId id, Tick when, bool) { fired.push_back({when, id}); });
  ASSERT_TRUE(wheel.StartTimer(5, 1).has_value());    // in-cycle
  ASSERT_TRUE(wheel.StartTimer(15, 2).has_value());   // last in-cycle slot
  ASSERT_TRUE(wheel.StartTimer(16, 3).has_value());   // first overflow
  ASSERT_TRUE(wheel.StartTimer(100, 4).has_value());  // deep overflow
  EXPECT_EQ(wheel.OverflowSizeSlow(), 2u);
  wheel.AdvanceBy(100);
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], (std::pair<Tick, RequestId>{5, 1}));
  EXPECT_EQ(fired[1], (std::pair<Tick, RequestId>{15, 2}));
  EXPECT_EQ(fired[2], (std::pair<Tick, RequestId>{16, 3}));
  EXPECT_EQ(fired[3], (std::pair<Tick, RequestId>{100, 4}));
  EXPECT_EQ(wheel.OverflowSizeSlow(), 0u);
}

TEST(TegasWheelTest, LateInCycleInsertsOverflowMoreOften) {
  // "As time increases within a cycle and we travel down the array it becomes more
  // likely that event records will be inserted in the overflow list."
  TegasWheel early(16);
  ASSERT_TRUE(early.StartTimer(10, 1).has_value());  // at tick 0: fits cycle 0
  EXPECT_EQ(early.OverflowSizeSlow(), 0u);

  TegasWheel late(16);
  late.AdvanceBy(10);                               // cursor late in the cycle
  ASSERT_TRUE(late.StartTimer(10, 1).has_value());  // same interval now overflows
  EXPECT_EQ(late.OverflowSizeSlow(), 1u);
}

TEST(TegasWheelTest, HalfCycleRotationReducesOverflowInsertions) {
  // DECSIM's mitigation: draining twice per cycle keeps the array's coverage window
  // at least half a cycle ahead, so a mid-cycle insert of a near-future event that
  // the full-cycle wheel banishes to overflow goes straight into the array.
  TegasWheel full(16, RotatePolicy::kFullCycle);
  TegasWheel half(16, RotatePolicy::kHalfCycle);
  std::size_t full_fired = 0, half_fired = 0;
  full.set_expiry_handler([&](RequestId, Tick, bool) { ++full_fired; });
  half.set_expiry_handler([&](RequestId, Tick, bool) { ++half_fired; });

  full.AdvanceBy(10);  // late in cycle 0: full wheel covers only up to tick 15
  half.AdvanceBy(10);  // half wheel drained at tick 8: covered up to tick 23
  ASSERT_TRUE(full.StartTimer(10, 1).has_value());  // due at 20
  ASSERT_TRUE(half.StartTimer(10, 1).has_value());
  EXPECT_EQ(full.OverflowSizeSlow(), 1u);
  EXPECT_EQ(half.OverflowSizeSlow(), 0u);

  // Both still fire exactly on time.
  full.AdvanceBy(10);
  half.AdvanceBy(10);
  EXPECT_EQ(full_fired, 1u);
  EXPECT_EQ(half_fired, 1u);
}

TEST(TegasWheelTest, OverflowRescannedEveryRotation) {
  // The cost the paper's schemes avoid: a far-future event is examined once per
  // wheel rotation while it waits.
  TegasWheel wheel(16);
  ASSERT_TRUE(wheel.StartTimer(160, 1).has_value());  // 10 cycles out
  wheel.AdvanceBy(159);
  // Scanned at each of the 9 intermediate rotations (ticks 16..144) plus the
  // rotation that finally drains it (tick 160 not yet reached).
  EXPECT_EQ(wheel.overflow_scans(), 9u);
  EXPECT_EQ(wheel.overflow_drains(), 0u);
  wheel.AdvanceBy(1);
  EXPECT_EQ(wheel.overflow_scans(), 10u);
  EXPECT_EQ(wheel.overflow_drains(), 1u);
  EXPECT_EQ(wheel.counts().expiries, 1u);
}

TEST(TegasWheelTest, StopWorksInBothResidences) {
  TegasWheel wheel(16);
  std::size_t fired = 0;
  wheel.set_expiry_handler([&](RequestId, Tick, bool) { ++fired; });
  auto in_cycle = wheel.StartTimer(5, 1);
  auto in_overflow = wheel.StartTimer(100, 2);
  ASSERT_TRUE(in_cycle.has_value() && in_overflow.has_value());
  EXPECT_EQ(wheel.StopTimer(in_cycle.value()), TimerError::kOk);
  EXPECT_EQ(wheel.StopTimer(in_overflow.value()), TimerError::kOk);
  wheel.AdvanceBy(128);
  EXPECT_EQ(fired, 0u);
}

TEST(TegasWheelTest, MatchesPredictedTraceOnRandomWorkload) {
  // The TEGAS wheel is also an exact timer service; pin it with the differential
  // machinery.
  workload::WorkloadSpec spec;
  spec.seed = 31;
  spec.intervals = workload::IntervalKind::kUniform;
  spec.interval_lo = 1;
  spec.interval_hi = 300;
  spec.arrival_rate = 1.0;
  spec.stop_fraction = 0.3;
  spec.measured_starts = 3000;
  for (RotatePolicy policy : {RotatePolicy::kFullCycle, RotatePolicy::kHalfCycle}) {
    TegasWheel wheel(32, policy);
    auto result = workload::Run(wheel, spec);
    EXPECT_EQ(workload::NormalizedTrace(result.trace), workload::PredictedTrace(spec))
        << wheel.name();
  }
}

}  // namespace
}  // namespace twheel::sim
