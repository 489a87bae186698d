// The Appendix A.1 chip protocol: behavioural equivalence with plain Scheme 6,
// message accounting, and the free-empty-ticks property.

#include <gtest/gtest.h>

#include "src/core/hashed_wheel_unsorted.h"
#include "src/hw/timer_chip.h"
#include "src/workload/workload.h"

namespace twheel::hw {
namespace {

TEST(ChipAssistedWheelTest, BehavesExactlyLikeScheme6) {
  workload::WorkloadSpec spec;
  spec.seed = 61;
  spec.intervals = workload::IntervalKind::kExponential;
  spec.interval_mean = 90.0;
  spec.interval_cap = 2000;
  spec.arrival_rate = 1.5;
  spec.stop_fraction = 0.4;
  spec.measured_starts = 5000;

  ChipAssistedWheel chip(64);
  HashedWheelUnsorted plain(64);
  auto chip_result = workload::Run(chip, spec);
  auto plain_result = workload::Run(plain, spec);
  EXPECT_EQ(chip_result.trace, plain_result.trace)
      << "the chip must not change observable timer behaviour";
  EXPECT_EQ(workload::NormalizedTrace(chip_result.trace), workload::PredictedTrace(spec));
}

TEST(ChipAssistedWheelTest, EmptyTicksCostTheHostNothing) {
  ChipAssistedWheel chip(64);
  chip.AdvanceBy(1000);
  EXPECT_EQ(chip.chip_scans(), 1000u);
  EXPECT_EQ(chip.host_interrupts(), 0u);
  EXPECT_EQ(chip.counts().empty_slot_checks, 0u)
      << "the chip, not the host, steps empty slots";
  EXPECT_EQ(chip.counts().TickWork(), 0u);
}

TEST(ChipAssistedWheelTest, BusyNotificationOnlyForFirstQueueEntry) {
  ChipAssistedWheel chip(64);
  // Three timers into the same queue (same slot, different rounds).
  ASSERT_TRUE(chip.StartTimer(64, 1).has_value());
  EXPECT_EQ(chip.busy_notifications(), 1u);
  ASSERT_TRUE(chip.StartTimer(128, 2).has_value());
  ASSERT_TRUE(chip.StartTimer(192, 3).has_value());
  EXPECT_EQ(chip.busy_notifications(), 1u) << "queue already marked busy";
}

TEST(ChipAssistedWheelTest, FreeNotificationOnlyWhenQueueDrains) {
  ChipAssistedWheel chip(64);
  auto a = chip.StartTimer(64, 1);
  auto b = chip.StartTimer(128, 2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(chip.StopTimer(a.value()), TimerError::kOk);
  EXPECT_EQ(chip.free_notifications(), 0u) << "queue still occupied";
  EXPECT_EQ(chip.StopTimer(b.value()), TimerError::kOk);
  EXPECT_EQ(chip.free_notifications(), 1u);
}

TEST(ChipAssistedWheelTest, InterruptPerBusyVisitIncludingRoundsPasses) {
  ChipAssistedWheel chip(64);
  // One long timer: cursor passes its busy slot once per revolution.
  ASSERT_TRUE(chip.StartTimer(64 * 5, 1).has_value());
  chip.AdvanceBy(64 * 5);
  EXPECT_EQ(chip.counts().expiries, 1u);
  EXPECT_EQ(chip.host_interrupts(), 5u);  // 4 decrement visits + the expiry visit
  EXPECT_EQ(chip.free_notifications(), 1u);
}

TEST(ChipAssistedWheelTest, ExpiryDrainSendsFree) {
  ChipAssistedWheel chip(64);
  ASSERT_TRUE(chip.StartTimer(10, 1).has_value());
  ASSERT_TRUE(chip.StartTimer(10, 2).has_value());
  chip.AdvanceBy(10);
  EXPECT_EQ(chip.counts().expiries, 2u);
  EXPECT_EQ(chip.host_interrupts(), 1u);  // both in one queue visit
  EXPECT_EQ(chip.free_notifications(), 1u);
  chip.AdvanceBy(200);
  EXPECT_EQ(chip.host_interrupts(), 1u) << "freed slot must not interrupt again";
}

TEST(ChipAssistedWheelTest, ReentrantRearmKeepsBusyBitConsistent) {
  ChipAssistedWheel chip(64);
  int fires = 0;
  chip.set_expiry_handler([&](RequestId id, Tick, bool) {
    if (++fires < 3) {
      // Re-arm into the same queue (interval a multiple of the table size).
      ASSERT_TRUE(chip.StartTimer(64, id).has_value());
    }
  });
  ASSERT_TRUE(chip.StartTimer(64, 1).has_value());
  chip.AdvanceBy(64 * 4);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(chip.outstanding(), 0u);
  // After the last expiry the queue drained for good; no interrupts afterwards.
  std::uint64_t interrupts = chip.host_interrupts();
  chip.AdvanceBy(256);
  EXPECT_EQ(chip.host_interrupts(), interrupts);
}

}  // namespace
}  // namespace twheel::hw
