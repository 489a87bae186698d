// Batched tick advancement (AdvanceTo) across the wheel schemes plus the Lawn
// store (whose jump hops between bucket-head minima instead of bitmap runs):
// the batched jump must be observationally identical to the per-tick loop
// it replaces — same expiries, same dispatch order, same clock, same tick
// count — while actually skipping dead slots (OpCounts::slots_skipped). Also
// covers the now-exact NextExpiryHint/FastForward capability the bitmaps give
// the wheels, including through sim::Simulator's event-jumping time flow.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/basic_wheel.h"
#include "src/core/hashed_wheel_sorted.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/hierarchical_wheel.h"
#include "src/core/hybrid_wheel.h"
#include "src/core/timer_service.h"
#include "src/lawn/lawn_timers.h"
#include "src/rng/rng.h"
#include "src/sim/simulator.h"

namespace twheel {
namespace {

struct WheelCase {
  std::string label;
  std::function<std::unique_ptr<TimerService>()> make;
  // Largest interval StartTimer accepts (bounded-range schemes).
  Duration max_start;
  // True when expiries land exactly at start + interval. The hierarchical
  // kNone/kSingleStep variants trade precision for fewer migrations by design,
  // so only loop-vs-batch equivalence is asserted for them.
  bool exact;
  // A wrap/rollover boundary worth landing jumps on (table size; level-2 unit
  // for the hierarchy).
  Duration boundary;
};

void PrintTo(const WheelCase& c, std::ostream* os) { *os << c.label; }

constexpr std::array<std::size_t, 3> kLevels = {16, 16, 16};

std::vector<WheelCase> AllWheelCases() {
  std::vector<WheelCase> cases;
  cases.push_back({"basic512",
                   [] { return std::make_unique<BasicWheel>(512); },
                   511, true, 256});
  cases.push_back({"sorted64",
                   [] { return std::make_unique<HashedWheelSorted>(64); },
                   100000, true, 64});
  cases.push_back({"unsorted64",
                   [] { return std::make_unique<HashedWheelUnsorted>(64); },
                   100000, true, 64});
  cases.push_back({"hybrid64",
                   [] { return std::make_unique<HybridWheel>(64); },
                   100000, true, 64});
  cases.push_back({"hier16x3_full",
                   [] { return std::make_unique<HierarchicalWheel>(kLevels); },
                   4095, true, 256});
  cases.push_back({"hier16x3_none",
                   [] {
                     HierarchicalWheelOptions options;
                     options.migration = MigrationPolicy::kNone;
                     return std::make_unique<HierarchicalWheel>(kLevels, options);
                   },
                   4095, false, 256});
  cases.push_back({"hier16x3_single",
                   [] {
                     HierarchicalWheelOptions options;
                     options.migration = MigrationPolicy::kSingleStep;
                     return std::make_unique<HierarchicalWheel>(kLevels, options);
                   },
                   4095, false, 256});
  cases.push_back({"lawn",
                   [] { return std::make_unique<lawn::LawnTimers>(); },
                   100000, true, 64});
  cases.push_back({"lawn_capped4",
                   [] {
                     lawn::LawnOptions options;
                     options.max_distinct_ttls = 4;
                     return std::make_unique<lawn::LawnTimers>(options);
                   },
                   100000, true, 64});
  return cases;
}

using Fired = std::vector<std::pair<Tick, RequestId>>;

void Collect(TimerService& service, Fired& into) {
  service.set_expiry_handler(
      [&into](RequestId id, Tick when, bool) { into.emplace_back(when, id); });
}

class AdvanceToTest : public ::testing::TestWithParam<WheelCase> {};

// Twin services, identical start streams; one advances tick by tick, the other
// in batches whose sizes are pinned to word and wheel boundaries. The fired
// *sequences* (order included), clocks, populations, and tick counters must
// stay identical throughout — and the batched twin must actually have skipped
// slots rather than degenerating into the loop.
TEST_P(AdvanceToTest, BatchedAdvanceMatchesPerTickLoop) {
  const WheelCase& c = GetParam();
  auto loop = c.make();
  auto batch = c.make();
  Fired loop_fired;
  Fired batch_fired;
  Collect(*loop, loop_fired);
  Collect(*batch, batch_fired);

  const Duration steps[] = {1, 3, 63, 64, 65, 255, 256, 257, 511, 512, 513};
  rng::Xoshiro256 rng(0xB17E5 + c.boundary);
  RequestId next_id = 1;
  for (int round = 0; round < 40; ++round) {
    const std::size_t starts = rng.NextBounded(4);
    for (std::size_t i = 0; i < starts; ++i) {
      const Duration cap = std::min<Duration>(c.max_start, 600);
      const Duration interval = 1 + rng.NextBounded(cap);
      const RequestId id = next_id++;
      const StartResult a = loop->StartTimer(interval, id);
      const StartResult b = batch->StartTimer(interval, id);
      ASSERT_EQ(a.has_value(), b.has_value());
    }
    const Duration step = steps[rng.NextBounded(std::size(steps))];
    loop->AdvanceBy(step);
    batch->AdvanceTo(batch->now() + step);
    ASSERT_EQ(loop->now(), batch->now()) << c.label << " round " << round;
    ASSERT_EQ(loop_fired, batch_fired) << c.label << " round " << round;
    ASSERT_EQ(loop->outstanding(), batch->outstanding())
        << c.label << " round " << round;
  }
  EXPECT_GT(loop_fired.size(), 0u) << c.label << ": vacuous";
  const metrics::OpCounts lc = loop->counts();
  const metrics::OpCounts bc = batch->counts();
  EXPECT_EQ(lc.ticks, bc.ticks) << c.label;
  EXPECT_EQ(lc.expiries, bc.expiries) << c.label;
  EXPECT_GT(bc.batch_advances, 0u) << c.label;
  EXPECT_GT(bc.slots_skipped, 0u) << c.label << ": batched twin never skipped";
  EXPECT_EQ(lc.slots_skipped, 0u) << c.label << ": loop twin must not skip";
}

// A jump across a ≥99%-dead span must cross it without dispatching anything,
// while still counting every simulated tick (AdvanceTo is bookkeeping, not the
// hardware-assisted FastForward) and recording the skipped slots.
TEST_P(AdvanceToTest, DeadSpanIsSkippedAndCounted) {
  const WheelCase& c = GetParam();
  auto service = c.make();
  Fired fired;
  Collect(*service, fired);
  ASSERT_TRUE(service->StartTimer(300, 7).has_value());

  const std::optional<Tick> hint = service->NextExpiryHint();
  ASSERT_TRUE(hint.has_value()) << c.label;
  ASSERT_GE(*hint, 1u);
  ASSERT_LE(*hint, 300u);

  EXPECT_EQ(service->AdvanceTo(*hint - 1), 0u) << c.label;
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(service->now(), *hint - 1);
  const metrics::OpCounts counts = service->counts();
  EXPECT_EQ(counts.ticks, *hint - 1) << c.label;
  EXPECT_GE(counts.batch_advances, 1u) << c.label;
  EXPECT_GT(counts.slots_skipped, 0u) << c.label;
  EXPECT_EQ(counts.expiries, 0u) << c.label;

  if (c.exact) {
    EXPECT_EQ(*hint, 300u) << c.label << ": hint must be exact";
    EXPECT_EQ(service->AdvanceTo(300), 1u);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], (std::pair<Tick, RequestId>{300, 7}));
  } else {
    // Imprecise migration policies: only liveness is pinned here.
    EXPECT_EQ(service->AdvanceTo(4096), 1u) << c.label;
  }
  EXPECT_EQ(service->outstanding(), 0u);
}

// Section 3.2's hardware model: FastForward crosses dead time with the clock
// "intercepted", so no ticks are counted, and the hinted tick then fires.
TEST_P(AdvanceToTest, FastForwardCrossesDeadTimeWithoutTickCounting) {
  const WheelCase& c = GetParam();
  auto service = c.make();
  Fired fired;
  Collect(*service, fired);
  ASSERT_TRUE(service->StartTimer(37, 1).has_value());

  const std::optional<Tick> hint = service->NextExpiryHint();
  ASSERT_TRUE(hint.has_value()) << c.label;
  ASSERT_LE(*hint, 37u) << c.label << ": hint may never be late";

  ASSERT_TRUE(service->FastForward(*hint - 1)) << c.label;
  EXPECT_EQ(service->now(), *hint - 1);
  EXPECT_EQ(service->counts().ticks, 0u)
      << c.label << ": hardware-intercepted ticks must not be counted";
  EXPECT_TRUE(fired.empty());

  if (c.exact) {
    EXPECT_EQ(*hint, 37u);
    EXPECT_EQ(service->PerTickBookkeeping(), 1u) << c.label;
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], (std::pair<Tick, RequestId>{37, 1}));
  } else {
    EXPECT_EQ(service->AdvanceTo(4096), 1u) << c.label;
    EXPECT_EQ(fired.size(), 1u);
  }
}

// Jump targets landing exactly one short of, on, and one past the scheme's wrap
// boundary, with a timer due at each: the off-by-one landscape the bitmap's
// circular distance must get right.
TEST_P(AdvanceToTest, JumpsLandingOnWrapBoundariesFireExactly) {
  const WheelCase& c = GetParam();
  if (!c.exact) {
    GTEST_SKIP() << c.label << " trades expiry precision by design";
  }
  auto service = c.make();
  Fired fired;
  Collect(*service, fired);
  const Duration b = c.boundary;
  ASSERT_TRUE(service->StartTimer(b - 1, 1).has_value());
  ASSERT_TRUE(service->StartTimer(b, 2).has_value());
  ASSERT_TRUE(service->StartTimer(b + 1, 3).has_value());

  EXPECT_EQ(service->AdvanceTo(b - 1), 1u) << c.label;
  EXPECT_EQ(service->AdvanceTo(b), 1u) << c.label;
  EXPECT_EQ(service->AdvanceTo(b + 1), 1u) << c.label;
  const Fired expected = {{b - 1, 1}, {b, 2}, {b + 1, 3}};
  EXPECT_EQ(fired, expected) << c.label;
  EXPECT_EQ(service->outstanding(), 0u);
}

// A handler re-arm landing *inside* the window still being jumped must fire in
// the same AdvanceTo call: the batched loops re-query the occupancy bitmap
// after every drain, so mid-batch insertions are never overshot.
TEST_P(AdvanceToTest, HandlerRearmInsideJumpWindowFires) {
  const WheelCase& c = GetParam();
  if (!c.exact) {
    GTEST_SKIP() << c.label << " trades expiry precision by design";
  }
  auto service = c.make();
  Fired fired;
  TimerService* raw = service.get();
  service->set_expiry_handler([&fired, raw](RequestId id, Tick when, bool) {
    fired.emplace_back(when, id);
    if (id == 1) {
      ASSERT_TRUE(raw->StartTimer(5, 2).has_value());
    }
  });
  ASSERT_TRUE(service->StartTimer(10, 1).has_value());

  EXPECT_EQ(service->AdvanceTo(60), 2u) << c.label;
  const Fired expected = {{10, 1}, {15, 2}};
  EXPECT_EQ(fired, expected) << c.label;
  EXPECT_EQ(service->now(), 60u);
  EXPECT_EQ(service->outstanding(), 0u);
}

// The capability the bitmaps unlock at the top of the stack: Section 4's
// event-jumping time flow now works with a wheel as the pending-event set.
TEST_P(AdvanceToTest, SimulatorJumpsOverDeadTimeOnWheels) {
  const WheelCase& c = GetParam();
  sim::Simulator simulator(c.make());
  int ran = 0;
  ASSERT_TRUE(simulator.After(7, [&ran] { ++ran; }).valid());
  ASSERT_TRUE(simulator.After(200, [&ran] { ++ran; }).valid());
  const std::optional<Tick> covered = simulator.RunUntilIdleJumping(100000);
  ASSERT_TRUE(covered.has_value()) << c.label << " cannot jump";
  EXPECT_EQ(ran, 2) << c.label;
  EXPECT_EQ(simulator.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWheels, AdvanceToTest,
                         ::testing::ValuesIn(AllWheelCases()),
                         [](const ::testing::TestParamInfo<WheelCase>& param) {
                           return param.param.label;
                         });

}  // namespace
}  // namespace twheel
