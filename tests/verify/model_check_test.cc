// Differential model checking: every TimerService implementation, against the
// sorted-multimap oracle, over ≥ 100 independently seeded randomized episodes
// each. An episode mixes starts, stops, stale-handle pokes, zero-interval
// rejects, and (where the implementation's handler contract allows) in-handler
// re-arms, sibling stops, and next-tick starts; after every tick the expiry
// *sets*, outstanding() population, and clocks must be identical. See
// src/verify/differential_driver.h for the decide-then-replay protocol.
//
// The jump suites additionally interleave randomized AdvanceTo batches — the
// occupancy-bitmap fast path — pinned to wheel-size and hierarchy-rollover
// boundaries, checked (tick, id)-exactly against the oracle's loop default.

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "src/verify/differential_driver.h"
#include "tests/verify/all_services.h"

namespace twheel::verify {
namespace {

using verify_tests::AllServiceCases;
using verify_tests::ServiceCase;

class ModelCheckTest : public ::testing::TestWithParam<ServiceCase> {};

// 100 seeded episodes of plain workload (no handler re-entrancy): every
// implementation, including the lock-holding wrapper, must track the oracle.
TEST_P(ModelCheckTest, HundredSeededEpisodesMatchOracle) {
  const ServiceCase& c = GetParam();
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    DriverOptions options;
    options.seed = seed;
    options.ticks = 96;
    options.starts_per_tick = 1.5 + 0.01 * static_cast<double>(seed % 7);
    options.max_interval = 200;
    auto service = c.make();
    const DriverReport report = RunDifferential(*service, options);
    ASSERT_TRUE(report.ok) << c.label << " seed " << seed << ": "
                           << report.divergence;
    ASSERT_GT(report.starts, 0u) << c.label << " seed " << seed << ": vacuous";
  }
}

// Episodes with the full re-entrancy alphabet enabled, for every implementation
// whose handler contract permits calling back into the service.
TEST_P(ModelCheckTest, ReentrantEpisodesMatchOracle) {
  const ServiceCase& c = GetParam();
  if (!c.handlers_may_reenter) {
    GTEST_SKIP() << c.label << " runs handlers under its lock (by design)";
  }
  for (std::uint64_t seed = 1000; seed < 1040; ++seed) {
    DriverOptions options;
    options.seed = seed;
    options.ticks = 96;
    options.max_interval = 200;
    options.rearm_probability = 0.3;
    options.stop_sibling_probability = 0.3;
    options.start_next_tick_probability = 0.2;
    options.self_poke_probability = 0.5;
    auto service = c.make();
    const DriverReport report = RunDifferential(*service, options);
    ASSERT_TRUE(report.ok) << c.label << " seed " << seed << ": "
                           << report.divergence;
    // The alphabet must actually have been exercised, not just configured.
    EXPECT_GT(report.handler_rearms + report.handler_sibling_stops +
                  report.handler_next_tick_starts,
              0u)
        << c.label << " seed " << seed;
  }
}

// High-churn episodes: bursty arrivals and aggressive cancellation recycle arena
// slots rapidly, so the stale-handle pokes hit recently reused slots — the exact
// situation generation counters exist for.
TEST_P(ModelCheckTest, ChurnEpisodesKeepHandlesSafe) {
  const ServiceCase& c = GetParam();
  for (std::uint64_t seed = 2000; seed < 2020; ++seed) {
    DriverOptions options;
    options.seed = seed;
    options.ticks = 128;
    options.starts_per_tick = 4.0;
    options.min_interval = 1;
    options.max_interval = 24;  // short fuses: constant expiry + recycling
    options.stop_probability = 0.8;
    options.stale_poke_probability = 1.0;
    auto service = c.make();
    const DriverReport report = RunDifferential(*service, options);
    ASSERT_TRUE(report.ok) << c.label << " seed " << seed << ": "
                           << report.divergence;
    EXPECT_GT(report.stale_pokes, 0u) << c.label << " seed " << seed;
  }
}

// 100 seeded episodes where a quarter of the ticks are replaced by AdvanceTo
// jumps. The pivot deltas land exactly on, one short of, and one past the wheel
// sizes in play (64, 256 = hierarchical level-2 unit, 512 = the Scheme 4
// configuration), so cursor wraps and cascade boundaries are hit dead-on rather
// than only by chance. The oracle has no AdvanceTo override: it runs the base
// class's bookkeeping loop, making every episode a batched-vs-loop equivalence
// check for the implementation's occupancy-bitmap skipping.
TEST_P(ModelCheckTest, JumpEpisodesMatchOracle) {
  const ServiceCase& c = GetParam();
  std::size_t total_jumps = 0;
  std::size_t total_jump_ticks = 0;
  for (std::uint64_t seed = 3000; seed < 3100; ++seed) {
    DriverOptions options;
    options.seed = seed;
    options.ticks = 64;
    options.max_interval = 300;
    options.jump_probability = 0.25;
    options.max_jump = 300;
    options.jump_pivots = {63, 64, 65, 255, 256, 257, 511, 512, 513};
    auto service = c.make();
    const DriverReport report = RunDifferential(*service, options);
    ASSERT_TRUE(report.ok) << c.label << " seed " << seed << ": "
                           << report.divergence;
    ASSERT_GT(report.starts, 0u) << c.label << " seed " << seed << ": vacuous";
    total_jumps += report.jumps;
    total_jump_ticks += report.jump_ticks;
  }
  // The jump alphabet must actually have been exercised across the suite.
  EXPECT_GT(total_jumps, 0u) << c.label;
  EXPECT_GT(total_jump_ticks, total_jumps) << c.label << ": only 1-tick jumps";
}

// Fewer, bigger episodes whose pivots cross the full {16,16,16} hierarchical
// span (4096) and the 1024 level boundary: a single jump can force cascades at
// every level, including the all-levels-aligned rollover tick.
TEST_P(ModelCheckTest, SpanRolloverJumpsMatchOracle) {
  const ServiceCase& c = GetParam();
  std::size_t total_jumps = 0;
  for (std::uint64_t seed = 4000; seed < 4010; ++seed) {
    DriverOptions options;
    options.seed = seed;
    options.ticks = 32;
    options.max_interval = 300;
    options.jump_probability = 0.3;
    options.max_jump = 600;
    options.jump_pivots = {1023, 1024, 1025, 4095, 4096, 4097};
    auto service = c.make();
    const DriverReport report = RunDifferential(*service, options);
    ASSERT_TRUE(report.ok) << c.label << " seed " << seed << ": "
                           << report.divergence;
    total_jumps += report.jumps;
  }
  EXPECT_GT(total_jumps, 0u) << c.label;
}

// A deadline past the end of Tick is refused, never wrapped into the past: at
// tick 10 a huge start, periodic start and restart each return
// kIntervalOutOfRange, and the live timer still fires once, at its old deadline.
TEST_P(ModelCheckTest, DeadlinesPastTheEndOfTickAreRefused) {
  const ServiceCase& c = GetParam();
  auto service = c.make();
  std::vector<std::pair<Tick, RequestId>> fired;
  service->set_expiry_handler(
      [&fired](RequestId id, Tick when, bool) { fired.emplace_back(when, id); });
  service->AdvanceTo(10);
  const TimerHandle live = service->StartTimer(5, 1).value();
  const Duration huge = std::numeric_limits<Duration>::max() - 2;
  const StartResult start = service->StartTimer(huge, 2);
  ASSERT_FALSE(start.has_value()) << c.label;
  EXPECT_EQ(start.error(), TimerError::kIntervalOutOfRange) << c.label;
  const StartResult periodic = service->StartPeriodic(huge, 3);
  ASSERT_FALSE(periodic.has_value()) << c.label;
  EXPECT_EQ(periodic.error(), TimerError::kIntervalOutOfRange) << c.label;
  EXPECT_EQ(service->RestartTimer(live, huge), TimerError::kIntervalOutOfRange)
      << c.label;
  service->AdvanceTo(300);
  const std::vector<std::pair<Tick, RequestId>> want = {{15, 1}};
  EXPECT_EQ(fired, want) << c.label;
  EXPECT_EQ(service->outstanding(), 0u) << c.label;
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, ModelCheckTest,
                         ::testing::ValuesIn(AllServiceCases()),
                         [](const ::testing::TestParamInfo<ServiceCase>& param) {
                           return param.param.label;
                         });

}  // namespace
}  // namespace twheel::verify
