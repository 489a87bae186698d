// Lawn-specific regressions: the distinct-TTL cap's overflow fallback, the
// counts() conservation law, and the slop-bits precision bound — the three
// behaviors scheme 8 adds on top of the contract the shared matrices already
// pin for every scheme.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/hierarchical_wheel.h"
#include "src/core/slop.h"
#include "src/lawn/lawn_timers.h"
#include "src/rng/rng.h"

namespace twheel {
namespace {

using Fired = std::vector<std::pair<Tick, RequestId>>;

void Collect(TimerService& service, Fired& into) {
  service.set_expiry_handler(
      [&into](RequestId id, Tick when, bool) { into.emplace_back(when, id); });
}

// Cap 4, eight distinct TTLs: the first four get buckets, the rest land in the
// shared overflow list — and every timer still fires at exactly start +
// interval, because the fallback trades comparisons, never correctness.
TEST(LawnCapTest, BeyondCapFallsBackToOverflowWithExactExpiry) {
  lawn::LawnOptions options;
  options.max_distinct_ttls = 4;
  lawn::LawnTimers lawn(options);
  Fired fired;
  Collect(lawn, fired);

  Fired expected;
  for (RequestId id = 1; id <= 8; ++id) {
    const Duration ttl = 10 * static_cast<Duration>(id);  // 10, 20, ..., 80
    ASSERT_TRUE(lawn.StartTimer(ttl, id).has_value());
    expected.emplace_back(ttl, id);
  }
  EXPECT_EQ(lawn.distinct_ttls(), 4u);
  EXPECT_EQ(lawn.OverflowPopulationSlow(), 4u);

  // A REPEATED beyond-cap TTL joins the overflow too (no bucket appears), and
  // a repeat of a bucketed TTL does not consume cap.
  ASSERT_TRUE(lawn.StartTimer(50, 9).has_value());
  expected.emplace_back(50, 9);
  ASSERT_TRUE(lawn.StartTimer(10, 10).has_value());
  expected.emplace_back(10, 10);
  EXPECT_EQ(lawn.distinct_ttls(), 4u);
  EXPECT_EQ(lawn.OverflowPopulationSlow(), 5u);

  while (lawn.outstanding() > 0) {
    lawn.PerTickBookkeeping();
  }
  std::sort(fired.begin(), fired.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(lawn.OverflowPopulationSlow(), 0u);
}

TEST(LawnCapTest, ZeroCapMeansUnbounded) {
  lawn::LawnTimers lawn;  // max_distinct_ttls = 0
  for (RequestId id = 1; id <= 64; ++id) {
    ASSERT_TRUE(lawn.StartTimer(static_cast<Duration>(id), id).has_value());
  }
  EXPECT_EQ(lawn.distinct_ttls(), 64u);
  EXPECT_EQ(lawn.OverflowPopulationSlow(), 0u);
}

// Overflow residents obey the whole alphabet: stop unlinks in O(1), restart can
// move a record overflow -> bucket and bucket -> overflow, and AdvanceTo jumps
// dispatch the overflow head like any bucket head.
TEST(LawnCapTest, OverflowResidentsStopRestartAndJump) {
  lawn::LawnOptions options;
  options.max_distinct_ttls = 2;
  lawn::LawnTimers lawn(options);
  Fired fired;
  Collect(lawn, fired);

  ASSERT_TRUE(lawn.StartTimer(5, 1).has_value());   // bucket
  ASSERT_TRUE(lawn.StartTimer(7, 2).has_value());   // bucket
  StartResult c = lawn.StartTimer(11, 3);           // overflow
  StartResult d = lawn.StartTimer(13, 4);           // overflow
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(lawn.OverflowPopulationSlow(), 2u);

  EXPECT_EQ(lawn.StopTimer(c.value()), TimerError::kOk);
  EXPECT_EQ(lawn.OverflowPopulationSlow(), 1u);

  // Restart the other overflow resident into a bucketed TTL: it leaves the
  // overflow list and fires at now + 5.
  EXPECT_EQ(lawn.RestartTimer(d.value(), 5), TimerError::kOk);
  EXPECT_EQ(lawn.OverflowPopulationSlow(), 0u);

  const std::size_t n = lawn.AdvanceTo(16);
  EXPECT_EQ(n, 3u);
  const Fired expected = {{5, 1}, {5, 4}, {7, 2}};
  Fired got = fired;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

// starts == expiries + cancels + outstanding, on the scheme's own counters,
// after a seeded churn of every routine. Restarts must not disturb the law.
TEST(LawnConservationTest, CountsBalanceAfterChurn) {
  lawn::LawnOptions options;
  options.max_distinct_ttls = 8;  // force steady overflow traffic too
  lawn::LawnTimers lawn(options);
  rng::Xoshiro256 rng(0xC0DE);

  std::vector<TimerHandle> live;
  std::size_t accepted = 0;
  std::size_t cancelled = 0;
  for (int round = 0; round < 2000; ++round) {
    const Duration ttl = 1 + rng.NextBounded(40);
    StartResult r = lawn.StartTimer(ttl, static_cast<RequestId>(round));
    ASSERT_TRUE(r.has_value());
    live.push_back(r.value());
    ++accepted;
    if (rng.NextBool(0.3) && !live.empty()) {
      const std::size_t at = rng.NextBounded(live.size());
      if (lawn.StopTimer(live[at]) == TimerError::kOk) {
        ++cancelled;
      }
      live[at] = live.back();
      live.pop_back();
    }
    if (rng.NextBool(0.2) && !live.empty()) {
      const std::size_t at = rng.NextBounded(live.size());
      lawn.RestartTimer(live[at], 1 + rng.NextBounded(40));
    }
    lawn.PerTickBookkeeping();
  }
  const metrics::OpCounts counts = lawn.counts();
  EXPECT_EQ(counts.start_calls, accepted);
  EXPECT_EQ(counts.start_calls,
            counts.expiries + cancelled + lawn.outstanding());

  // Drain and re-check: everything resolves, nothing double-fires or leaks.
  while (lawn.outstanding() > 0) {
    lawn.PerTickBookkeeping();
  }
  const metrics::OpCounts drained = lawn.counts();
  EXPECT_EQ(drained.start_calls, drained.expiries + cancelled);
}

// The slop contract, pinned per precision level on both schemes that implement
// the knob: a timer started with interval i fires after exactly
// QuantizeIntervalUp(i, s) ticks — late by < 2^s, never early, grain-aligned.
class SlopBoundTest : public ::testing::TestWithParam<std::uint32_t> {};

void CheckSlopBound(TimerService& service, std::uint32_t slop) {
  Fired fired;
  Collect(service, fired);
  const Tick base = service.now();
  std::vector<Duration> intervals;
  for (RequestId id = 1; id <= 100; ++id) {
    const Duration interval = static_cast<Duration>(id);
    ASSERT_TRUE(service.StartTimer(interval, id).has_value());
    intervals.push_back(interval);
  }
  while (service.outstanding() > 0) {
    service.PerTickBookkeeping();
  }
  ASSERT_EQ(fired.size(), intervals.size());
  const Duration grain = Duration{1} << slop;
  for (const auto& [when, id] : fired) {
    const Duration interval = intervals[id - 1];
    const Duration delay = when - base;
    EXPECT_EQ(delay, QuantizeIntervalUp(interval, slop))
        << service.name() << " slop " << slop << " interval " << interval;
    EXPECT_GE(delay, interval) << "fired EARLY";
    EXPECT_LT(delay, interval + grain) << "fired past the slop bound";
    if (slop > 0) {
      EXPECT_EQ(delay % grain, 0u) << "not grain-aligned";
    }
  }
}

// At slop_bits = 4 an interval within one grain of the end of Duration
// saturates instead of wrapping to 0. At tick 10, Scheme 7 refuses it under
// kReject and clamps it to max_interval() under kClamp; Lawn refuses it.
TEST(SlopEndOfTickTest, HugeIntervalsSaturateInsteadOfWrapping) {
  const Duration huge = std::numeric_limits<Duration>::max() - 2;
  EXPECT_EQ(QuantizeIntervalUp(huge, 4), std::numeric_limits<Duration>::max());
  static constexpr std::array<std::size_t, 3> kLevels = {16, 16, 16};
  for (const OverflowPolicy policy :
       {OverflowPolicy::kReject, OverflowPolicy::kClamp}) {
    HierarchicalWheelOptions options;
    options.slop_bits = 4;
    options.overflow = policy;
    HierarchicalWheel wheel(kLevels, options);
    Fired fired;
    Collect(wheel, fired);
    wheel.AdvanceTo(10);
    const StartResult started = wheel.StartTimer(huge, 1);
    wheel.AdvanceTo(10 + wheel.max_interval() + 64);
    if (policy == OverflowPolicy::kReject) {
      ASSERT_FALSE(started.has_value());
      EXPECT_EQ(started.error(), TimerError::kIntervalOutOfRange);
      EXPECT_TRUE(fired.empty());
    } else {
      ASSERT_TRUE(started.has_value());
      EXPECT_EQ(fired, (Fired{{10 + wheel.max_interval(), 1}}));
    }
    EXPECT_EQ(wheel.outstanding(), 0u);
  }
  lawn::LawnOptions options;
  options.slop_bits = 4;
  lawn::LawnTimers lawn(options);
  Fired fired;
  Collect(lawn, fired);
  lawn.AdvanceTo(10);
  const StartResult started = lawn.StartTimer(huge, 1);
  ASSERT_FALSE(started.has_value());
  EXPECT_EQ(started.error(), TimerError::kIntervalOutOfRange);
  lawn.AdvanceTo(300);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(lawn.outstanding(), 0u);
}

TEST_P(SlopBoundTest, LawnFiresWithinSlop) {
  lawn::LawnOptions options;
  options.slop_bits = GetParam();
  lawn::LawnTimers lawn(options);
  CheckSlopBound(lawn, GetParam());
}

TEST_P(SlopBoundTest, HierarchicalFiresWithinSlop) {
  const std::size_t levels[] = {16, 16, 16};
  HierarchicalWheelOptions options;
  options.slop_bits = GetParam();
  HierarchicalWheel wheel(levels, options);
  CheckSlopBound(wheel, GetParam());
}

// Periodic cadence under slop: the effective period IS the quantized interval,
// and quantization is idempotent, so fires land at k * Q(period) — no drift.
TEST_P(SlopBoundTest, LawnPeriodicCadenceIsQuantizedPeriod) {
  const std::uint32_t slop = GetParam();
  lawn::LawnOptions options;
  options.slop_bits = slop;
  lawn::LawnTimers lawn(options);
  Fired fired;
  Collect(lawn, fired);
  ASSERT_TRUE(lawn.StartPeriodic(5, 42, 3).has_value());
  const Duration q = QuantizeIntervalUp(5, slop);
  for (Tick t = 0; t < 4 * q; ++t) {
    lawn.PerTickBookkeeping();
  }
  const Fired expected = {{q, 42}, {2 * q, 42}, {3 * q, 42}};
  EXPECT_EQ(fired, expected) << "slop " << slop;
  EXPECT_EQ(lawn.outstanding(), 0u);
}

// Slop as a cap-pressure valve: 64 near-miss TTLs collapse into the handful of
// grain classes, so a tight cap is never exceeded.
TEST_P(SlopBoundTest, QuantizationCollapsesNearMissTtls) {
  const std::uint32_t slop = GetParam();
  if (slop == 0) {
    GTEST_SKIP() << "collapse needs a coarse grain";
  }
  lawn::LawnOptions options;
  options.slop_bits = slop;
  lawn::LawnTimers lawn(options);
  for (RequestId id = 1; id <= 64; ++id) {
    ASSERT_TRUE(lawn.StartTimer(static_cast<Duration>(id), id).has_value());
  }
  const Duration grain = Duration{1} << slop;
  const std::size_t classes = static_cast<std::size_t>((64 + grain - 1) / grain);
  EXPECT_EQ(lawn.distinct_ttls(), classes);
  EXPECT_EQ(lawn.OverflowPopulationSlow(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Precision, SlopBoundTest,
                         ::testing::Values(0u, 1u, 3u, 6u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& p) {
                           return "slop" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace twheel
