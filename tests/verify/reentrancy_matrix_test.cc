// Expiry-handler re-entrancy matrix, exact-semantics edition. The model-check
// suite exercises these moves probabilistically; this file pins the *precise*
// timing contract of each move, per implementation:
//
//   re-arm self               — a handler re-arming with interval d fires again
//                               exactly d ticks later, every time. The crucial
//                               case is d ≡ 0 (mod TableSize): the re-arm hashes
//                               into the bucket currently being swept and must
//                               wait a full revolution, not fire immediately.
//   stop unvisited sibling    — a handler may cancel any timer due on a later
//                               tick; it stays cancelled.
//   start a timer due next tick — interval 1 from inside a handler fires on the
//                               immediately following tick.
//
// LockedService is excluded from the re-entrant rows (its handlers run under the
// global lock, documented in locked_service.h); it still appears in the driver
// sweep at the bottom via DriverOptions::WithoutReentrancy().

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/verify/differential_driver.h"
#include "tests/verify/all_services.h"

namespace twheel::verify {
namespace {

using verify_tests::AllServiceCases;
using verify_tests::ServiceCase;

class ReentrancyMatrixTest : public ::testing::TestWithParam<ServiceCase> {};

// Handler re-arms itself with the same interval, 64 = the hashed wheels' table
// size, so every re-arm lands back in the bucket being swept mid-dispatch.
TEST_P(ReentrancyMatrixTest, RearmSelfAtTableSizeMultipleFiresExactly) {
  const ServiceCase& c = GetParam();
  if (!c.handlers_may_reenter) {
    GTEST_SKIP() << c.label << " runs handlers under its lock (by design)";
  }
  auto service = c.make();
  constexpr Duration kInterval = 64;  // ≡ 0 mod 64, ≡ 0 mod 32 and mod 16 too
  std::vector<Tick> fires;
  service->set_expiry_handler([&](RequestId id, Tick when, bool) {
    fires.push_back(when);
    if (fires.size() < 4) {
      ASSERT_TRUE(service->StartTimer(kInterval, id).has_value());
    }
  });
  ASSERT_TRUE(service->StartTimer(kInterval, 7).has_value());
  service->AdvanceBy(4 * kInterval + 8);
  ASSERT_EQ(fires.size(), 4u) << c.label;
  EXPECT_EQ(fires, (std::vector<Tick>{64, 128, 192, 256})) << c.label;
  EXPECT_EQ(service->outstanding(), 0u) << c.label;
}

// A handler stops a sibling that is due on a later tick; the sibling never fires
// and its handle is stale afterwards.
TEST_P(ReentrancyMatrixTest, HandlerStopsNotYetVisitedSibling) {
  const ServiceCase& c = GetParam();
  if (!c.handlers_may_reenter) {
    GTEST_SKIP() << c.label << " runs handlers under its lock (by design)";
  }
  auto service = c.make();
  auto killer = service->StartTimer(5, 1);
  auto victim = service->StartTimer(7, 2);
  ASSERT_TRUE(killer.has_value() && victim.has_value());
  std::vector<RequestId> fired;
  service->set_expiry_handler([&](RequestId id, Tick, bool) {
    fired.push_back(id);
    if (id == 1) {
      EXPECT_EQ(service->StopTimer(victim.value()), TimerError::kOk) << c.label;
    }
  });
  service->AdvanceBy(12);
  EXPECT_EQ(fired, (std::vector<RequestId>{1})) << c.label;
  EXPECT_EQ(service->outstanding(), 0u) << c.label;
  EXPECT_EQ(service->StopTimer(victim.value()), TimerError::kNoSuchTimer)
      << c.label << ": stopped sibling's handle must be stale";
}

// A handler starts a timer with interval 1: it fires on the very next tick.
TEST_P(ReentrancyMatrixTest, HandlerStartsTimerDueNextTick) {
  const ServiceCase& c = GetParam();
  if (!c.handlers_may_reenter) {
    GTEST_SKIP() << c.label << " runs handlers under its lock (by design)";
  }
  auto service = c.make();
  std::vector<std::pair<RequestId, Tick>> fired;
  service->set_expiry_handler([&](RequestId id, Tick when, bool) {
    fired.push_back({id, when});
    if (id == 1) {
      ASSERT_TRUE(service->StartTimer(1, 2).has_value());
    }
  });
  ASSERT_TRUE(service->StartTimer(5, 1).has_value());
  service->AdvanceBy(8);
  ASSERT_EQ(fired.size(), 2u) << c.label;
  EXPECT_EQ(fired[0], (std::pair<RequestId, Tick>{1, 5})) << c.label;
  EXPECT_EQ(fired[1], (std::pair<RequestId, Tick>{2, 6})) << c.label;
}

// The same matrix, differentially: the driver's re-arm interval is pinned to the
// table size so every re-arm is the visited-bucket case, and sibling stops and
// next-tick starts run at high probability — all cross-checked against the
// oracle every tick. Lock-holding wrappers run the same episodes with the
// re-entrant moves stripped.
TEST_P(ReentrancyMatrixTest, DifferentialSweepWithTableSizeRearms) {
  const ServiceCase& c = GetParam();
  for (std::uint64_t seed = 3000; seed < 3010; ++seed) {
    DriverOptions options;
    options.seed = seed;
    options.ticks = 128;
    options.max_interval = 200;
    options.rearm_probability = 0.5;
    options.rearm_interval = 64;  // lands in the visited bucket on 64-slot wheels
    options.stop_sibling_probability = 0.4;
    options.start_next_tick_probability = 0.3;
    options.self_poke_probability = 0.5;
    if (!c.handlers_may_reenter) {
      options = options.WithoutReentrancy();
    }
    auto service = c.make();
    const DriverReport report = RunDifferential(*service, options);
    ASSERT_TRUE(report.ok) << c.label << " seed " << seed << ": "
                           << report.divergence;
  }
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, ReentrancyMatrixTest,
                         ::testing::ValuesIn(AllServiceCases()),
                         [](const ::testing::TestParamInfo<ServiceCase>& param) {
                           return param.param.label;
                         });

}  // namespace
}  // namespace twheel::verify
