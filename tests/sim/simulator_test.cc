// Tests for the discrete-event simulator built on the timer facility (Section 4's
// "timer algorithms can be used to implement time flow mechanisms").

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/timer_facility.h"
#include "src/sim/simulator.h"
#include "src/sim/tegas_wheel.h"

namespace twheel::sim {
namespace {

std::unique_ptr<Simulator> MakeSim(SchemeId scheme) {
  FacilityConfig config;
  config.scheme = scheme;
  config.wheel_size = 256;
  config.level_sizes = {16, 16, 16};
  return std::make_unique<Simulator>(MakeTimerService(config));
}

class SimulatorTest : public ::testing::TestWithParam<SchemeId> {};

TEST_P(SimulatorTest, ActionsRunAtScheduledTimes) {
  auto sim = MakeSim(GetParam());
  std::vector<std::pair<Tick, int>> ran;
  sim->After(5, [&] { ran.push_back({sim->now(), 1}); });
  sim->After(2, [&] { ran.push_back({sim->now(), 2}); });
  sim->After(9, [&] { ran.push_back({sim->now(), 3}); });
  sim->RunUntilIdle();
  ASSERT_EQ(ran.size(), 3u);
  EXPECT_EQ(ran[0], (std::pair<Tick, int>{2, 2}));
  EXPECT_EQ(ran[1], (std::pair<Tick, int>{5, 1}));
  EXPECT_EQ(ran[2], (std::pair<Tick, int>{9, 3}));
}

TEST_P(SimulatorTest, ActionsCanScheduleFurtherActions) {
  // The defining property of a simulation: "the simulation proceeds by processing
  // the earliest event, which in turn may schedule further events."
  auto sim = MakeSim(GetParam());
  int depth = 0;
  std::function<void()> cascade = [&] {
    ++depth;
    if (depth < 10) {
      sim->After(3, cascade);
    }
  };
  sim->After(3, cascade);
  Tick advanced = sim->RunUntilIdle();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(advanced, 30u);
  EXPECT_EQ(sim->now(), 30u);
}

TEST_P(SimulatorTest, CancelPreventsExecution) {
  auto sim = MakeSim(GetParam());
  bool ran = false;
  EventToken token = sim->After(5, [&] { ran = true; });
  ASSERT_TRUE(token.valid());
  EXPECT_TRUE(sim->Cancel(token));
  EXPECT_FALSE(sim->Cancel(token));  // second cancel reports failure
  sim->RunUntilIdle(20);
  EXPECT_FALSE(ran);
}

TEST_P(SimulatorTest, CancelAfterExecutionReportsFalse) {
  auto sim = MakeSim(GetParam());
  EventToken token = sim->After(2, [] {});
  sim->RunUntilIdle();
  EXPECT_FALSE(sim->Cancel(token));
}

TEST_P(SimulatorTest, RunUntilIdleRespectsTickBudget) {
  auto sim = MakeSim(GetParam());
  bool ran = false;
  sim->After(100, [&] { ran = true; });
  EXPECT_EQ(sim->RunUntilIdle(10), 10u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim->pending(), 1u);
  sim->RunUntilIdle();
  EXPECT_TRUE(ran);
}

TEST_P(SimulatorTest, CancellationInsideActionWorks) {
  auto sim = MakeSim(GetParam());
  bool victim_ran = false;
  EventToken victim = sim->After(10, [&] { victim_ran = true; });
  sim->After(5, [&] { EXPECT_TRUE(sim->Cancel(victim)); });
  sim->RunUntilIdle();
  EXPECT_FALSE(victim_ran);
}

TEST_P(SimulatorTest, PeriodicFiresEveryPeriod) {
  auto sim = MakeSim(GetParam());
  std::vector<Tick> fired;
  EventToken token = sim->Every(7, [&] { fired.push_back(sim->now()); });
  ASSERT_TRUE(token.valid());
  for (int i = 0; i < 50; ++i) {
    sim->Step();
  }
  ASSERT_EQ(fired.size(), 7u);
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], 7 * (k + 1)) << "phase drifted";
  }
  EXPECT_TRUE(sim->Cancel(token));
  for (int i = 0; i < 50; ++i) {
    sim->Step();
  }
  EXPECT_EQ(fired.size(), 7u);
}

TEST_P(SimulatorTest, PeriodicMayCancelItself) {
  auto sim = MakeSim(GetParam());
  int runs = 0;
  EventToken token;
  token = sim->Every(3, [&] {
    if (++runs == 4) {
      EXPECT_TRUE(sim->Cancel(token));
    }
  });
  for (int i = 0; i < 60; ++i) {
    sim->Step();
  }
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(sim->pending(), 0u);
}

TEST_P(SimulatorTest, PeriodicCancelBetweenFiresStopsTheSeries) {
  // The token refers to the SAME underlying registration across runs (the
  // service relinks the record on its expiry path rather than re-registering),
  // so a cancel landing mid-period — after some runs have already happened —
  // must stop the series using the original token.
  auto sim = MakeSim(GetParam());
  int runs = 0;
  EventToken token = sim->Every(5, [&] { ++runs; });
  ASSERT_TRUE(token.valid());
  for (int i = 0; i < 12; ++i) {  // runs at 5 and 10; next due at 15
    sim->Step();
  }
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(sim->Cancel(token));
  EXPECT_EQ(sim->pending(), 0u);
  for (int i = 0; i < 20; ++i) {
    sim->Step();
  }
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(sim->Cancel(token));  // second cancel reports failure
}

TEST_P(SimulatorTest, PeriodicAndOneShotsCoexist) {
  auto sim = MakeSim(GetParam());
  std::vector<std::string> log;
  sim->Every(10, [&] { log.push_back("tick@" + std::to_string(sim->now())); });
  sim->After(15, [&] { log.push_back("once@" + std::to_string(sim->now())); });
  for (int i = 0; i < 30; ++i) {
    sim->Step();
  }
  EXPECT_EQ(log, (std::vector<std::string>{"tick@10", "once@15", "tick@20", "tick@30"}));
  EXPECT_EQ(sim->pending(), 1u);  // the periodic stays armed
}

// The Section 4.2 simulation wheel under the Section 4 converse: its periodic
// laps used to be stop+start re-arms, which burned the handle behind the token,
// so Cancel missed the live timer and the next lap's expiry found no simulator
// entry and aborted.
TEST(SimulatorTegasTest, EveryCancelledAfterFirstRunNeverRunsAgain) {
  for (RotatePolicy policy : {RotatePolicy::kFullCycle, RotatePolicy::kHalfCycle}) {
    Simulator sim(std::make_unique<TegasWheel>(16, policy));
    int runs = 0;
    const EventToken token = sim.Every(5, [&runs] { ++runs; });
    ASSERT_TRUE(token.valid());
    for (int i = 0; i < 5; ++i) {
      sim.Step();
    }
    ASSERT_EQ(runs, 1);
    EXPECT_TRUE(sim.Cancel(token));
    EXPECT_EQ(sim.pending(), 0u);
    for (int i = 0; i < 40; ++i) {
      sim.Step();
    }
    EXPECT_EQ(runs, 1);
  }
}

// A periodic whose next run the service drops at the end of Tick has run its
// last time: the simulator frees its entry, and with it the action, at that
// fire. It used to keep both until a Cancel found the timer dead.
TEST(SimulatorPeriodicDropTest, DroppedPeriodicFreesItsEntryAtTheFire) {
  auto wheel = std::make_unique<HashedWheelUnsorted>(64);
  ASSERT_TRUE(wheel->FastForward(std::numeric_limits<Tick>::max() - 10));
  Simulator sim(std::move(wheel));
  auto held = std::make_shared<int>(0);
  int runs = 0;
  const EventToken token = sim.Every(6, [held, &runs] { ++runs; });
  ASSERT_TRUE(token.valid());
  for (int i = 0; i < 9; ++i) {
    sim.Step();
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.service().counts().periodic_drops, 1u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(held.use_count(), 1) << "the spent entry still holds its action";
  EXPECT_FALSE(sim.Cancel(token));
}

TEST(SimulatorJumpTest, JumpingMatchesSteppingForPeekableSchemes) {
  // Section 4's two time-flow methods must produce identical event trajectories.
  for (SchemeId id : {SchemeId::kScheme2SortedFront, SchemeId::kScheme3Heap,
                      SchemeId::kScheme3Bst}) {
    auto stepped = MakeSim(id);
    auto jumped = MakeSim(id);
    std::vector<std::pair<Tick, int>> log_stepped, log_jumped;
    auto arm = [](Simulator& sim, std::vector<std::pair<Tick, int>>& log) {
      for (int k = 1; k <= 12; ++k) {
        sim.After(k * 97, [&sim, &log, k] { log.push_back({sim.now(), k}); });
      }
    };
    arm(*stepped, log_stepped);
    arm(*jumped, log_jumped);
    Tick ticks = stepped->RunUntilIdle();
    auto jumps = jumped->RunUntilIdleJumping();
    ASSERT_TRUE(jumps.has_value()) << SchemeName(id);
    EXPECT_EQ(log_stepped, log_jumped) << SchemeName(id);
    EXPECT_EQ(ticks, *jumps) << SchemeName(id);
    EXPECT_EQ(stepped->now(), jumped->now()) << SchemeName(id);
    // The jumping run must have paid far fewer bookkeeping calls.
    EXPECT_LT(jumped->service().counts().ticks, stepped->service().counts().ticks / 10);
  }
}

TEST(SimulatorJumpTest, WheelsJumpViaOccupancyBitmap) {
  // Historically the wheels lacked NextExpiryHint/FastForward and this fell
  // back to nullopt; the occupancy bitmap gives them the capability, so the
  // GPSS/SIMULA-style time flow now works on a hashed wheel too.
  auto sim = MakeSim(SchemeId::kScheme6HashedUnsorted);
  bool ran = false;
  sim->After(100, [&ran] { ran = true; });
  const auto covered = sim->RunUntilIdleJumping();
  ASSERT_TRUE(covered.has_value());
  EXPECT_EQ(*covered, 100u);
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim->now(), 100u);
  // Dead time is crossed by FastForward, whose ticks the "hardware" absorbs.
  EXPECT_LT(sim->service().counts().ticks, 100u / 10);
}

TEST(SimulatorJumpTest, JumpRespectsTickBudget) {
  auto sim = MakeSim(SchemeId::kScheme3Heap);
  bool ran = false;
  sim->After(1000, [&] { ran = true; });
  auto covered = sim->RunUntilIdleJumping(100);
  ASSERT_TRUE(covered.has_value());
  EXPECT_EQ(*covered, 100u);
  EXPECT_EQ(sim->now(), 100u);
  EXPECT_FALSE(ran);
  sim->RunUntilIdleJumping();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim->now(), 1000u);
}

// The whole matrix, bounded-range wheels included: every delay and period in
// the parametrized tests stays under the 256-slot wheel span, so Scheme 4's
// OverflowPolicy::kReject never triggers and periodic re-arms (delay == period
// <= the client's original, validated interval) are in range by construction.
INSTANTIATE_TEST_SUITE_P(Schemes, SimulatorTest, ::testing::ValuesIn(kAllSchemes),
                         [](const ::testing::TestParamInfo<SchemeId>& param_info) {
                           std::string name = SchemeName(param_info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace twheel::sim
