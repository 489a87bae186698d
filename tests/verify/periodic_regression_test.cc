// Regression pins for the periodic re-arm bug family.
//
// Bug 1 (sim::Simulator): the periodic re-arm used to run INSIDE the expiry
// handler as a fresh StartTimer and ABORTED the process via
// TWHEEL_ASSERT_MSG(rearm.has_value(), ...) whenever the service rejected the
// re-arm — which a full arena does deterministically. The fix moves the re-arm
// onto the service's expiry path (StartPeriodic's in-place relink), which
// allocates nothing, so a full arena cannot reject it at all.
//
// Bug 2 (TimerService::RestartTimer default): the old default implemented
// stop+start through the public interface, which cannot recover the client's
// cookie — it silently restarted the timer with RequestId{0}, so the eventual
// expiry delivered the wrong cookie. The default now refuses with
// kNotSupported; TimerServiceBase<Scheme> restarts in place, so the cookie, a
// periodic's cadence and the handle all survive.
//
// Bug 3 (sim::TegasWheel, hw::ChipAssistedWheel): the two services that used
// to restart and re-arm through a stop+start fallback in the base burned the
// caller's handle — a periodic's handle went stale after its first lap (its
// StopTimer missed and the timer kept firing), and a restart returned kOk
// without counting itself. Both now run the base's in-place relink.
//
// Plus counter pins for the tentpole contract: a periodic's expiry-path re-arm
// is an allocation-free relink — one start_call total, every non-final lap a
// periodic_rearm_relink, the handle and generation valid across laps.

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/baselines/heap_timers.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/timer_service.h"
#include "src/hw/timer_chip.h"
#include "src/sim/simulator.h"
#include "src/sim/tegas_wheel.h"
#include "src/verify/oracle.h"
#include "tests/verify/all_services.h"

namespace twheel {
namespace {

using verify_tests::AllServiceCases;
using verify_tests::ServiceCase;

// A periodic lap whose deadline would pass the end of Tick is a periodic_drop:
// the fire that reached it becomes the final one, and nothing wraps into the
// past. The heap's and the oracle's O(1) FastForward carry the clock to the
// end of Tick. With period 3 the lap after last - 2 is due at last + 1; a
// re-arm delay worked from the wrapped target would come out as 2 and fire it
// at `last` instead, and the oracle, which re-armed at now + period without a
// range check, filed it at a wrapped tick in the past.
TEST(PeriodicRegressionTest, LapPastTheEndOfTickIsDropped) {
  const Tick last = std::numeric_limits<Tick>::max();
  std::vector<std::unique_ptr<TimerService>> services;
  services.push_back(std::make_unique<HeapTimers>());
  services.push_back(std::make_unique<verify::OracleTimers>());
  for (const auto& service : services) {
    SCOPED_TRACE(service->name());
    std::vector<Tick> fired;
    service->set_expiry_handler(
        [&fired](RequestId, Tick when, bool) { fired.push_back(when); });
    ASSERT_TRUE(service->FastForward(last - 8));
    ASSERT_TRUE(service->StartPeriodic(3, 1).has_value());
    service->AdvanceTo(last);
    EXPECT_EQ(fired, (std::vector<Tick>{last - 5, last - 2}));
    EXPECT_EQ(service->counts().periodic_fires, 1u);
    EXPECT_EQ(service->counts().periodic_drops, 1u);
    EXPECT_EQ(service->counts().expiries, 1u);
    EXPECT_EQ(service->outstanding(), 0u);
  }
}

// The same drop for a forever periodic, one tick at a time, on a hashed wheel,
// the heap, a one-shard ShardedWheel and the oracle. Started at last - 10 with
// period 6, it fires at last - 4, and the lap after that would be due past the
// end of Tick, so that fire is the final one: nothing stays outstanding and the
// handle is stale. ShardedWheel used to claim it as a lap, because a forever
// periodic's budget never reads "last", and kept the entry live with no inner
// record; the oracle re-filed it at a wrapped tick.
TEST(PeriodicRegressionTest, ForeverLapPastTheEndOfTickEndsTheSeries) {
  const Tick last = std::numeric_limits<Tick>::max();
  std::vector<std::unique_ptr<TimerService>> services;
  services.push_back(std::make_unique<HashedWheelUnsorted>(64));
  services.push_back(std::make_unique<HeapTimers>());
  services.push_back(std::make_unique<concurrent::ShardedWheel>(
      1, 64, concurrent::SubmitOptions{}));
  services.push_back(std::make_unique<verify::OracleTimers>());
  for (const auto& service : services) {
    SCOPED_TRACE(service->name());
    std::vector<Tick> fired;
    service->set_expiry_handler(
        [&fired](RequestId, Tick when, bool) { fired.push_back(when); });
    ASSERT_TRUE(service->FastForward(last - 10));
    const StartResult started = service->StartPeriodic(6, 1);
    ASSERT_TRUE(started.has_value());
    for (int i = 0; i < 9; ++i) {
      service->PerTickBookkeeping();
    }
    EXPECT_EQ(fired, (std::vector<Tick>{last - 4}));
    EXPECT_EQ(service->outstanding(), 0u);
    EXPECT_EQ(service->counts().expiries, 1u);
    EXPECT_EQ(service->counts().periodic_fires, 0u);
    EXPECT_EQ(service->counts().periodic_drops, 1u);
    EXPECT_EQ(service->StopTimer(started.value()), TimerError::kNoSuchTimer);
  }
}

// ---------------------------------------------------------------------------
// Bug 1: Simulator periodic survives a full arena.
// ---------------------------------------------------------------------------

TEST(PeriodicRegressionTest, SimulatorPeriodicSurvivesFullArena) {
  // Arena bounded at 4 records: one for the periodic, three one-shots to fill
  // the rest. Under the old handler shape the first periodic fire tried to
  // StartTimer a replacement, got kNoCapacity, and aborted the process. The
  // relink re-arm touches no arena slot, so the series must keep firing with
  // the arena pinned full the whole time.
  constexpr std::size_t kCapacity = 4;
  sim::Simulator simulator(
      std::make_unique<HashedWheelUnsorted>(16, kCapacity));

  int periodic_runs = 0;
  const sim::EventToken periodic =
      simulator.Every(3, [&periodic_runs] { ++periodic_runs; });
  ASSERT_TRUE(periodic.valid());

  int one_shot_runs = 0;
  for (std::size_t i = 1; i < kCapacity; ++i) {
    ASSERT_TRUE(
        simulator.After(1000, [&one_shot_runs] { ++one_shot_runs; }).valid());
  }
  // The arena is now pinned full: one more start must be refused...
  EXPECT_FALSE(simulator.After(1000, [] {}).valid());

  // ...and the periodic must still lap on schedule, with the arena full at
  // every single fire.
  for (int i = 0; i < 9; ++i) {
    simulator.Step();
  }
  EXPECT_EQ(periodic_runs, 3);
  EXPECT_EQ(one_shot_runs, 0);
  EXPECT_EQ(simulator.service().counts().periodic_drops, 0u);

  // The token survived every lap; cancelling it ends the series.
  EXPECT_TRUE(simulator.Cancel(periodic));
  for (int i = 0; i < 6; ++i) {
    simulator.Step();
  }
  EXPECT_EQ(periodic_runs, 3);
}

// ---------------------------------------------------------------------------
// Bug 2: the interface default refuses rather than restarting with cookie 0.
// ---------------------------------------------------------------------------

// A deliberately minimal DIRECT TimerService implementation (no
// TimerServiceBase, no arena) that leaves RestartTimer at the interface
// default — the shape of an out-of-tree adapter over some foreign timer API.
class MinimalService final : public TimerService {
 public:
  StartResult StartTimer(Duration interval, RequestId request_id) override {
    if (interval == 0) {
      return TimerError::kZeroInterval;
    }
    timers_.emplace_back(request_id, now_ + interval);
    return TimerHandle{static_cast<std::uint32_t>(timers_.size() - 1), 1};
  }
  TimerError StopTimer(TimerHandle handle) override {
    if (!handle.valid() || handle.slot >= timers_.size() ||
        timers_[handle.slot].second == 0) {
      return TimerError::kNoSuchTimer;
    }
    timers_[handle.slot].second = 0;
    return TimerError::kOk;
  }
  std::size_t PerTickBookkeeping() override {
    ++now_;
    std::size_t fired = 0;
    for (auto& [id, due] : timers_) {
      if (due == now_) {
        due = 0;
        ++fired;
        if (handler_) {
          handler_(id, now_, /*last=*/true);
        }
      }
    }
    return fired;
  }
  Tick now() const override { return now_; }
  std::size_t outstanding() const override {
    std::size_t n = 0;
    for (const auto& [id, due] : timers_) {
      n += due != 0 ? 1 : 0;
    }
    return n;
  }
  metrics::OpCounts counts() const override { return {}; }
  std::string_view name() const override { return "minimal"; }
  void set_expiry_handler(ExpiryHandler handler) override {
    handler_ = std::move(handler);
  }
  SpaceProfile Space() const override { return {}; }

 private:
  Tick now_ = 0;
  std::vector<std::pair<RequestId, Tick>> timers_;
  ExpiryHandler handler_;
};

TEST(PeriodicRegressionTest, DefaultRestartRefusesInsteadOfLosingTheCookie) {
  MinimalService service;
  std::vector<RequestId> fired;
  service.set_expiry_handler(
      [&fired](RequestId id, Tick, bool) { fired.push_back(id); });

  StartResult started = service.StartTimer(10, /*request_id=*/77);
  ASSERT_TRUE(started.has_value());

  // The old default would have returned kOk here after silently swapping the
  // cookie for RequestId{0}. A service without arena access cannot restart
  // faithfully, so the interface default must refuse...
  EXPECT_EQ(service.RestartTimer(started.value(), 5), TimerError::kNotSupported);
  // ...while still rejecting the always-invalid zero interval as such.
  EXPECT_EQ(service.RestartTimer(started.value(), 0), TimerError::kZeroInterval);

  // The refused restart left the timer untouched: it fires at the ORIGINAL
  // deadline with the ORIGINAL cookie.
  for (int i = 0; i < 10; ++i) {
    service.PerTickBookkeeping();
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 77u);
}

// A minimal TimerServiceBase derivative over a plain vector. It supplies only
// the Link/Unlink/Visit hooks, so the restart, periodic and tick paths it
// exercises are exactly the base's.
class FallbackService final : public TimerServiceBase<FallbackService> {
 public:
  std::string_view name() const override { return "fallback"; }
  SpaceProfile Space() const override { return {}; }

 private:
  friend class TimerServiceBase<FallbackService>;

  void Link(TimerRecord* rec) { live_.push_back(rec); }
  void Unlink(TimerRecord* rec) { std::erase(live_, rec); }
  std::size_t Visit() {
    // Collect the due set first: a periodic lap relinks (erase + push_back)
    // while the loop dispatches.
    std::vector<TimerRecord*> due;
    for (TimerRecord* rec : live_) {
      if (rec->expiry_tick == now_) {
        due.push_back(rec);
      }
    }
    for (TimerRecord* rec : due) {
      if (!TryFirePeriodic(rec)) {
        Unlink(rec);
        Expire(rec);
      }
    }
    return due.size();
  }

  std::vector<TimerRecord*> live_;
};

TEST(PeriodicRegressionTest, BaseFallbackRestartPreservesCookieAndCadence) {
  FallbackService service;
  std::vector<std::pair<RequestId, Tick>> fired;
  service.set_expiry_handler(
      [&fired](RequestId id, Tick when, bool) { fired.emplace_back(id, when); });

  // One-shot: the restart must keep the cookie — the pre-fix default
  // delivered RequestId{0} here — and the handle: the second restart through
  // the same handle succeeds only if the first left it valid.
  StartResult one_shot = service.StartTimer(20, /*request_id=*/91);
  ASSERT_TRUE(one_shot.has_value());
  ASSERT_EQ(service.RestartTimer(one_shot.value(), 9), TimerError::kOk);
  ASSERT_EQ(service.RestartTimer(one_shot.value(), 4), TimerError::kOk);
  EXPECT_EQ(service.counts().restart_calls, 2u);
  for (int i = 0; i < 4; ++i) {
    service.PerTickBookkeeping();
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], (std::pair<RequestId, Tick>{91, 4}));

  // Periodic: the restart must carry the cadence and remaining budget — the
  // restarted timer fires at now + 3, then keeps lapping every 5 ticks until
  // its budget of 3 is spent — and keep the handle, as above.
  fired.clear();
  StartResult periodic = service.StartPeriodic(5, /*request_id=*/92,
                                               /*repeat_for=*/3);
  ASSERT_TRUE(periodic.has_value());
  ASSERT_EQ(service.RestartTimer(periodic.value(), 9), TimerError::kOk);
  ASSERT_EQ(service.RestartTimer(periodic.value(), 3), TimerError::kOk);
  const Tick base = service.now();
  for (int i = 0; i < 20; ++i) {
    service.PerTickBookkeeping();
  }
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<RequestId, Tick>{92, base + 3}));
  EXPECT_EQ(fired[1], (std::pair<RequestId, Tick>{92, base + 8}));
  EXPECT_EQ(fired[2], (std::pair<RequestId, Tick>{92, base + 13}));
  EXPECT_EQ(service.outstanding(), 0u);
}

// ---------------------------------------------------------------------------
// Bug 3: the Section 4.2 simulation wheel and the Appendix A.1 chip wheel keep
// the handle across periodic laps and restarts.
// ---------------------------------------------------------------------------

std::vector<ServiceCase> FormerFallbackServices() {
  return {
      {"tegas_wheel_full",
       [] {
         return std::make_unique<sim::TegasWheel>(16, sim::RotatePolicy::kFullCycle);
       }},
      {"tegas_wheel_half",
       [] {
         return std::make_unique<sim::TegasWheel>(16, sim::RotatePolicy::kHalfCycle);
       }},
      {"scheme6_chip_assisted",
       [] { return std::make_unique<hw::ChipAssistedWheel>(16); }},
  };
}

class InPlaceRelinkTest : public ::testing::TestWithParam<ServiceCase> {};

TEST_P(InPlaceRelinkTest, PeriodicStoppedAfterFirstLapNeverFiresAgain) {
  auto service = GetParam().make();
  std::size_t fires = 0;
  service->set_expiry_handler([&fires](RequestId, Tick, bool) { ++fires; });

  StartResult started = service->StartPeriodic(5, /*request_id=*/3,
                                               TimerService::kRepeatForever);
  ASSERT_TRUE(started.has_value());
  service->AdvanceBy(5);
  ASSERT_EQ(fires, 1u);
  // The lap relinked the record, so its original handle still names it.
  EXPECT_EQ(service->StopTimer(started.value()), TimerError::kOk);
  EXPECT_EQ(service->outstanding(), 0u);
  service->AdvanceBy(40);
  EXPECT_EQ(fires, 1u);
}

TEST_P(InPlaceRelinkTest, RestartedOneShotKeepsItsHandle) {
  auto service = GetParam().make();
  StartResult started = service->StartTimer(20, /*request_id=*/4);
  ASSERT_TRUE(started.has_value());
  ASSERT_EQ(service->RestartTimer(started.value(), 30), TimerError::kOk);
  EXPECT_EQ(service->counts().restart_calls, 1u);
  EXPECT_EQ(service->StopTimer(started.value()), TimerError::kOk);
  EXPECT_EQ(service->outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FormerFallback, InPlaceRelinkTest,
                         ::testing::ValuesIn(FormerFallbackServices()),
                         [](const ::testing::TestParamInfo<ServiceCase>& param) {
                           return param.param.label;
                         });

// ---------------------------------------------------------------------------
// Tentpole pins: allocation-free relink re-arm on every implementation.
// ---------------------------------------------------------------------------

class PeriodicCounterPinTest : public ::testing::TestWithParam<ServiceCase> {};

TEST_P(PeriodicCounterPinTest, RearmIsARelinkNotAReallocation) {
  auto service = GetParam().make();
  std::vector<Tick> fired;
  service->set_expiry_handler(
      [&fired](RequestId, Tick when, bool) { fired.push_back(when); });

  StartResult started = service->StartPeriodic(7, /*request_id=*/5,
                                               /*repeat_for=*/3);
  ASSERT_TRUE(started.has_value());
  const TimerHandle handle = started.value();

  for (int i = 0; i < 14; ++i) {
    service->PerTickBookkeeping();
  }
  // Two laps down, one to go: the ORIGINAL handle (same slot, same
  // generation) still cancels/restarts the registration — the record was
  // relinked, never released.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(service->outstanding(), 1u);
  EXPECT_EQ(service->RestartTimer(handle, 7), TimerError::kOk);

  for (int i = 0; i < 7; ++i) {
    service->PerTickBookkeeping();
  }
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(service->outstanding(), 0u);
  // After the FINAL lap the registration is gone and the handle is stale.
  EXPECT_EQ(service->StopTimer(handle), TimerError::kNoSuchTimer);

  const metrics::OpCounts counts = service->counts();
  // One client start total: the laps were relinks, not fresh registrations.
  EXPECT_EQ(counts.start_calls, 1u) << GetParam().label;
  EXPECT_EQ(counts.periodic_starts, 1u) << GetParam().label;
  EXPECT_EQ(counts.periodic_fires, 2u) << GetParam().label;
  EXPECT_EQ(counts.periodic_rearm_relinks, 2u) << GetParam().label;
  EXPECT_EQ(counts.expiries, 1u) << GetParam().label;
  EXPECT_EQ(counts.periodic_drops, 0u) << GetParam().label;
}

TEST_P(PeriodicCounterPinTest, CancelBetweenFiresUsesTheOriginalHandle) {
  auto service = GetParam().make();
  std::size_t fires = 0;
  service->set_expiry_handler([&fires](RequestId, Tick, bool) { ++fires; });

  StartResult started = service->StartPeriodic(4, /*request_id=*/9,
                                               /*repeat_for=*/TimerService::kRepeatForever);
  ASSERT_TRUE(started.has_value());
  for (int i = 0; i < 10; ++i) {
    service->PerTickBookkeeping();
  }
  EXPECT_EQ(fires, 2u);
  // kRepeatForever never exhausts; only this cancel ends the series.
  EXPECT_EQ(service->StopTimer(started.value()), TimerError::kOk);
  EXPECT_EQ(service->outstanding(), 0u);
  for (int i = 0; i < 10; ++i) {
    service->PerTickBookkeeping();
  }
  EXPECT_EQ(fires, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, PeriodicCounterPinTest,
                         ::testing::ValuesIn(AllServiceCases()),
                         [](const ::testing::TestParamInfo<ServiceCase>& param) {
                           return param.param.label;
                         });

}  // namespace
}  // namespace twheel
