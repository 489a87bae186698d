// Regression pins for the in-place RestartTimer overrides.
//
// The sharpest hazard for the wheels is occupancy-bitmap staleness: a restart
// unlinks the record from its old slot, and when that drain empties the slot
// the bitmap bit must be cleared — otherwise AdvanceTo stops at the dead slot
// and NextExpiryHint reports a phantom expiry at the old deadline. The tests
// pin the exact-hint contract (all five wheel schemes have exact hints in
// their default configurations) before and after restarts that drain a slot
// fully, partially, and across batched advances; plus the OpCounts
// conservation law (a restart is neither a start nor a cancel) on every
// scheme, and the fires-exactly-once-at-the-new-deadline property for the
// ShardedWheel, restarting a drained timer and a still-queued one.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/core/timer_facility.h"
#include "tests/verify/all_services.h"

namespace twheel {
namespace {

using verify_tests::VerifyConfig;

constexpr SchemeId kWheelSchemes[] = {
    SchemeId::kScheme4BasicWheel,   SchemeId::kScheme4HybridList,
    SchemeId::kScheme5HashedSorted, SchemeId::kScheme6HashedUnsorted,
    SchemeId::kScheme7Hierarchical,
};

struct Fired {
  std::vector<std::pair<Tick, RequestId>> events;
  void Install(TimerService& s) {
    s.set_expiry_handler([this](RequestId id, Tick when, bool) {
      events.emplace_back(when, id);
    });
  }
};

// A restart that drains its slot to empty must clear the occupancy bit: the
// hint moves to the new deadline (no phantom at the old one) and a batched
// advance over the old deadline dispatches nothing.
TEST(RestartBitmapTest, SlotDrainedByRestartIsSkipped) {
  for (SchemeId id : kWheelSchemes) {
    auto service = MakeTimerService(VerifyConfig(id));
    Fired fired;
    fired.Install(*service);

    TimerHandle h = service->StartTimer(10, 1).value();
    ASSERT_EQ(service->NextExpiryHint(), std::optional<Tick>{10})
        << service->name();

    // Slot for tick 10 drains to empty; the timer now lives at tick 200.
    ASSERT_EQ(service->RestartTimer(h, 200), TimerError::kOk) << service->name();
    EXPECT_EQ(service->NextExpiryHint(), std::optional<Tick>{200})
        << service->name() << ": phantom expiry from a stale occupancy bit";

    EXPECT_EQ(service->AdvanceTo(199), 0u)
        << service->name() << ": fired crossing the drained slot";
    EXPECT_TRUE(fired.events.empty()) << service->name();

    EXPECT_EQ(service->AdvanceTo(200), 1u) << service->name();
    ASSERT_EQ(fired.events.size(), 1u) << service->name();
    EXPECT_EQ(fired.events[0], (std::pair<Tick, RequestId>{200, 1}))
        << service->name();
    EXPECT_EQ(service->outstanding(), 0u) << service->name();
  }
}

// Partial drain: two timers share the slot, one is restarted away. The bit
// must STAY set (the sibling still lives there) and the sibling still fires on
// time; the relinked timer fires once at its new deadline.
TEST(RestartBitmapTest, PartialDrainKeepsSlotOccupied) {
  for (SchemeId id : kWheelSchemes) {
    auto service = MakeTimerService(VerifyConfig(id));
    Fired fired;
    fired.Install(*service);

    TimerHandle a = service->StartTimer(10, 1).value();
    TimerHandle b = service->StartTimer(10, 2).value();
    (void)b;
    ASSERT_EQ(service->RestartTimer(a, 200), TimerError::kOk) << service->name();

    ASSERT_EQ(service->NextExpiryHint(), std::optional<Tick>{10})
        << service->name() << ": sibling's slot went dark";
    EXPECT_EQ(service->AdvanceTo(10), 1u) << service->name();
    ASSERT_EQ(fired.events.size(), 1u) << service->name();
    EXPECT_EQ(fired.events[0], (std::pair<Tick, RequestId>{10, 2}))
        << service->name();

    EXPECT_EQ(service->NextExpiryHint(), std::optional<Tick>{200})
        << service->name();
    EXPECT_EQ(service->AdvanceTo(200), 1u) << service->name();
    EXPECT_EQ(fired.events.back(), (std::pair<Tick, RequestId>{200, 1}))
        << service->name();
  }
}

// Restarting INTO the current bucket residue (new interval == table size for
// the hashed wheels) must not fire early: the relinked timer needs one full
// lap even though its slot index equals the one just swept.
TEST(RestartBitmapTest, RestartByTableSizeTakesAFullLap) {
  for (SchemeId id : {SchemeId::kScheme5HashedSorted,
                      SchemeId::kScheme6HashedUnsorted}) {
    auto service = MakeTimerService(VerifyConfig(id));  // 64-slot table
    Fired fired;
    fired.Install(*service);

    TimerHandle h = service->StartTimer(5, 1).value();
    EXPECT_EQ(service->AdvanceTo(3), 0u);
    // now == 3: relink to 3 + 64, the slot the cursor visits next lap.
    ASSERT_EQ(service->RestartTimer(h, 64), TimerError::kOk) << service->name();
    EXPECT_EQ(service->NextExpiryHint(), std::optional<Tick>{67})
        << service->name();
    EXPECT_EQ(service->AdvanceTo(66), 0u)
        << service->name() << ": fired a lap early after restart";
    EXPECT_EQ(service->AdvanceTo(67), 1u) << service->name();
    ASSERT_EQ(fired.events.size(), 1u) << service->name();
    EXPECT_EQ(fired.events[0], (std::pair<Tick, RequestId>{67, 1}))
        << service->name();
  }
}

// OpCounts conservation: start_calls == expiries + successful cancels +
// outstanding, with restarts contributing to restart_calls only. Every scheme,
// scripted with no rejected calls so the law is exact.
TEST(RestartCountsTest, ConservationHoldsAcrossRestarts) {
  for (const auto& c : verify_tests::AllServiceCases()) {
    auto service = c.make();
    Fired fired;
    fired.Install(*service);

    std::vector<TimerHandle> handles;
    for (RequestId i = 0; i < 8; ++i) {
      handles.push_back(service->StartTimer(20 + i, i).value());
    }
    // Three in-place restarts (one timer twice), two cancels.
    ASSERT_EQ(service->RestartTimer(handles[0], 40), TimerError::kOk) << c.label;
    ASSERT_EQ(service->RestartTimer(handles[0], 55), TimerError::kOk) << c.label;
    ASSERT_EQ(service->RestartTimer(handles[3], 90), TimerError::kOk) << c.label;
    ASSERT_EQ(service->StopTimer(handles[1]), TimerError::kOk) << c.label;
    ASSERT_EQ(service->StopTimer(handles[5]), TimerError::kOk) << c.label;

    const metrics::OpCounts mid = service->counts();
    EXPECT_EQ(mid.restart_calls, 3u) << c.label;
    EXPECT_EQ(mid.start_calls, mid.expiries + 2u + service->outstanding())
        << c.label << ": restart leaked into the conservation law";

    // Drain: the restarted timers fire at their relinked deadlines only.
    for (int t = 0; t < 128; ++t) {
      service->PerTickBookkeeping();
    }
    const metrics::OpCounts end = service->counts();
    EXPECT_EQ(service->outstanding(), 0u) << c.label;
    EXPECT_EQ(end.start_calls, end.expiries + 2u) << c.label;
    EXPECT_EQ(end.expiries, 6u) << c.label;
    EXPECT_EQ(fired.events.size(), 6u) << c.label;
    for (const auto& [when, req_id] : fired.events) {
      EXPECT_NE(req_id, 1u) << c.label << ": cancelled timer fired";
      EXPECT_NE(req_id, 5u) << c.label << ": cancelled timer fired";
      if (req_id == 0) {
        EXPECT_EQ(when, 55u) << c.label << ": fired at a superseded deadline";
      }
      if (req_id == 3) {
        EXPECT_EQ(when, 90u) << c.label << ": fired at the old deadline";
      }
    }
  }
}

// ShardedWheel: a restarted timer never fires at its old deadline and fires
// exactly once at the new one, with restart_calls surfaced through the merged
// counts() — whether the restart relinks a drained registration or coalesces
// onto a start command still in the ring.
TEST(RestartShardedTest, RestartedTimerFiresOnceAtNewDeadline) {
  const auto run = [](bool drain_first, const char* label) {
    concurrent::ShardedWheel wheel(
        4, 64,
        {.ring_capacity = 1024,
         .registration_capacity = 1024,
         .on_full = concurrent::SubmitPolicy::kReject});
    Fired fired;
    fired.Install(wheel);
    TimerHandle h = wheel.StartTimer(10, 7).value();
    if (drain_first) {
      wheel.DrainSubmissions();
    }
    ASSERT_EQ(wheel.RestartTimer(h, 200), TimerError::kOk) << label;
    EXPECT_EQ(wheel.AdvanceTo(199), 0u)
        << label << ": fired at the pre-restart deadline";
    EXPECT_TRUE(fired.events.empty()) << label;
    EXPECT_EQ(wheel.AdvanceTo(220), 1u) << label;
    ASSERT_EQ(fired.events.size(), 1u) << label;
    EXPECT_EQ(fired.events[0].second, 7u) << label;
    EXPECT_EQ(wheel.counts().restart_calls, 1u) << label;
    EXPECT_EQ(wheel.outstanding(), 0u) << label;
  };
  run(/*drain_first=*/true, "drained");
  run(/*drain_first=*/false, "coalesced");
}

}  // namespace
}  // namespace twheel
