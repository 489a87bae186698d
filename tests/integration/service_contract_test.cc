// The TimerService contract, enforced uniformly across all seven schemes.
//
// Section 2 defines the model every scheme must implement; these parameterized tests
// are that model's executable form. Each case runs against every SchemeId (including
// both Scheme 2 search directions), so a scheme cannot pass by accident of its data
// structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/core/timer_facility.h"

namespace twheel {
namespace {

FacilityConfig ConfigFor(SchemeId id) {
  FacilityConfig config;
  config.scheme = id;
  config.wheel_size = 512;                // covers every interval used below
  config.level_sizes = {16, 16, 16};      // span 4096, max interval 3840
  return config;
}

class ServiceContractTest : public ::testing::TestWithParam<SchemeId> {
 protected:
  void SetUp() override {
    service_ = MakeTimerService(ConfigFor(GetParam()));
    service_->set_expiry_handler([this](RequestId id, Tick when, bool) {
      expiries_.push_back({when, id});
    });
  }

  std::vector<std::pair<Tick, RequestId>> expiries_;
  std::unique_ptr<TimerService> service_;
};

TEST_P(ServiceContractTest, StartsAtTickZero) {
  EXPECT_EQ(service_->now(), 0u);
  EXPECT_EQ(service_->outstanding(), 0u);
}

TEST_P(ServiceContractTest, TimerExpiresAtExactTick) {
  auto result = service_->StartTimer(5, 42);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(service_->outstanding(), 1u);

  EXPECT_EQ(service_->AdvanceBy(4), 0u) << "expired early";
  EXPECT_TRUE(expiries_.empty());
  EXPECT_EQ(service_->PerTickBookkeeping(), 1u);
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_EQ(expiries_[0].first, 5u);
  EXPECT_EQ(expiries_[0].second, 42u);
  EXPECT_EQ(service_->outstanding(), 0u);
}

TEST_P(ServiceContractTest, IntervalOneExpiresOnNextTick) {
  ASSERT_TRUE(service_->StartTimer(1, 7).has_value());
  EXPECT_EQ(service_->PerTickBookkeeping(), 1u);
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_EQ(expiries_[0].first, 1u);
}

TEST_P(ServiceContractTest, ZeroIntervalRejected) {
  auto result = service_->StartTimer(0, 1);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), TimerError::kZeroInterval);
  EXPECT_EQ(service_->outstanding(), 0u);
}

TEST_P(ServiceContractTest, StopPreventsExpiry) {
  auto result = service_->StartTimer(10, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(service_->StopTimer(result.value()), TimerError::kOk);
  EXPECT_EQ(service_->outstanding(), 0u);
  service_->AdvanceBy(20);
  EXPECT_TRUE(expiries_.empty());
}

TEST_P(ServiceContractTest, DoubleStopReportsNoSuchTimer) {
  auto result = service_->StartTimer(10, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(service_->StopTimer(result.value()), TimerError::kOk);
  EXPECT_EQ(service_->StopTimer(result.value()), TimerError::kNoSuchTimer);
}

TEST_P(ServiceContractTest, StopAfterExpiryReportsNoSuchTimer) {
  auto result = service_->StartTimer(3, 1);
  ASSERT_TRUE(result.has_value());
  service_->AdvanceBy(3);
  ASSERT_EQ(expiries_.size(), 1u);
  EXPECT_EQ(service_->StopTimer(result.value()), TimerError::kNoSuchTimer);
}

TEST_P(ServiceContractTest, InvalidHandleRejected) {
  EXPECT_EQ(service_->StopTimer(kInvalidHandle), TimerError::kNoSuchTimer);
  EXPECT_EQ(service_->StopTimer(TimerHandle{12345, 99}), TimerError::kNoSuchTimer);
}

TEST_P(ServiceContractTest, StaleHandleAfterSlotReuseRejected) {
  // Start and expire timer A; its arena slot is recycled for B. A's handle must not
  // cancel B (the generation counter is the defense).
  auto a = service_->StartTimer(2, 1);
  ASSERT_TRUE(a.has_value());
  service_->AdvanceBy(2);
  ASSERT_EQ(expiries_.size(), 1u);

  auto b = service_->StartTimer(5, 2);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b.value().slot, a.value().slot) << "arena should recycle the slot LIFO";
  EXPECT_EQ(service_->StopTimer(a.value()), TimerError::kNoSuchTimer);
  EXPECT_EQ(service_->outstanding(), 1u);

  service_->AdvanceBy(5);
  ASSERT_EQ(expiries_.size(), 2u);
  EXPECT_EQ(expiries_[1].second, 2u);
}

TEST_P(ServiceContractTest, SimultaneousExpiriesAllFire) {
  for (RequestId id = 0; id < 5; ++id) {
    ASSERT_TRUE(service_->StartTimer(8, id).has_value());
  }
  EXPECT_EQ(service_->AdvanceBy(8), 5u);
  std::set<RequestId> got;
  for (const auto& [tick, id] : expiries_) {
    EXPECT_EQ(tick, 8u);
    got.insert(id);
  }
  EXPECT_EQ(got, (std::set<RequestId>{0, 1, 2, 3, 4}));
}

TEST_P(ServiceContractTest, DistinctExpiriesFireInTimeOrder) {
  ASSERT_TRUE(service_->StartTimer(30, 30).has_value());
  ASSERT_TRUE(service_->StartTimer(10, 10).has_value());
  ASSERT_TRUE(service_->StartTimer(20, 20).has_value());
  service_->AdvanceBy(35);
  ASSERT_EQ(expiries_.size(), 3u);
  EXPECT_EQ(expiries_[0], (std::pair<Tick, RequestId>{10, 10}));
  EXPECT_EQ(expiries_[1], (std::pair<Tick, RequestId>{20, 20}));
  EXPECT_EQ(expiries_[2], (std::pair<Tick, RequestId>{30, 30}));
}

TEST_P(ServiceContractTest, OutstandingTracksLifecycle) {
  auto a = service_->StartTimer(100, 1);
  auto b = service_->StartTimer(200, 2);
  auto c = service_->StartTimer(3, 3);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  EXPECT_EQ(service_->outstanding(), 3u);
  service_->AdvanceBy(3);  // c expires
  EXPECT_EQ(service_->outstanding(), 2u);
  EXPECT_EQ(service_->StopTimer(a.value()), TimerError::kOk);
  EXPECT_EQ(service_->outstanding(), 1u);
  EXPECT_EQ(service_->StopTimer(b.value()), TimerError::kOk);
  EXPECT_EQ(service_->outstanding(), 0u);
}

TEST_P(ServiceContractTest, CapacityBoundHonored) {
  FacilityConfig config = ConfigFor(GetParam());
  config.max_timers = 4;
  auto bounded = MakeTimerService(config);
  for (RequestId id = 0; id < 4; ++id) {
    ASSERT_TRUE(bounded->StartTimer(10, id).has_value());
  }
  auto fifth = bounded->StartTimer(10, 4);
  ASSERT_FALSE(fifth.has_value());
  EXPECT_EQ(fifth.error(), TimerError::kNoCapacity);
  // Freeing one slot re-admits a start. (For the lazy-cancellation leftist heap the
  // cancelled record still occupies its slot, so capacity frees on expiry instead.)
  bounded->AdvanceBy(10);
  EXPECT_TRUE(bounded->StartTimer(10, 5).has_value());
}

TEST_P(ServiceContractTest, RestartInsideExpiryHandlerWorks) {
  // A common client pattern (periodic timers): EXPIRY_PROCESSING immediately
  // re-arms. The service must tolerate reentrant StartTimer from the handler.
  auto config = ConfigFor(GetParam());
  auto service = MakeTimerService(config);
  int fires = 0;
  service->set_expiry_handler([&](RequestId id, Tick, bool) {
    ++fires;
    if (fires < 3) {
      ASSERT_TRUE(service->StartTimer(4, id + 1).has_value());
    }
  });
  ASSERT_TRUE(service->StartTimer(4, 0).has_value());
  service->AdvanceBy(12);
  EXPECT_EQ(fires, 3);
}

TEST_P(ServiceContractTest, HandlerMayStopSiblingDueSameTick) {
  // Regression: an expiry handler cancelling a timer that is due on the SAME tick
  // but not yet dispatched must suppress that dispatch — and must not corrupt the
  // bookkeeping walk (saved-next iteration would use-after-free here).
  auto config = ConfigFor(GetParam());
  auto service = MakeTimerService(config);
  std::vector<RequestId> fired;
  TimerHandle victims[2];
  service->set_expiry_handler([&](RequestId id, Tick, bool) {
    fired.push_back(id);
    if (id == 0) {
      // Cancel both co-expiring siblings; at least one is still undispatched.
      (void)service->StopTimer(victims[0]);
      (void)service->StopTimer(victims[1]);
    }
  });
  ASSERT_TRUE(service->StartTimer(6, 0).has_value());
  victims[0] = service->StartTimer(6, 1).value();
  victims[1] = service->StartTimer(6, 2).value();
  service->AdvanceBy(6);
  // Timer 0 fired; the victims fired only if they were dispatched before timer 0.
  ASSERT_FALSE(fired.empty());
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_NE(fired[i], fired[0]);
  }
  EXPECT_EQ(service->outstanding(), 0u);
  service->AdvanceBy(64);
  EXPECT_LE(fired.size(), 3u);
}

TEST_P(ServiceContractTest, HandlerRearmRevolutionMultipleNotVisitedTwice) {
  // Regression: re-arming from the handler with an interval that maps the new timer
  // back into the structure region being processed (e.g. a multiple of a hashed
  // wheel's table size, which lands in the bucket under the cursor) must schedule
  // it a full revolution out, not expire it instantly or double-visit it.
  auto config = ConfigFor(GetParam());
  auto service = MakeTimerService(config);
  // 512 is the hashed wheels' table size (the colliding case) and a clean multiple
  // for Scheme 7's levels. Scheme 4 cannot express interval == wheel size at all —
  // that immunity is by design — so it runs the test one tick short of a lap.
  const Duration interval = GetParam() == SchemeId::kScheme4BasicWheel ? 511 : 512;
  std::vector<Tick> fired;
  int rearms = 0;
  service->set_expiry_handler([&](RequestId id, Tick when, bool) {
    fired.push_back(when);
    if (++rearms <= 3) {
      ASSERT_TRUE(service->StartTimer(interval, id).has_value());
    }
  });
  ASSERT_TRUE(service->StartTimer(interval, 7).has_value());
  service->AdvanceBy(4 * interval + 8);
  ASSERT_EQ(fired.size(), 4u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], (i + 1) * interval) << "re-arm " << i;
  }
}

TEST_P(ServiceContractTest, OpCountsAdvance) {
  ASSERT_TRUE(service_->StartTimer(4, 0).has_value());
  auto h = service_->StartTimer(9, 1);
  ASSERT_TRUE(h.has_value());
  service_->AdvanceBy(4);
  ASSERT_EQ(service_->StopTimer(h.value()), TimerError::kOk);
  const auto& c = service_->counts();
  EXPECT_EQ(c.start_calls, 2u);
  EXPECT_EQ(c.stop_calls, 1u);
  EXPECT_EQ(c.ticks, 4u);
  EXPECT_EQ(c.expiries, 1u);
  EXPECT_EQ(c.insert_link_ops, 2u);
  EXPECT_EQ(c.expiry_dispatches, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ServiceContractTest, ::testing::ValuesIn(kAllSchemes),
    [](const ::testing::TestParamInfo<SchemeId>& param_info) {
      std::string name = SchemeName(param_info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace twheel
