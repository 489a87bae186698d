// Appendix A.2: thread-safe wrappers. Functional correctness under concurrent
// start/stop churn for both the global-lock wrapper and the sharded wheel.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/baselines/sorted_list_timers.h"
#include "src/concurrent/locked_service.h"
#include "src/concurrent/sharded_wheel.h"

namespace twheel::concurrent {
namespace {

TEST(LockedServiceTest, BehavesLikeInnerService) {
  LockedService service(std::make_unique<SortedListTimers>());
  std::vector<std::pair<Tick, RequestId>> fired;
  service.set_expiry_handler([&](RequestId id, Tick when) { fired.push_back({when, id}); });
  auto a = service.StartTimer(5, 1);
  auto b = service.StartTimer(10, 2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(service.outstanding(), 2u);
  EXPECT_EQ(service.StopTimer(b.value()), TimerError::kOk);
  service.AdvanceBy(10);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], (std::pair<Tick, RequestId>{5, 1}));
  EXPECT_EQ(service.now(), 10u);
  EXPECT_EQ(service.counts().start_calls, 2u);
}

TEST(ShardedWheelTest, SingleThreadedContract) {
  ShardedWheel wheel(4, 64);
  std::vector<std::pair<Tick, RequestId>> fired;
  wheel.set_expiry_handler([&](RequestId id, Tick when) { fired.push_back({when, id}); });
  auto a = wheel.StartTimer(5, 1);
  auto b = wheel.StartTimer(5, 2);
  auto c = wheel.StartTimer(200, 3);  // beyond table size: rounds logic
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  EXPECT_EQ(wheel.outstanding(), 3u);
  EXPECT_EQ(wheel.StopTimer(b.value()), TimerError::kOk);
  EXPECT_EQ(wheel.StopTimer(b.value()), TimerError::kNoSuchTimer);
  wheel.AdvanceBy(200);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<Tick, RequestId>{5, 1}));
  EXPECT_EQ(fired[1], (std::pair<Tick, RequestId>{200, 3}));
  EXPECT_EQ(wheel.now(), 200u);
  EXPECT_EQ(wheel.outstanding(), 0u);
}

TEST(ShardedWheelTest, HandlesRoundRobinAcrossShards) {
  ShardedWheel wheel(4, 64);
  std::vector<TimerHandle> handles;
  for (RequestId id = 0; id < 8; ++id) {
    auto r = wheel.StartTimer(50, id);
    ASSERT_TRUE(r.has_value());
    handles.push_back(r.value());
  }
  // Top byte of the slot is the shard: round-robin covers all four shards twice.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(handles[i].slot >> 24, i % 4);
  }
  for (const auto& h : handles) {
    EXPECT_EQ(wheel.StopTimer(h), TimerError::kOk);
  }
}

TEST(ShardedWheelTest, ExpiryHandlerMayReArm) {
  // Dispatch happens outside shard locks, so handlers can start timers.
  ShardedWheel wheel(2, 16);
  int fires = 0;
  wheel.set_expiry_handler([&](RequestId id, Tick) {
    if (++fires < 5) {
      ASSERT_TRUE(wheel.StartTimer(3, id + 1).has_value());
    }
  });
  ASSERT_TRUE(wheel.StartTimer(3, 0).has_value());
  wheel.AdvanceBy(15);
  EXPECT_EQ(fires, 5);
}

template <typename MakeService>
void ConcurrentChurn(MakeService make) {
  auto service = make();
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> stopped{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto r = service->StartTimer(1 + (i % 100), static_cast<RequestId>(t) << 32 | i);
        ASSERT_TRUE(r.has_value());
        started.fetch_add(1, std::memory_order_relaxed);
        if (i % 2 == 0) {
          if (service->StopTimer(r.value()) == TimerError::kOk) {
            stopped.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  go.store(true);
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(started.load(), kThreads * kOpsPerThread);
  // Half of each thread's timers were stopped immediately; ticking must drain the
  // rest without corruption. (No ticks ran concurrently in this test; tick-vs-start
  // interleaving is exercised by the SMP bench.)
  std::size_t remaining = service->outstanding();
  EXPECT_EQ(remaining, started.load() - stopped.load());
  std::size_t total_expired = 0;
  for (int i = 0; i < 200; ++i) {
    total_expired += service->PerTickBookkeeping();
  }
  EXPECT_EQ(total_expired, remaining);
  EXPECT_EQ(service->outstanding(), 0u);
}

TEST(ConcurrencyChurnTest, LockedSortedList) {
  ConcurrentChurn([] {
    return std::make_unique<LockedService>(std::make_unique<SortedListTimers>());
  });
}

TEST(ConcurrencyChurnTest, ShardedWheelFourShards) {
  ConcurrentChurn([] { return std::make_unique<ShardedWheel>(16, 128); });
}

TEST(ConcurrencyChurnTest, StartsDuringTicks) {
  // One thread ticks continuously while others start/stop; counts must balance.
  ShardedWheel wheel(8, 64);
  std::atomic<std::uint64_t> fired{0};
  wheel.set_expiry_handler([&](RequestId, Tick) { fired.fetch_add(1); });
  std::atomic<bool> stop_ticking{false};
  std::atomic<std::uint64_t> started{0}, cancelled{0};

  std::thread ticker([&] {
    while (!stop_ticking.load()) {
      wheel.PerTickBookkeeping();
    }
  });
  std::vector<std::thread> starters;
  for (int t = 0; t < 3; ++t) {
    starters.emplace_back([&, t] {
      for (int i = 0; i < 3000; ++i) {
        auto r = wheel.StartTimer(1 + (i % 50), static_cast<RequestId>(t) * 100000 + i);
        ASSERT_TRUE(r.has_value());
        started.fetch_add(1);
        if (i % 3 == 0 && wheel.StopTimer(r.value()) == TimerError::kOk) {
          cancelled.fetch_add(1);
        }
      }
    });
  }
  for (auto& s : starters) {
    s.join();
  }
  // Hand the clock over before draining: two overlapping drivers could each
  // target a tick the other has already passed.
  stop_ticking.store(true);
  ticker.join();
  // Drain what remains.
  for (int i = 0; i < 100; ++i) {
    wheel.PerTickBookkeeping();
  }
  EXPECT_EQ(fired.load() + cancelled.load(), started.load());
  EXPECT_EQ(wheel.outstanding(), 0u);
}

}  // namespace
}  // namespace twheel::concurrent
