// Thread-interleaving stress for the concurrent layer, written to be run under
// TSan (-DTWHEEL_SANITIZE=thread, see scripts/verify.sh) but meaningful — and
// checked functionally — in every build mode.
//
// The hot configuration is the one Appendix A.2 recommends: a ShardedWheel
// driven by a wall-clock TickerThread while several mutator threads start and
// stop timers and observer threads snapshot counts()/outstanding()/now(). Every
// timer started must be accounted for as exactly one of {fired, cancelled} by
// the end.
//
// The clock has exactly one driver at a time: the ticker while the mutators
// run, then — after ticker.Stop() — the test thread's manual drain. Two
// overlapping drivers are not a legal configuration (ticker.h): each computes
// its target from its own read of now(), so a driver whose read went stale
// behind the other's advance asks for a tick in the past.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/concurrent/locked_service.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/concurrent/ticker.h"
#include "src/core/hashed_wheel_unsorted.h"

namespace twheel::concurrent {
namespace {

TEST(TsanStressTest, ShardedWheelUnderTickerAndMutators) {
  // Rings and tables hold every command even if the ticker stalls for the
  // whole run, so kReject never refuses a start.
  ShardedWheel wheel(8, 64,
                     {.ring_capacity = 4096,
                      .registration_capacity = 4096,
                      .on_full = SubmitPolicy::kReject});
  std::atomic<std::uint64_t> fired{0};
  wheel.set_expiry_handler([&](RequestId, Tick, bool) {
    fired.fetch_add(1, std::memory_order_relaxed);
  });

  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<bool> stop{false};

  TickerThread ticker(wheel, std::chrono::microseconds(200));

  std::vector<std::thread> mutators;
  for (int t = 0; t < 4; ++t) {
    mutators.emplace_back([&, t] {
      for (int i = 0; i < 4000; ++i) {
        const auto id = (static_cast<RequestId>(t) << 32) | static_cast<RequestId>(i);
        auto r = wheel.StartTimer(1 + (i % 60), id);
        ASSERT_TRUE(r.has_value());
        started.fetch_add(1, std::memory_order_relaxed);
        if (i % 3 == 0 &&
            wheel.StopTimer(r.value()) == TimerError::kOk) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> observers;
  for (int t = 0; t < 2; ++t) {
    observers.emplace_back([&] {
      std::uint64_t last_ticks = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const metrics::OpCounts snapshot = wheel.counts();
        EXPECT_GE(snapshot.ticks, last_ticks);
        last_ticks = snapshot.ticks;
        (void)wheel.outstanding();
        (void)wheel.now();
        (void)wheel.Space();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  for (auto& m : mutators) {
    m.join();
  }
  // Hand the clock over: the manual drain below must be the only driver.
  ticker.Stop();
  // Drain: everything still live is at most 60 ticks out.
  for (int i = 0; i < 200; ++i) {
    wheel.PerTickBookkeeping();
  }
  stop.store(true);
  for (auto& o : observers) {
    o.join();
  }

  EXPECT_EQ(fired.load() + cancelled.load(), started.load());
  EXPECT_EQ(wheel.outstanding(), 0u);
}

// ShardedWheel keeps its start, fire and cancel counts per shard and derives
// counts().start_calls and outstanding() on read. Four producers start,
// restart and stop timers on a ticker-driven wheel whose small tables refuse
// some starts, while two observers poll both: start_calls never decreases, and
// outstanding() never exceeds the start_calls read after it (a count that ran
// below zero would read near 2^64).
TEST(TsanStressTest, ShardedCountsStayCoherentUnderChurn) {
  constexpr int kProducers = 4;
  constexpr int kOpsPerProducer = 4000;
  ShardedWheel wheel(4, 64,
                     {.ring_capacity = 256,
                      .registration_capacity = 128,
                      .on_full = SubmitPolicy::kReject});
  std::atomic<std::uint64_t> fired{0};
  wheel.set_expiry_handler([&](RequestId, Tick, bool) {
    fired.fetch_add(1, std::memory_order_relaxed);
  });
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> start_calls_decreased{0};
  std::atomic<std::uint64_t> outstanding_above_starts{0};
  std::atomic<bool> stop{false};

  TickerThread ticker(wheel, std::chrono::microseconds(100));
  std::vector<std::thread> observers;
  for (int t = 0; t < 2; ++t) {
    observers.emplace_back([&] {
      std::uint64_t last_starts = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t live = wheel.outstanding();
        const std::uint64_t starts = wheel.counts().start_calls;
        if (starts < last_starts) {
          start_calls_decreased.fetch_add(1, std::memory_order_relaxed);
        }
        if (live > starts) {
          outstanding_above_starts.fetch_add(1, std::memory_order_relaxed);
        }
        last_starts = starts;
        std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const auto id = (static_cast<RequestId>(t) << 32) | static_cast<RequestId>(i);
        const StartResult r = wheel.StartTimer(1 + (i % 16), id);
        if (!r.has_value()) {
          refused.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (i % 4 == 0) {
          (void)wheel.RestartTimer(r.value(), 1 + (i % 8));
        }
        if (i % 3 == 0 && wheel.StopTimer(r.value()) == TimerError::kOk) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& p : producers) {
    p.join();
  }
  // Hand the clock over: the manual drain below must be the only driver.
  ticker.Stop();
  for (int i = 0; i < 64; ++i) {
    wheel.PerTickBookkeeping();
  }
  stop.store(true);
  for (auto& o : observers) {
    o.join();
  }

  EXPECT_EQ(start_calls_decreased.load(), 0u);
  EXPECT_EQ(outstanding_above_starts.load(), 0u);
  const metrics::OpCounts counts = wheel.counts();
  EXPECT_EQ(counts.start_calls, std::uint64_t{kProducers} * kOpsPerProducer);
  EXPECT_EQ(counts.expiries, fired.load());
  EXPECT_EQ(fired.load() + cancelled.load() + refused.load(), counts.start_calls);
  EXPECT_EQ(wheel.outstanding(), 0u);
}

// The same shape around the global-lock wrapper (handlers stay trivial: they run
// under the wrapper's lock).
TEST(TsanStressTest, LockedServiceUnderTickerAndMutators) {
  LockedService service(std::make_unique<HashedWheelUnsorted>(64));
  std::atomic<std::uint64_t> fired{0};
  service.set_expiry_handler([&](RequestId, Tick, bool) {
    fired.fetch_add(1, std::memory_order_relaxed);
  });

  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> cancelled{0};

  {
    TickerThread ticker(service, std::chrono::microseconds(200));
    std::vector<std::thread> mutators;
    for (int t = 0; t < 3; ++t) {
      mutators.emplace_back([&, t] {
        for (int i = 0; i < 2000; ++i) {
          const auto id = (static_cast<RequestId>(t) << 32) | static_cast<RequestId>(i);
          auto r = service.StartTimer(1 + (i % 40), id);
          ASSERT_TRUE(r.has_value());
          started.fetch_add(1, std::memory_order_relaxed);
          if (i % 4 == 0 &&
              service.StopTimer(r.value()) == TimerError::kOk) {
            cancelled.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& m : mutators) {
      m.join();
    }
    // Hand the clock over: the manual drain below must be the only driver.
    ticker.Stop();
    for (int i = 0; i < 100; ++i) {
      service.PerTickBookkeeping();
    }
  }

  EXPECT_EQ(fired.load() + cancelled.load(), started.load());
  EXPECT_EQ(service.outstanding(), 0u);
}

}  // namespace
}  // namespace twheel::concurrent
