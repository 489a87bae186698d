// TickerThread: wall-clock tick delivery, catch-up behaviour, and clean shutdown.
// Timing assertions use generous bounds so the test is robust on loaded machines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/concurrent/locked_service.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/concurrent/ticker.h"
#include "src/core/hashed_wheel_unsorted.h"

namespace twheel::concurrent {
namespace {

TEST(TickerThreadTest, DeliversTicksAtRoughlyTheConfiguredRate) {
  LockedService service(std::make_unique<HashedWheelUnsorted>(64));
  {
    TickerThread ticker(service, std::chrono::microseconds(500));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ticker.Stop();
    // 50ms at 0.5ms/tick = ~100 ticks; allow a wide band.
    EXPECT_GE(ticker.ticks_delivered(), 40u);
    EXPECT_LE(ticker.ticks_delivered(), 300u);
    EXPECT_EQ(service.now(), ticker.ticks_delivered());
  }
}

TEST(TickerThreadTest, TimersFireUnderWallClockDrive) {
  LockedService service(std::make_unique<HashedWheelUnsorted>(64));
  std::atomic<int> fired{0};
  service.set_expiry_handler([&](RequestId, Tick, bool) { fired.fetch_add(1); });
  auto handle = service.StartTimer(10, 1);
  ASSERT_TRUE(handle.has_value());

  TickerThread ticker(service, std::chrono::microseconds(200));
  // Wait for the expiry rather than a fixed sleep.
  for (int i = 0; i < 1000 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticker.Stop();
  EXPECT_EQ(fired.load(), 1);
}

TEST(TickerThreadTest, ConcurrentStartsWhileTicking) {
  // Rings and tables hold every command even if the ticker never drains, so
  // kReject can never refuse a start here.
  ShardedWheel wheel(4, 64,
                     {.ring_capacity = 1024,
                      .registration_capacity = 1024,
                      .on_full = SubmitPolicy::kReject});
  std::atomic<std::uint64_t> fired{0};
  wheel.set_expiry_handler([&](RequestId, Tick, bool) { fired.fetch_add(1); });

  TickerThread ticker(wheel, std::chrono::microseconds(100));
  std::uint64_t started = 0, cancelled = 0;
  for (int i = 0; i < 2000; ++i) {
    auto handle = wheel.StartTimer(1 + (i % 40), i);
    ASSERT_TRUE(handle.has_value());
    ++started;
    if (i % 4 == 0 && wheel.StopTimer(handle.value()) == TimerError::kOk) {
      ++cancelled;
    }
  }
  // Let the remainder drain under wall-clock drive.
  for (int i = 0; i < 2000 && fired.load() + cancelled < started; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticker.Stop();
  EXPECT_EQ(fired.load() + cancelled, started);
  EXPECT_EQ(wheel.outstanding(), 0u);
}

// A service whose bookkeeping is slow — the regression case for Stop() latency.
// If the ticker's catch-up loop does not re-check stopping_ between deliveries,
// Stop() blocks behind the ENTIRE accumulated backlog (here: ~2 s of pending
// ticks at 5 ms each, >10 s of handler time) instead of at most the one call in
// flight.
class SlowService final : public TimerService {
 public:
  StartResult StartTimer(Duration, RequestId) override {
    return TimerError::kNoCapacity;
  }
  TimerError StopTimer(TimerHandle) override { return TimerError::kNoSuchTimer; }
  std::size_t PerTickBookkeeping() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ++now_;
    return 0;
  }
  Tick now() const override { return now_; }
  std::size_t outstanding() const override { return 0; }
  metrics::OpCounts counts() const override { return {}; }
  std::string_view name() const override { return "slow-for-test"; }
  void set_expiry_handler(ExpiryHandler) override {}
  SpaceProfile Space() const override { return {}; }

 private:
  std::atomic<Tick> now_{0};
};

TEST(TickerThreadTest, StopIsPromptDuringCatchUpBurst) {
  SlowService service;
  // Period far below the 5 ms bookkeeping cost: the ticker falls behind
  // immediately and is permanently in catch-up.
  TickerThread ticker(service, std::chrono::microseconds(100));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Backlog at this point: ~2000 due ticks x 5 ms = ~10 s of handler time.
  const auto stop_begin = std::chrono::steady_clock::now();
  ticker.Stop();
  const auto stop_elapsed = std::chrono::steady_clock::now() - stop_begin;
  // Must wait for at most the one bookkeeping call in flight, plus scheduling
  // slack — nowhere near the backlog.
  EXPECT_LT(stop_elapsed, std::chrono::milliseconds(500))
      << "Stop() blocked behind the catch-up backlog";
  EXPECT_GE(ticker.ticks_delivered(), 1u);
}

// Records how the ticker partitions delivery into AdvanceTo batches. The first
// call blocks long enough for a >10k-tick backlog to pile up at the 10 µs
// period; the adaptive chunking must then coalesce that backlog into a handful
// of batched calls instead of 10k+ virtual calls.
class BatchRecordingService final : public TimerService {
 public:
  StartResult StartTimer(Duration, RequestId) override {
    return TimerError::kNoCapacity;
  }
  TimerError StopTimer(TimerHandle) override { return TimerError::kNoSuchTimer; }
  std::size_t PerTickBookkeeping() override {
    ++now_;
    return 0;
  }
  std::size_t AdvanceTo(Tick target) override {
    if (calls_.fetch_add(1) == 0) {
      // Build the backlog while the ticker is stuck inside its first delivery.
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    const Tick base = now_.load();
    if (base < 10000) {
      calls_below_10k_.fetch_add(1);
    }
    Tick batch = target - base;
    Tick biggest = max_batch_.load();
    while (batch > biggest && !max_batch_.compare_exchange_weak(biggest, batch)) {
    }
    now_.store(target);
    return 0;
  }
  Tick now() const override { return now_.load(); }
  std::size_t outstanding() const override { return 0; }
  metrics::OpCounts counts() const override { return {}; }
  std::string_view name() const override { return "batch-recorder"; }
  void set_expiry_handler(ExpiryHandler) override {}
  SpaceProfile Space() const override { return {}; }

  std::uint64_t calls_below_10k() const { return calls_below_10k_.load(); }
  Tick max_batch() const { return max_batch_.load(); }

 private:
  std::atomic<Tick> now_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> calls_below_10k_{0};
  std::atomic<Tick> max_batch_{0};
};

TEST(TickerThreadTest, CatchUpBacklogIsCoalescedIntoBatchedAdvances) {
  BatchRecordingService service;
  TickerThread ticker(service, std::chrono::microseconds(10));
  // 150 ms of blockage at 10 µs/tick is a ~15k-tick backlog. Wait until it has
  // been worked off.
  for (int i = 0; i < 5000 && ticker.ticks_delivered() < 10000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticker.Stop();
  ASSERT_GE(ticker.ticks_delivered(), 10000u) << "backlog never materialized";
  // Crossing the first 10k simulated ticks must take a handful of AdvanceTo
  // calls, not one per tick (the pre-batching ticker needed >= 10000).
  EXPECT_LE(service.calls_below_10k(), 64u);
  // And at least one call must have carried a genuinely large batch.
  EXPECT_GE(service.max_batch(), 4096u);
  // ticks_delivered() counts simulated ticks, however they were chunked.
  EXPECT_EQ(service.now(), ticker.ticks_delivered());
}

TEST(TickerThreadTest, StopIsIdempotentAndFinal) {
  LockedService service(std::make_unique<HashedWheelUnsorted>(64));
  TickerThread ticker(service, std::chrono::microseconds(200));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ticker.Stop();
  const std::uint64_t at_stop = ticker.ticks_delivered();
  ticker.Stop();  // second stop: no-op
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ticker.ticks_delivered(), at_stop) << "ticks after Stop()";
}

TEST(TickerThreadTest, DestructorStops) {
  LockedService service(std::make_unique<HashedWheelUnsorted>(64));
  {
    TickerThread ticker(service, std::chrono::microseconds(200));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }  // destructor joins
  const Tick at_destroy = service.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(service.now(), at_destroy);
}

}  // namespace
}  // namespace twheel::concurrent
