// TickerThread under hostile *client* load: slow expiry handlers that make every
// bookkeeping call expensive. ticker_test.cc covers slow services and batching
// with inert stubs; here a real wheel full of re-arming timers builds an
// unbounded catch-up backlog of handler work, and the PR-1/PR-2 promptness
// guarantees must survive it:
//   * Stop() waits for at most the one bookkeeping call in flight (the adaptive
//     chunk collapses to a single tick when a tick costs more than the 10 ms
//     chunk budget), never for the accumulated backlog;
//   * no bookkeeping call — PerTickBookkeeping or AdvanceTo — starts after
//     Stop() has returned.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/concurrent/sharded_wheel.h"
#include "src/concurrent/ticker.h"

namespace twheel::concurrent {
namespace {

using std::chrono::steady_clock;

TEST(TickerStressTest, SlowExpiryHandlersDoNotHoldStopHostage) {
  ShardedWheel wheel(1, 64,
                     {.ring_capacity = 1024,
                      .registration_capacity = 1024,
                      .on_full = SubmitPolicy::kReject});
  // Every fired timer sleeps 2 ms in its handler and re-arms at interval 1, so
  // once seeded the wheel owes ~population * 2 ms of handler time per simulated
  // tick — at a 100 µs period the ticker is permanently in catch-up, and the
  // outstanding backlog is worth tens of seconds of handler work.
  constexpr int kPopulation = 32;
  std::atomic<std::uint64_t> fired{0};
  wheel.set_expiry_handler([&wheel, &fired](RequestId id, Tick, bool) {
    fired.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto rearm = wheel.StartTimer(1, id);
    ASSERT_TRUE(rearm.has_value());
  });
  for (int i = 0; i < kPopulation; ++i) {
    ASSERT_TRUE(wheel.StartTimer(1 + (i % 4), i).has_value());
  }

  TickerThread ticker(wheel, std::chrono::microseconds(100));
  // Accumulate a real backlog: wait until some expiries have actually been
  // dispatched (so the slow-handler path is in flight), then a little longer.
  for (int i = 0; i < 5000 && fired.load(std::memory_order_relaxed) < 64; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_GE(fired.load(std::memory_order_relaxed), 64u)
      << "handler load never materialized";

  const auto stop_begin = steady_clock::now();
  ticker.Stop();
  const auto stop_elapsed = steady_clock::now() - stop_begin;
  // One in-flight call is ~population * 2 ms (the adaptive chunk is 1 tick once
  // a tick costs more than the chunk budget); the backlog behind it is worth
  // tens of seconds. Generous bound for sanitizer builds — still an order of
  // magnitude below draining the backlog.
  EXPECT_LT(stop_elapsed, std::chrono::seconds(2))
      << "Stop() blocked behind the handler backlog";
}

// Forwards to a real wheel while counting bookkeeping entries; Freeze() arms
// the after-stop detector.
class BookkeepingProbe final : public TimerService {
 public:
  explicit BookkeepingProbe(TimerService& inner) : inner_(inner) {}

  void Freeze() { frozen_.store(true, std::memory_order_seq_cst); }
  std::uint64_t bookkeeping_calls() const { return calls_.load(); }
  std::uint64_t calls_after_freeze() const { return late_calls_.load(); }

  StartResult StartTimer(Duration interval, RequestId id) override {
    return inner_.StartTimer(interval, id);
  }
  TimerError StopTimer(TimerHandle handle) override {
    return inner_.StopTimer(handle);
  }
  std::size_t PerTickBookkeeping() override {
    Count();
    return inner_.PerTickBookkeeping();
  }
  std::size_t AdvanceTo(Tick target) override {
    Count();
    return inner_.AdvanceTo(target);
  }
  std::optional<Tick> NextExpiryHint() const override {
    return inner_.NextExpiryHint();
  }
  bool FastForward(Tick target) override { return inner_.FastForward(target); }
  Tick now() const override { return inner_.now(); }
  std::size_t outstanding() const override { return inner_.outstanding(); }
  metrics::OpCounts counts() const override { return inner_.counts(); }
  std::string_view name() const override { return "bookkeeping-probe"; }
  void set_expiry_handler(ExpiryHandler handler) override {
    inner_.set_expiry_handler(std::move(handler));
  }
  SpaceProfile Space() const override { return inner_.Space(); }

 private:
  void Count() {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (frozen_.load(std::memory_order_seq_cst)) {
      late_calls_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  TimerService& inner_;
  std::atomic<bool> frozen_{false};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> late_calls_{0};
};

TEST(TickerStressTest, NoBookkeepingCallRunsAfterStopReturns) {
  ShardedWheel wheel(1, 64,
                     {.ring_capacity = 1024,
                      .registration_capacity = 1024,
                      .on_full = SubmitPolicy::kReject});
  std::atomic<std::uint64_t> fired{0};
  // A mildly slow handler keeps the ticker inside catch-up bursts so Stop() is
  // very likely to interrupt one mid-burst — the interesting case.
  wheel.set_expiry_handler([&wheel, &fired](RequestId id, Tick, bool) {
    fired.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    (void)wheel.StartTimer(1 + (id % 3), id);
  });
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(wheel.StartTimer(1 + (i % 4), i).has_value());
  }

  BookkeepingProbe probe(wheel);
  TickerThread ticker(probe, std::chrono::microseconds(100));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ticker.Stop();
  probe.Freeze();  // Stop() has returned: nothing may call bookkeeping anymore
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GT(probe.bookkeeping_calls(), 0u);
  EXPECT_EQ(probe.calls_after_freeze(), 0u)
      << "a bookkeeping call ran after Stop() returned";
}

}  // namespace
}  // namespace twheel::concurrent
