// TickerThread — the bridge from simulated ticks to wall-clock time.
//
// Everything in twheel is driven by explicit PerTickBookkeeping() calls (the
// paper's hardware-clock interrupt). Production users need something to *be* that
// clock: TickerThread runs a background thread that advances the service at a
// fixed wall-clock period, which is the paper's deployment model ("the algorithm
// is implemented by a processor that is interrupted each time a hardware clock
// ticks"). This file is the only place on the library's tick path that reads a
// wall clock (src/workload/ reads one only to time benchmark runs).
//
// The driven service is anything with `now()` and `AdvanceTo(Tick)`: a
// TimerService (LockedService, ShardedWheel in either mode), a DispatchPool —
// whose drainers then deliver each catch-up chunk on N cores — or a
// net::TimerServer. It must be thread-safe if any other thread starts/stops
// timers concurrently. Scheduling delays are absorbed by catch-up: the ticker
// delivers as many simulated ticks as full periods have elapsed, so simulated
// time tracks wall time without drift (ticks are never skipped, matching the
// model where every tick's bookkeeping must run). Backlogs are delivered through
// batched AdvanceTo calls in wall-time-bounded chunks — see Loop(). The ticker
// assumes it is the only clock driver for the service (other threads may
// start/stop timers, but must not advance the clock): stop it before driving
// the service by hand.

#ifndef TWHEEL_SRC_CONCURRENT_TICKER_H_
#define TWHEEL_SRC_CONCURRENT_TICKER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/base/types.h"

namespace twheel::concurrent {

template <typename Service>
class TickerThread {
 public:
  // Does not take ownership; `service` must outlive the ticker. The thread starts
  // immediately.
  TickerThread(Service& service, std::chrono::microseconds period)
      : service_(service), period_(period), thread_([this] { Loop(); }) {}

  TickerThread(const TickerThread&) = delete;
  TickerThread& operator=(const TickerThread&) = delete;

  ~TickerThread() { Stop(); }

  // Idempotent; blocks until the thread has exited. No bookkeeping call runs after
  // Stop returns. A catch-up burst is abandoned mid-burst: Stop waits for at most
  // the one bookkeeping call in flight, never for the whole backlog.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_.load(std::memory_order_relaxed)) {
        return;
      }
      stopping_.store(true, std::memory_order_relaxed);
    }
    wakeup_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  std::uint64_t ticks_delivered() const {
    return ticks_delivered_.load(std::memory_order_relaxed);
  }

 private:
  // Catch-up chunking: a backlog is delivered through batched AdvanceTo calls (so
  // a wheel skips its dead slots via the occupancy bitmap instead of paying one
  // virtual call per tick), in chunks sized so one call's wall time stays near
  // kChunkWallBudget. Stop() can only interrupt *between* calls, so the adaptive
  // chunk — re-measured after every call, starting at 1 tick — preserves the
  // mid-burst abort promptness even when the service's bookkeeping is slow, while
  // a fast service coalesces a 10k-tick backlog into a handful of calls.
  static constexpr std::chrono::milliseconds kChunkWallBudget{10};
  static constexpr std::uint64_t kMaxChunkTicks = 1u << 16;

  void Loop() {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point epoch = Clock::now();
    std::uint64_t delivered = 0;
    std::uint64_t chunk = 1;  // first call measures the service's per-tick cost
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_.load(std::memory_order_relaxed)) {
      const auto due_count = static_cast<std::uint64_t>((Clock::now() - epoch) / period_);
      if (delivered < due_count) {
        // Catch up without holding the lock across client expiry handlers.
        // Re-check stopping_ per chunk: a long backlog of slow client handlers
        // must not hold Stop() hostage for the rest of the burst.
        lock.unlock();
        while (delivered < due_count &&
               !stopping_.load(std::memory_order_relaxed)) {
          const std::uint64_t n = std::min(chunk, due_count - delivered);
          const Clock::time_point begin = Clock::now();
          service_.AdvanceTo(service_.now() + n);
          const auto elapsed =
              std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - begin);
          delivered += n;  // simulated ticks, regardless of chunking
          ticks_delivered_.store(delivered, std::memory_order_relaxed);
          const std::uint64_t per_tick_ns =
              static_cast<std::uint64_t>(elapsed.count()) / n;
          const std::uint64_t budget_ns = static_cast<std::uint64_t>(
              std::chrono::nanoseconds(kChunkWallBudget).count());
          chunk = per_tick_ns == 0
                      ? kMaxChunkTicks
                      : std::min(kMaxChunkTicks, std::max<std::uint64_t>(
                                                     1, budget_ns / per_tick_ns));
        }
        lock.lock();
        continue;
      }
      wakeup_.wait_until(lock, epoch + (delivered + 1) * period_,
                         [this] { return stopping_.load(std::memory_order_relaxed); });
    }
  }

  Service& service_;
  const std::chrono::microseconds period_;

  std::mutex mutex_;
  std::condition_variable wakeup_;
  // Atomic so the unlocked catch-up loop may poll it; still only *set* under
  // mutex_ so the condition-variable wait cannot miss the transition.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> ticks_delivered_{0};

  std::thread thread_;  // last member: started after everything else is ready
};

}  // namespace twheel::concurrent

#endif  // TWHEEL_SRC_CONCURRENT_TICKER_H_
