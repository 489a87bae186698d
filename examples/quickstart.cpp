// Quickstart: the four-routine timer facility in a dozen lines.
//
// Build & run:   ./build/examples/quickstart
//
// Creates the paper's recommended general-purpose configuration (Scheme 6, a hashed
// timing wheel), starts a few timers, cancels one, and drives the tick loop — the
// whole public API surface of twheel::TimerService.

#include <cstdio>

#include "src/core/timer_facility.h"

int main() {
  using namespace twheel;

  // Pick a scheme by configuration. Scheme 6 = hashed wheel, unsorted buckets:
  // O(1) start/stop, O(n/TableSize) amortized per-tick work.
  FacilityConfig config;
  config.scheme = SchemeId::kScheme6HashedUnsorted;
  config.wheel_size = 256;  // power of two: the hash is a single AND
  auto timers = MakeTimerService(config);

  // EXPIRY_PROCESSING: one handler per service; each timer carries a cookie,
  // and `last` says whether the fire ends the timer (always, for a one-shot).
  timers->set_expiry_handler([](RequestId id, Tick now, bool /*last*/) {
    std::printf("  tick %4llu: timer %llu expired\n",
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(id));
  });

  // START_TIMER(interval, request_id).
  auto coffee = timers->StartTimer(30, /*request_id=*/1);
  auto lunch = timers->StartTimer(120, /*request_id=*/2);
  auto nap = timers->StartTimer(500, /*request_id=*/3);
  if (!coffee.has_value() || !lunch.has_value() || !nap.has_value()) {
    std::printf("failed to start timers\n");
    return 1;
  }
  std::printf("started 3 timers (outstanding: %zu)\n", timers->outstanding());

  // STOP_TIMER: O(1) via the handle; stale handles are detected, not corrupted.
  if (timers->StopTimer(lunch.value()) == TimerError::kOk) {
    std::printf("cancelled timer 2 before expiry\n");
  }

  // PER_TICK_BOOKKEEPING: the clock is yours to drive — one call per tick.
  timers->AdvanceBy(600);

  // Cancelling an already-expired timer is safe and reports kNoSuchTimer.
  TimerError err = timers->StopTimer(coffee.value());
  std::printf("stopping the expired timer 1 reports: %s\n", TimerErrorName(err));

  // Every scheme keeps the paper's operation counts.
  const auto& counts = timers->counts();
  std::printf("op counts: %llu starts, %llu stops, %llu ticks, %llu expiries, "
              "%llu empty-slot checks\n",
              static_cast<unsigned long long>(counts.start_calls),
              static_cast<unsigned long long>(counts.stop_calls),
              static_cast<unsigned long long>(counts.ticks),
              static_cast<unsigned long long>(counts.expiries),
              static_cast<unsigned long long>(counts.empty_slot_checks));
  return 0;
}
