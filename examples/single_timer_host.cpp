// The Section 3.2 hardware-single-timer variant, as a host-side event loop.
//
// "If Scheme 2 is implemented by a host processor, the interrupt overhead on every
// tick can be avoided if there is hardware support to maintain a single timer. The
// hardware timer is set to expire at the time at which the timer at the head of the
// list is due to expire. The hardware intercepts all clock ticks and interrupts the
// host only when a timer actually expires."
//
// Usage: ./build/examples/single_timer_host [timers] [horizon]
//
// The "hardware timer" is the NextExpiryHint/FastForward capability: instead of a
// bookkeeping call per tick, the host asks the ordered list for the head expiry,
// sleeps (jumps) to one tick before it, and takes a single "interrupt" (the
// bookkeeping call that fires it). The program reports how many per-tick interrupts
// the hardware absorbed.

#include <cstdio>
#include <cstdlib>

#include "src/baselines/sorted_list_timers.h"
#include "src/rng/distributions.h"
#include "src/rng/rng.h"

int main(int argc, char** argv) {
  using namespace twheel;

  std::size_t num_timers = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 500;
  Tick horizon = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1000000;

  SortedListTimers timers(SearchDirection::kFromRear);
  std::size_t fired = 0;
  rng::Xoshiro256 gen(11);
  rng::ExponentialInterval think(static_cast<double>(horizon) / 50.0);

  // Each expiry re-arms, so the list stays populated: a steady drizzle of work
  // separated by long dead stretches — the worst case for per-tick interrupts.
  timers.set_expiry_handler([&](RequestId id, Tick, bool) {
    ++fired;
    (void)timers.StartTimer(think.Draw(gen), id);
  });
  for (std::size_t i = 0; i < num_timers; ++i) {
    (void)timers.StartTimer(think.Draw(gen), i);
  }

  std::uint64_t host_interrupts = 0;
  while (timers.now() < horizon) {
    auto next = timers.NextExpiryHint();
    if (!next.has_value() || *next > horizon) {
      timers.FastForward(horizon);
      break;
    }
    if (*next - 1 > timers.now()) {
      timers.FastForward(*next - 1);  // the hardware swallows these ticks
    }
    timers.PerTickBookkeeping();  // one host interrupt: the timer actually expired
    ++host_interrupts;
  }

  std::printf("single-timer-host: %zu timers over %llu simulated ticks\n", num_timers,
              static_cast<unsigned long long>(horizon));
  std::printf("  expiries handled        %zu\n", fired);
  std::printf("  host interrupts         %llu  (one per expiry tick)\n",
              static_cast<unsigned long long>(host_interrupts));
  std::printf("  tick interrupts avoided %llu  (%.4f%% of ticks were dead time)\n",
              static_cast<unsigned long long>(horizon - host_interrupts),
              100.0 * static_cast<double>(horizon - host_interrupts) /
                  static_cast<double>(horizon));
  std::printf("  START_TIMER cost stays the ordered list's O(n): %.1f comparisons/insert\n",
              static_cast<double>(timers.counts().comparisons) /
                  static_cast<double>(timers.counts().start_calls));
  return 0;
}
