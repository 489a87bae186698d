// Differential model-checking driver.
//
// Replays one deterministic, seeded stream of timer-facility operations against a
// TimerService under test and against OracleTimers simultaneously, asserting after
// every tick that the two worlds are indistinguishable:
//
//   * the multiset of (request id, last) expiries delivered this tick is
//     identical — order within a tick is deliberately NOT compared (Section
//     4.2), and the oracle's rule for whether a fire ends its timer checks
//     the SUT's ExpiryHandler `last` flag;
//   * both sides report the same expiry count, the same outstanding() population,
//     and the same now();
//   * StartTimer/StopTimer/RestartTimer return identical results call-for-call,
//     including the rejects (zero interval, stale handle, restart-of-expired,
//     restart-of-cancelled);
//   * a restarted timer fires at exactly now + new_interval — never the old
//     deadline — through the SAME handle pair, and the conservation law
//     starts == expiries + cancels + outstanding holds after every tick
//     (restarts are neither starts nor cancels);
//   * stale handles — from expiry, from cancellation, or fabricated — are always
//     refused with kNoSuchTimer, on both sides, even after the underlying slots
//     have been recycled many times.
//
// The stream covers the paper's full operation alphabet plus the re-entrancy the
// ExpiryHandler contract permits: handlers may re-arm the fired timer (including
// the nasty interval ≡ 0 (mod TableSize) case that lands in the bucket currently
// being swept), stop a not-yet-visited sibling (restricted to siblings due on a
// *later* tick, because intra-tick firing order is unspecified and a same-tick
// sibling may or may not have fired already — see oracle.h), and start a timer due
// on the very next tick.
//
// Determinism across the two sides is achieved by a decide-then-replay protocol:
// the side under test runs its tick first and every in-handler decision (drawn
// from the seeded RNG) is logged; the oracle's handlers then replay the log rather
// than re-rolling dice. Because every logged action targets either the fired timer
// itself or a sibling that cannot fire this tick, the end-of-tick state is
// independent of intra-tick dispatch order, and replay is sound.
//
// CAUTION: LockedService runs expiry handlers while holding its global lock, so
// re-entrant handler operations self-deadlock on it by documented design. Drive it
// with DriverOptions::WithoutReentrancy().

#ifndef TWHEEL_SRC_VERIFY_DIFFERENTIAL_DRIVER_H_
#define TWHEEL_SRC_VERIFY_DIFFERENTIAL_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/timer_service.h"

namespace twheel::verify {

struct DriverOptions {
  std::uint64_t seed = 1;

  // Measured phase: this many ticks of mixed starts/stops/pokes.
  std::size_t ticks = 256;
  double starts_per_tick = 2.0;

  // Intervals are uniform in [min_interval, max_interval]. max_interval must be
  // within the span of every scheme under test (BasicWheel rejects intervals >=
  // its wheel size; a {16,16,16} hierarchy spans 4096 ticks). Drive *unbounded*
  // arena configurations: the oracle models no capacity limit, so a kNoCapacity
  // reject on only one side is (correctly) reported as divergence.
  Duration min_interval = 1;
  Duration max_interval = 300;

  // Per-tick probabilities for the mutation alphabet outside handlers.
  double stop_probability = 0.35;        // cancel one random live timer
  double stale_poke_probability = 0.5;   // StopTimer on a retired/garbage handle
  double zero_interval_probability = 0.1;  // StartTimer(0): both must reject

  // RestartTimer coverage. A restart relinks one random live timer in place:
  // both sides must return kOk, the driver's handle pair stays valid (later
  // stops reuse it — the handle-stability half of the contract), and the timer
  // must fire at exactly now + the new interval, never the old deadline.
  double restart_probability = 0.0;
  // 0 = restart with a random interval in [min_interval, max_interval];
  // nonzero = exactly this interval (tests pass the table size to land the
  // relink in the bucket being swept next, or a span-crossing pivot to force
  // wheel rollover).
  Duration restart_interval = 0;
  // RestartTimer on a retired handle — expired OR cancelled (retired_ holds
  // both) — plus fabricated and null handles: kNoSuchTimer on both sides, and
  // no live timer may be disturbed.
  double restart_stale_probability = 0.0;
  // RestartTimer(live, 0): both sides must reject with kZeroInterval and leave
  // the timer untouched at its old deadline (verified when it later fires).
  double restart_zero_probability = 0.0;

  // Per-expiry probabilities for the in-handler re-entrancy alphabet.
  double rearm_probability = 0.0;
  // 0 = re-arm with a random interval; nonzero = exactly this interval (set it to
  // the wheel's table size to land the re-arm back in the bucket being swept).
  Duration rearm_interval = 0;
  // In-handler restart of a sibling due on a *later* tick (same victim rule as
  // stop_sibling: intra-tick order is unspecified, so same-tick siblings are
  // off limits — and a restart's new expiry is >= current_tick + 1, so the
  // restarted sibling never joins the tick's committed expiry set).
  double restart_sibling_probability = 0.0;
  // 0 = random interval; nonzero = exact (table size lands the relink in the
  // bucket currently being dispatched).
  Duration restart_sibling_interval = 0;

  double stop_sibling_probability = 0.0;
  double start_next_tick_probability = 0.0;
  // StopTimer on the fired timer's own handle, from inside its handler. For a
  // one-shot (and for a finite periodic's final fire) the handle is stale by
  // dispatch time and both sides must refuse with kNoSuchTimer; for a
  // non-final periodic fire the expiry-path re-arm precedes dispatch, so the
  // handle is LIVE and both sides must accept — the poke becomes a
  // cancel-from-own-handler that ends the series.
  double self_poke_probability = 0.0;

  // Periodic-timer alphabet. With this per-tick probability the mutate phase
  // starts one finite periodic registration (StartPeriodic; repeat budget
  // uniform in [1, periodic_repeat_max]). Periodic entries stay in the live
  // set across non-final fires — same handle pair, expiry prediction advanced
  // one period per fire — so the existing stop/restart/stale alphabet
  // naturally covers cancel-between-fires, restart-of-periodic (the cadence
  // must survive, only the next deadline moves), and stale pokes after the
  // final fire. Every non-final fire must be dispatched by both sides without
  // being counted as an expiry (conservation treats only the final fire as the
  // start's resolution).
  double periodic_probability = 0.0;
  // 0 = period uniform in [min_interval, max_interval]; nonzero = exactly this
  // period (tests pass the table size or a span-rollover pivot so every re-arm
  // lands back in the bucket being swept / forces wheel rollover).
  Duration periodic_interval = 0;
  std::uint64_t periodic_repeat_max = 4;

  // Batched-advance jumps: with this probability a tick of the measured phase is
  // replaced by one AdvanceTo(now + delta) call on both sides. The SUT's batched
  // override (occupancy-bitmap jumping for the wheels) is checked against the
  // oracle's loop default: both must dispatch the identical (tick, id, last)
  // multiset across the jumped window, in nondecreasing tick order, and land on
  // the same clock/outstanding state. Handlers are passive during a jump (the
  // per-tick decide-then-replay protocol is tick-grained).
  double jump_probability = 0.0;
  // Random jump deltas are uniform in [1, max_jump].
  Duration max_jump = 64;
  // When non-empty, half the jumps draw their delta from here instead — the test
  // supplies wheel-size / hierarchy-rollover boundary values (size-1, size,
  // size+1, span, ...).
  std::vector<Duration> jump_pivots;

  // After the measured phase the driver stops mutating and ticks until both sides
  // drain; this bounds how long that may take beyond max_interval.
  std::size_t drain_slack = 8;

  // Slop-bits reduced precision (src/core/slop.h). The SUT must be constructed
  // with the SAME slop_bits; the driver builds its paired oracle with it and
  // rounds every expiry prediction up to the 2^slop_bits grain, so checking
  // stays exact-match — the slop bound is verified, not tolerated: a scheme
  // firing one tick off the quantized deadline still diverges.
  std::uint32_t slop_bits = 0;

  // A copy safe for services that run handlers under their own lock.
  DriverOptions WithoutReentrancy() const {
    DriverOptions o = *this;
    o.rearm_probability = 0.0;
    o.restart_sibling_probability = 0.0;
    o.stop_sibling_probability = 0.0;
    o.start_next_tick_probability = 0.0;
    o.self_poke_probability = 0.0;
    return o;
  }
};

struct DriverReport {
  bool ok = true;
  // Human-readable description of the FIRST divergence; empty when ok.
  std::string divergence;

  std::size_t ticks_run = 0;
  std::size_t starts = 0;
  std::size_t stops = 0;
  std::size_t expiries = 0;
  std::size_t stale_pokes = 0;
  std::size_t restarts = 0;             // successful in-place relinks
  std::size_t stale_restarts = 0;       // refused restart-of-expired/cancelled
  std::size_t zero_restarts = 0;        // refused RestartTimer(live, 0)
  std::size_t handler_rearms = 0;
  std::size_t handler_sibling_stops = 0;
  std::size_t handler_sibling_restarts = 0;
  std::size_t handler_next_tick_starts = 0;
  std::size_t periodic_starts = 0;        // StartPeriodic registrations accepted
  std::size_t periodic_fires = 0;         // non-final periodic dispatches (not expiries)
  std::size_t periodic_self_cancels = 0;  // cancel-from-own-handler on a live periodic
  std::size_t jumps = 0;       // AdvanceTo batches executed
  std::size_t jump_ticks = 0;  // ticks covered by those batches (included in ticks_run)
};

// Runs one episode. The driver installs its own expiry handler on `sut` (replacing
// any existing one) and owns the paired oracle internally. The episode ends early
// at the first divergence.
DriverReport RunDifferential(TimerService& sut, const DriverOptions& options);

}  // namespace twheel::verify

#endif  // TWHEEL_SRC_VERIFY_DIFFERENTIAL_DRIVER_H_
