// Concurrent torture driver for thread-safe TimerService implementations.
//
// The differential driver (differential_driver.h) checks *semantics* against the
// oracle but is single-threaded by construction: the decide-then-replay protocol
// needs a serial view of every decision. This driver supplies the missing half —
// real producer threads racing StartTimer/StopTimer against a concurrently
// advancing clock — and checks the strongest properties that survive the races,
// under the deferred-visibility contract of the MPSC submission runtime (a timer
// becomes visible at the drain following its enqueue; it fires at
// max(enqueue-now + interval, drain-tick + 1)):
//
//   * exactly-once: every start that returned a handle is observed to fire
//     exactly once, or its StopTimer returned kOk — never both, never neither
//     (checked after a quiescing drain at episode end);
//   * no early fire: a timer never fires before `observed-now-at-start +
//     interval`, where observed-now is read by the producer before its call (a
//     lower bound on the now the service captured);
//   * no fire after cancel: a StopTimer that returned kOk is authoritative even
//     when it raced the expiry — the fire log must not contain that cookie;
//   * monotone dispatch: expiry `when` values are nondecreasing within each
//     driver thread's dispatch stream, and every `when` is <= the service's now
//     at dispatch;
//   * conservation at quiescence: outstanding() == 0 and fires + kOk-cancels ==
//     successful starts.
//
// Five episode modes:
//   * kManualRace — producers race while the driver's own thread advances the
//     clock via interleaved PerTickBookkeeping / AdvanceTo batches (invariant
//     checks above);
//   * kTickerRace — same, with a TickerThread as the clock driver, exercising
//     the chunked catch-up path against live producers;
//   * kLockstepOracle — producers and the clock alternate under a barrier: the
//     clock is frozen while producers race a batch of enqueues (so every
//     deadline is minted at a known now), then the batch is replayed into
//     OracleTimers and both worlds advance in lockstep, comparing per-tick
//     expiry multisets, call results, now(), and outstanding() *exactly* — the
//     full differential guarantee, with genuine MPSC contention inside each
//     enqueue phase;
//   * kMultiTicker — the SUT must be a concurrent::ShardedWheel: a TickerThread
//     drives a DispatchPool from the wall clock, so every catch-up chunk is
//     advanced and delivered by N drainer threads concurrently (with
//     stealing), while producers race the full alphabet;
//   * kStealStorm — same pool, no ticker: the driver thread slams bursty
//     AdvanceTo jumps through the pool so whole slot-ranges of expiries are
//     published at once and idle drainers fight to steal the batches.
//
// In the pool modes (kMultiTicker, kStealStorm) expiry handlers run
// CONCURRENTLY on several drainer threads, so the fire log's global
// monotone-dispatch and when<=now checks are vacuous by design and disabled;
// instead the wheel itself certifies per-shard delivery order
// (ShardedWheel::dispatch_order_violations must stay 0 — monotone-per-shard),
// and the episode additionally checks the counts() conservation law
// start_calls == expiries + kOk-cancels + outstanding at quiesce, which only
// holds if the per-shard OpCounts snapshot is coherent under N drainers. The
// per-cookie invariants (exactly-once, budgets, early-fire bounds, periodic
// spacing) are unchanged: all laps of one cookie belong to one shard, whose
// dispatch stays serial under the batch-rights CAS even when stolen.
//
// The driver is scheme-agnostic (any thread-safe TimerService works; the locked
// ShardedWheel and LockedService satisfy the same invariants with "visible
// immediately" as the degenerate visibility point) but was built to trust the
// deferred-registration runtime of concurrent::ShardedWheel.

#ifndef TWHEEL_SRC_VERIFY_CONCURRENT_DRIVER_H_
#define TWHEEL_SRC_VERIFY_CONCURRENT_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/core/timer_service.h"

namespace twheel::verify {

enum class TortureMode : std::uint8_t {
  kManualRace,
  kTickerRace,
  kLockstepOracle,
  // Pool modes: require the SUT to be a concurrent::ShardedWheel (the episode
  // fails cleanly otherwise). Clock + dispatch come from a DispatchPool.
  kMultiTicker,
  kStealStorm,
};

struct TortureOptions {
  std::uint64_t seed = 1;
  TortureMode mode = TortureMode::kManualRace;

  // Producer threads racing StartTimer/StopTimer.
  std::size_t producers = 4;
  // Start/stop operations attempted per producer per episode (kManualRace,
  // kTickerRace) or per round (kLockstepOracle).
  std::size_t ops_per_producer = 512;

  Duration min_interval = 1;
  Duration max_interval = 128;
  // Probability that a producer stops one of its own live timers instead of
  // starting a new one.
  double stop_probability = 0.4;
  // Probability that a producer RESTARTS one of its own live timers instead.
  // kOk commits the restart: the handle stays valid (the producer keeps using
  // it), and the checker requires the eventual fire tick to be >= the
  // producer's observed now() at the LAST successful restart + its interval —
  // so a restarted-before-its-old-deadline timer that fires at the old
  // deadline is flagged. kNoSuchTimer means a fire (or claim) won the race:
  // the cookie must then appear in the fire log exactly once — restart-vs-fire
  // resolves exactly once, never both and never neither.
  double restart_probability = 0.0;
  // Probability that a producer's start is a PERIODIC registration
  // (StartPeriodic) with a finite repeat budget uniform in
  // [1, periodic_repeat_max]. Finite budgets keep episodes quiescible. A
  // periodic stays in the producer's live set across its laps, so the
  // stop/restart alphabet races cancel-between-fires and restart-of-periodic
  // against the expiry-path re-arm. The checker then requires: a periodic
  // never cancelled delivers EXACTLY its budget of laps; kOk cancel means the
  // final lap was never delivered (a strict prefix of the budget); laps of a
  // never-restarted periodic are spaced exactly one period apart (the re-arm
  // is phase-stable); and no lap lands before observed-now-at-start + period.
  double periodic_probability = 0.0;
  std::uint64_t periodic_repeat_max = 4;

  // kManualRace: ticks the driver thread delivers while producers run, and the
  // probability a delivery is an AdvanceTo batch (uniform in [1, max_jump])
  // instead of a single PerTickBookkeeping.
  std::size_t race_ticks = 256;
  double jump_probability = 0.25;
  Duration max_jump = 32;

  // kTickerRace / kMultiTicker: the TickerThread period. Small enough that a
  // slow CI machine still delivers real start/expiry races within the episode.
  std::uint64_t ticker_period_us = 50;

  // kLockstepOracle: barrier-synchronized {enqueue, replay, advance} rounds.
  std::size_t rounds = 24;

  // kMultiTicker / kStealStorm: DispatchPool shape. `drainers` threads own the
  // SUT's shards round-robin; `steal` lets an idle drainer deliver other
  // shards' published batches. kMultiTicker's pool is driven by a TickerThread
  // at `ticker_period_us` per tick; kStealStorm instead has the driver thread
  // push bursty AdvanceTo jumps (reusing race_ticks / jump_probability /
  // max_jump) so batch stacks pile up for the thieves. `pool_chunk_ticks`
  // bounds one AdvanceShard catch-up chunk, keeping Stop() prompt even when an
  // episode ends mid-burst.
  std::size_t drainers = 2;
  bool steal = true;
  std::uint64_t pool_chunk_ticks = 64;
};

struct TortureReport {
  bool ok = true;
  // Human-readable description of the FIRST violation; empty when ok.
  std::string violation;

  std::size_t starts = 0;          // successful StartTimer calls
  std::size_t start_rejects = 0;   // kNoCapacity (counted, not a violation)
  std::size_t cancels = 0;         // StopTimer calls that returned kOk
  std::size_t cancel_misses = 0;   // StopTimer calls that returned kNoSuchTimer
  std::size_t restarts = 0;        // RestartTimer calls that returned kOk
  std::size_t restart_misses = 0;  // kNoSuchTimer: the fire won the race
  std::size_t restart_rejects = 0; // kNoCapacity (counted, not a violation)
  std::size_t fires = 0;           // expiry dispatches observed
  std::size_t periodic_starts = 0; // successful StartPeriodic calls
  std::size_t periodic_fires = 0;  // laps attributed to periodic registrations
  std::size_t ticks_run = 0;       // clock advancement seen by the service
  // Pool modes only: expiry batches published by shard advances, and how many
  // were delivered by a non-owning drainer (a successful steal).
  std::uint64_t dispatch_batches = 0;
  std::uint64_t dispatch_steals = 0;
};

// Runs one episode against `sut`, which must be thread-safe. The driver installs
// its own expiry handler (replacing any existing one) and expects exclusive use
// of the service: the episode starts at the service's current now() and quiesces
// it (drains every outstanding timer) before returning.
TortureReport RunTorture(TimerService& sut, const TortureOptions& options);

}  // namespace twheel::verify

#endif  // TWHEEL_SRC_VERIFY_CONCURRENT_DRIVER_H_
