#include "src/verify/concurrent_driver.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <compare>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/concurrent/dispatch_pool.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/concurrent/ticker.h"
#include "src/rng/rng.h"
#include "src/verify/oracle.h"

namespace twheel::verify {
namespace {

// Cookies are globally unique per episode: {producer:16 | sequence:48}. The
// checker decodes them back into the owning thread's op log.
constexpr RequestId MakeCookie(std::size_t producer, std::uint64_t seq) {
  return (static_cast<RequestId>(producer) << 48) | seq;
}

// One dispatch as the handler received it.
struct Fire {
  Tick when;
  RequestId cookie;
  bool last;
  friend auto operator<=>(const Fire&, const Fire&) = default;
};

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// ---------------------------------------------------------------------------
// Race modes (kManualRace, kTickerRace): free-running producers, invariant
// checks over per-thread op logs and the dispatch stream.
// ---------------------------------------------------------------------------

struct OpRecord {
  Duration interval = 0;
  // The producer's read of now() immediately before StartTimer — a lower bound
  // on the now the service captured, hence on the legal fire tick minus
  // interval.
  Tick observed_now = 0;
  bool started = false;       // StartTimer returned a handle
  bool cancelled_ok = false;  // our StopTimer returned kOk
  bool cancel_missed = false; // our StopTimer returned kNoSuchTimer
  // Last successful in-place restart of this timer: the fire-tick lower bound
  // becomes restart_observed_now + restart_interval. A restart committed
  // before the old deadline therefore makes an old-deadline fire a violation.
  bool restarted = false;
  Tick restart_observed_now = 0;
  Duration restart_interval = 0;
  bool restart_missed = false;  // RestartTimer returned kNoSuchTimer (fire won)
  // Periodic registration: `repeats` is the finite lap budget handed to
  // StartPeriodic. The cookie then legally appears in the fire log up to
  // `repeats` times (exactly `repeats` unless a cancel ended the series).
  bool periodic = false;
  std::uint64_t repeats = 0;
};

struct ProducerLog {
  std::vector<OpRecord> ops;
  std::size_t start_rejects = 0;
  std::size_t restarts = 0;
  std::size_t restart_misses = 0;
  std::size_t restart_rejects = 0;
  std::size_t periodic_starts = 0;
};

// The dispatch stream. In the single-driver modes it is appended by whichever
// one thread is advancing the clock (driver thread or TickerThread — never
// both at once; the phases are sequenced by thread joins) and the global
// monotonicity / when<=now checks apply. In the pool modes several drainers
// append concurrently (the mutex keeps the log itself coherent), interleaving
// independently-ordered per-shard streams — so those two global checks are
// disabled via `concurrent_dispatch` and per-shard order is certified inside
// the wheel instead (dispatch_order_violations, checked at episode end).
struct FireLog {
  std::mutex mutex;
  std::vector<Fire> fires;
  bool have_last = false;
  Tick last_when = 0;
  bool concurrent_dispatch = false;
  std::string violation;  // first in-handler violation (monotonicity)

  void Record(const Fire& fire, Tick service_now) {
    const Tick when = fire.when;
    std::lock_guard<std::mutex> lock(mutex);
    if (violation.empty() && !concurrent_dispatch) {
      if (have_last && when < last_when) {
        violation = Format("dispatch ticks not monotone: %llu after %llu",
                           static_cast<unsigned long long>(when),
                           static_cast<unsigned long long>(last_when));
      } else if (when > service_now) {
        violation = Format("dispatch at tick %llu but service now() is %llu",
                           static_cast<unsigned long long>(when),
                           static_cast<unsigned long long>(service_now));
      }
    }
    have_last = true;
    last_when = when;
    fires.push_back(fire);
  }
};

void RaceProducer(TimerService& sut, const TortureOptions& options,
                  std::size_t producer, std::uint64_t seed, ProducerLog& log) {
  rng::Xoshiro256 rng(seed);
  std::vector<std::pair<std::uint64_t, TimerHandle>> live;  // {seq, handle}
  log.ops.reserve(options.ops_per_producer);
  for (std::size_t i = 0; i < options.ops_per_producer; ++i) {
    if ((i & 15) == 0) {
      std::this_thread::yield();  // stretch the episode across more ticks
    }
    if (!live.empty() && rng.NextBool(options.restart_probability)) {
      const std::size_t pick = rng.NextBounded(live.size());
      const auto [seq, handle] = live[pick];
      const Duration new_interval =
          options.min_interval +
          rng.NextBounded(options.max_interval - options.min_interval + 1);
      // Read now() BEFORE the call: a lower bound on the now the service mints
      // the new deadline from, hence on the legal fire tick minus interval.
      const Tick observed = sut.now();
      const TimerError err = sut.RestartTimer(handle, new_interval);
      if (err == TimerError::kOk) {
        // Handle stays valid in place — the timer remains in `live` and later
        // stops/restarts reuse the very same handle.
        log.ops[seq].restarted = true;
        log.ops[seq].restart_observed_now = observed;
        log.ops[seq].restart_interval = new_interval;
        ++log.restarts;
      } else if (err == TimerError::kNoSuchTimer) {
        // The fire won the race; exactly-once demands the cookie shows up in
        // the fire log (checked later) and the handle is dead.
        log.ops[seq].restart_missed = true;
        live[pick] = live.back();
        live.pop_back();
        ++log.restart_misses;
      } else {
        ++log.restart_rejects;  // ring backpressure under kReject; timer unmoved
      }
      continue;
    }
    if (!live.empty() && rng.NextBool(options.stop_probability)) {
      const std::size_t pick = rng.NextBounded(live.size());
      const auto [seq, handle] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      const TimerError err = sut.StopTimer(handle);
      if (err == TimerError::kOk) {
        log.ops[seq].cancelled_ok = true;
      } else {
        // The timer beat us to the fire (or, under MPSC, its fire was already
        // claimed). Legal; the checker requires it to appear in the fire log.
        log.ops[seq].cancel_missed = true;
      }
      continue;
    }
    const Duration interval =
        options.min_interval +
        rng.NextBounded(options.max_interval - options.min_interval + 1);
    OpRecord record;
    record.interval = interval;
    record.observed_now = sut.now();
    const std::uint64_t seq = log.ops.size();
    const bool periodic = rng.NextBool(options.periodic_probability);
    if (periodic) {
      record.periodic = true;
      record.repeats = 1 + rng.NextBounded(options.periodic_repeat_max);
    }
    StartResult result =
        periodic ? sut.StartPeriodic(interval, MakeCookie(producer, seq),
                                     record.repeats)
                 : sut.StartTimer(interval, MakeCookie(producer, seq));
    if (result.has_value()) {
      record.started = true;
      live.emplace_back(seq, result.value());
      if (periodic) {
        ++log.periodic_starts;
      }
    } else {
      ++log.start_rejects;  // backpressure under kReject; not a violation
    }
    log.ops.push_back(record);
  }
}

// Drives the clock until every producer has finished, then quiesces the
// service. `advance` is called by the sole clock-driving thread.
void QuiesceAfterRace(TimerService& sut, const TortureOptions& options,
                      TortureReport& report) {
  // One batch of max_interval + 2 drains every queued command (ShardedWheel
  // drains before advancing) and fires every one-shot it registers; a periodic
  // started at the very end of the race still owes its whole budget of laps,
  // up to periodic_repeat_max * max_interval further ticks. Loop a few times
  // defensively in case a scheme needs a second pass.
  const Duration periodic_span =
      options.periodic_probability > 0.0
          ? options.max_interval *
                static_cast<Duration>(options.periodic_repeat_max)
          : 0;
  for (int i = 0; i < 4 && sut.outstanding() != 0; ++i) {
    sut.AdvanceTo(sut.now() + options.max_interval + periodic_span + 2);
  }
  if (sut.outstanding() != 0 && report.violation.empty()) {
    report.ok = false;
    report.violation = Format(
        "service did not quiesce: %zu timers outstanding after drain",
        sut.outstanding());
  }
}

void CheckRaceLogs(const std::vector<ProducerLog>& logs, const FireLog& fire_log,
                   TortureReport& report) {
  auto fail = [&report](std::string message) {
    if (report.ok) {
      report.ok = false;
      report.violation = std::move(message);
    }
  };
  if (!fire_log.violation.empty()) {
    fail(fire_log.violation);
  }
  // cookie -> every dispatch, in dispatch order (periodics fire once per lap,
  // so a cookie may legally appear several times).
  std::unordered_map<RequestId, std::vector<Fire>> fired;
  fired.reserve(fire_log.fires.size());
  for (const Fire& fire : fire_log.fires) {
    fired[fire.cookie].push_back(fire);
  }
  std::size_t starts = 0;
  std::size_t cancels = 0;
  std::size_t cancel_misses = 0;
  std::size_t attributed = 0;
  for (std::size_t producer = 0; producer < logs.size(); ++producer) {
    const ProducerLog& log = logs[producer];
    report.start_rejects += log.start_rejects;
    report.restarts += log.restarts;
    report.restart_misses += log.restart_misses;
    report.restart_rejects += log.restart_rejects;
    report.periodic_starts += log.periodic_starts;
    for (std::uint64_t seq = 0; seq < log.ops.size(); ++seq) {
      const OpRecord& op = log.ops[seq];
      if (!op.started) {
        continue;
      }
      ++starts;
      const RequestId cookie = MakeCookie(producer, seq);
      const auto it = fired.find(cookie);
      const std::size_t count = it == fired.end() ? 0 : it->second.size();
      const std::size_t lasts =
          it == fired.end()
              ? 0
              : static_cast<std::size_t>(std::count_if(
                    it->second.begin(), it->second.end(),
                    [](const Fire& fire) { return fire.last; }));
      const std::size_t budget = op.periodic ? op.repeats : 1;
      attributed += count;
      if (op.periodic) {
        report.periodic_fires += count;
      }
      if (op.cancelled_ok) {
        ++cancels;
        // One-shot: an authoritative kOk cancel means no fire at all. Periodic:
        // laps delivered BEFORE the cancel committed are legal (a cancel racing
        // an already-collected non-final lap may even see that one lap arrive
        // after kOk), but the FINAL lap claims the registration — it can never
        // coexist with a kOk cancel — so the series must be a strict prefix,
        // with no fire marked last.
        if (count >= budget || lasts != 0) {
          fail(Format("timer %zu/%llu fired %zu times (budget %zu, %zu last) "
                      "despite StopTimer returning kOk",
                      producer, static_cast<unsigned long long>(seq), count,
                      budget, lasts));
        }
        continue;
      }
      if (op.cancel_missed) {
        ++cancel_misses;
      }
      if (count != budget) {
        fail(Format("timer %zu/%llu (interval %llu%s) fired %zu times, "
                    "expected %zu",
                    producer, static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(op.interval),
                    op.periodic ? ", periodic" : "", count, budget));
        continue;
      }
      // The series ends exactly once, at its last delivered fire.
      if (lasts != 1 || !it->second.back().last) {
        fail(Format("timer %zu/%llu fired %zu times with %zu marked last%s",
                    producer, static_cast<unsigned long long>(seq), count, lasts,
                    it->second.back().last ? "" : ", not the final one"));
        continue;
      }
      // A committed restart supersedes the original deadline — and, for a
      // periodic, re-phases every later lap — so the deadline arithmetic below
      // only binds never-restarted timers plus the one-shot restart bound.
      const Tick bound = op.restarted
                             ? op.restart_observed_now + op.restart_interval
                             : op.observed_now + op.interval;
      const Tick first = it->second.front().when;
      if (!op.periodic || !op.restarted) {
        if (first < bound) {
          fail(Format("timer %zu/%llu fired early: at %llu, but observed now "
                      "%llu + interval %llu = %llu%s",
                      producer, static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(first),
                      static_cast<unsigned long long>(
                          op.restarted ? op.restart_observed_now
                                       : op.observed_now),
                      static_cast<unsigned long long>(
                          op.restarted ? op.restart_interval : op.interval),
                      static_cast<unsigned long long>(bound),
                      op.restarted ? " (after in-place restart)" : ""));
        }
      }
      if (op.periodic && !op.restarted) {
        // Phase stability under contention: the expiry-path re-arm targets
        // expiry + period exactly, so consecutive laps of a never-restarted
        // periodic are spaced exactly one period apart — no drift, no
        // compression, regardless of how the clock was advanced.
        for (std::size_t lap = 1; lap < it->second.size(); ++lap) {
          const Tick gap = it->second[lap].when - it->second[lap - 1].when;
          if (gap != op.interval) {
            fail(Format("periodic %zu/%llu lap %zu fired at %llu, %llu ticks "
                        "after the previous lap instead of its period %llu",
                        producer, static_cast<unsigned long long>(seq), lap,
                        static_cast<unsigned long long>(it->second[lap].when),
                        static_cast<unsigned long long>(gap),
                        static_cast<unsigned long long>(op.interval)));
            break;
          }
        }
      }
    }
  }
  report.starts = starts;
  report.cancels = cancels;
  report.cancel_misses = cancel_misses;
  report.fires = fire_log.fires.size();
  // Conservation at quiescence: every dispatch is attributed to exactly one
  // started op (the per-op budget checks above pin the counts; this closes the
  // loop against ghost cookies the logs never started).
  if (report.ok && attributed != fire_log.fires.size()) {
    fail(Format("conservation violated: %zu dispatches attributed to started "
                "ops but %zu dispatches logged",
                attributed, fire_log.fires.size()));
  }
}

TortureReport RunRace(TimerService& sut, const TortureOptions& options) {
  TortureReport report;
  const bool pool_mode = options.mode == TortureMode::kMultiTicker ||
                         options.mode == TortureMode::kStealStorm;
  concurrent::ShardedWheel* sharded = nullptr;
  if (pool_mode) {
    sharded = dynamic_cast<concurrent::ShardedWheel*>(&sut);
    if (sharded == nullptr) {
      report.ok = false;
      report.violation =
          "kMultiTicker/kStealStorm require a concurrent::ShardedWheel SUT";
      return report;
    }
  }
  // A ShardedWheel counts the calls from its commands, not at the calls, so
  // its counts() is checked against the producers' own tallies at quiesce.
  const bool counted = dynamic_cast<concurrent::ShardedWheel*>(&sut) != nullptr;
  const metrics::OpCounts base_counts =
      counted ? sut.counts() : metrics::OpCounts{};

  const Tick base = sut.now();
  FireLog fire_log;
  fire_log.concurrent_dispatch = pool_mode;
  sut.set_expiry_handler([&fire_log, &sut](RequestId cookie, Tick when, bool last) {
    fire_log.Record(Fire{when, cookie, last}, sut.now());
  });

  std::vector<ProducerLog> logs(options.producers);
  std::atomic<std::size_t> running{options.producers};
  std::vector<std::thread> producers;
  producers.reserve(options.producers);
  for (std::size_t p = 0; p < options.producers; ++p) {
    producers.emplace_back([&, p] {
      RaceProducer(sut, options, p, options.seed * 0x9e3779b97f4a7c15ULL + p,
                   logs[p]);
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  if (options.mode == TortureMode::kTickerRace) {
    {
      concurrent::TickerThread ticker(
          sut, std::chrono::microseconds(options.ticker_period_us));
      while (running.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
      }
      // Stop() joins the ticker; no bookkeeping call runs after it returns, so
      // the quiesce below is the sole clock driver.
    }
  } else if (options.mode == TortureMode::kMultiTicker) {
    // A wall-clock ticker over the pool: every catch-up chunk is advanced and
    // delivered (plus stolen) by the drainers concurrently with the producers.
    concurrent::DispatchPool pool(
        *sharded,
        {.drainers = options.drainers,
         .steal = options.steal,
         .max_chunk_ticks = options.pool_chunk_ticks});
    concurrent::TickerThread ticker(
        pool, std::chrono::microseconds(options.ticker_period_us));
    while (running.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    // Stop the clock first, then join every drainer and deliver any batches
    // still published; the quiesce below is then the sole clock driver.
    ticker.Stop();
    pool.Stop();
  } else if (options.mode == TortureMode::kStealStorm) {
    // A pool slammed with bursty jumps: each AdvanceTo publishes whole
    // slot-ranges of expiry batches at once across every shard, so idle
    // drainers race to steal them while the owners are still advancing.
    concurrent::DispatchPool pool(
        *sharded,
        {.drainers = options.drainers,
         .steal = options.steal,
         .max_chunk_ticks = options.pool_chunk_ticks});
    rng::Xoshiro256 rng(options.seed ^ 0xda3e39cb94b95bdbULL);
    std::size_t delivered = 0;
    while (delivered < options.race_ticks ||
           running.load(std::memory_order_acquire) != 0) {
      const Duration jump = 1 + rng.NextBounded(options.max_jump);
      pool.AdvanceTo(sut.now() + jump);
      delivered += jump;
      std::this_thread::yield();
    }
    pool.Stop();
  } else {
    rng::Xoshiro256 rng(options.seed ^ 0xda3e39cb94b95bdbULL);
    std::size_t delivered = 0;
    // Keep the clock moving until producers finish (kSpin producers depend on
    // the drainer), front-loading the configured race_ticks.
    while (delivered < options.race_ticks ||
           running.load(std::memory_order_acquire) != 0) {
      if (rng.NextBool(options.jump_probability)) {
        const Duration jump = 1 + rng.NextBounded(options.max_jump);
        sut.AdvanceTo(sut.now() + jump);
        delivered += jump;
      } else {
        sut.PerTickBookkeeping();
        ++delivered;
      }
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) {
    t.join();
  }

  QuiesceAfterRace(sut, options, report);
  CheckRaceLogs(logs, fire_log, report);
  if (counted && report.ok) {
    const metrics::OpCounts end = sut.counts();
    const std::uint64_t starts = end.start_calls - base_counts.start_calls;
    const std::uint64_t periodic = end.periodic_starts - base_counts.periodic_starts;
    const std::uint64_t stops = end.stop_calls - base_counts.stop_calls;
    const std::uint64_t restarts = end.restart_calls - base_counts.restart_calls;
    if (starts != report.starts + report.start_rejects ||
        periodic != report.periodic_starts ||
        stops != report.cancels + report.cancel_misses ||
        restarts != report.restarts) {
      report.ok = false;
      report.violation = Format(
          "counts() disagrees with the calls made: start_calls %llu for %zu, "
          "periodic_starts %llu for %zu, stop_calls %llu for %zu, "
          "restart_calls %llu for %zu kOk restarts",
          static_cast<unsigned long long>(starts),
          report.starts + report.start_rejects,
          static_cast<unsigned long long>(periodic), report.periodic_starts,
          static_cast<unsigned long long>(stops),
          report.cancels + report.cancel_misses,
          static_cast<unsigned long long>(restarts), report.restarts);
    }
  }
  if (pool_mode) {
    auto fail = [&report](std::string message) {
      if (report.ok) {
        report.ok = false;
        report.violation = std::move(message);
      }
    };
    const metrics::OpCounts end_counts = sut.counts();
    report.dispatch_batches =
        end_counts.dispatch_batches - base_counts.dispatch_batches;
    report.dispatch_steals =
        end_counts.dispatch_steals - base_counts.dispatch_steals;
    // Monotone-per-shard: the wheel certifies, at every dispatch, that batch
    // sequence numbers are dense and expiry ticks nondecreasing within the
    // shard — across owner dispatches AND steals.
    if (sharded->dispatch_order_violations() != 0) {
      fail(Format("per-shard dispatch order violated %llu times (stolen or "
                  "reordered batches)",
                  static_cast<unsigned long long>(
                      sharded->dispatch_order_violations())));
    }
    // Conservation law over the concurrent-coherent counts() snapshot: with
    // no capacity rejects, every successful start resolved exactly once as a
    // delivered final fire or a committed cancel (outstanding() is 0 after a
    // successful quiesce). This is the N-drainer coherence check: it fails if
    // any shard's claim-point counters tore or double-counted under stealing.
    if (report.start_rejects == 0 && report.restart_rejects == 0) {
      const std::uint64_t delta_starts =
          end_counts.start_calls - base_counts.start_calls;
      const std::uint64_t delta_expiries =
          end_counts.expiries - base_counts.expiries;
      const std::uint64_t expected =
          delta_expiries + report.cancels + sut.outstanding();
      if (delta_starts != expected) {
        fail(Format("counts() conservation violated at quiesce: start_calls "
                    "delta %llu != expiries delta %llu + kOk cancels %zu + "
                    "outstanding %zu",
                    static_cast<unsigned long long>(delta_starts),
                    static_cast<unsigned long long>(delta_expiries),
                    report.cancels, sut.outstanding()));
      }
    }
  }
  report.ticks_run = sut.now() - base;
  sut.set_expiry_handler(nullptr);
  return report;
}

// ---------------------------------------------------------------------------
// kLockstepOracle: exact differential comparison with genuine MPSC contention.
// The clock is frozen while producers race their enqueues, so every deadline is
// minted at a known now and the round replays into OracleTimers verbatim.
// ---------------------------------------------------------------------------

struct LockstepOp {
  enum class Kind : std::uint8_t { kStart, kStartPeriodic, kCancel, kRestart };
  Kind kind = Kind::kStart;
  RequestId cookie = 0;       // start: new cookie; cancel/restart: target's
  Duration interval = 0;      // start and restart
  std::uint64_t repeats = 0;  // kStartPeriodic: finite lap budget
  TimerError result = TimerError::kOk;
  bool started = false;       // start only: handle returned
};

struct LockstepThread {
  std::vector<LockstepOp> round_ops;  // cleared by the producer each round
  std::vector<std::pair<RequestId, TimerHandle>> live;
  std::uint64_t next_seq = 0;
};

TortureReport RunLockstep(TimerService& sut, const TortureOptions& options) {
  TortureReport report;
  const Tick base = sut.now();

  std::vector<Fire> sut_fires;
  std::vector<Fire> oracle_fires;
  sut.set_expiry_handler([&sut_fires](RequestId cookie, Tick when, bool last) {
    sut_fires.push_back(Fire{when, cookie, last});
  });
  OracleTimers oracle;
  oracle.set_expiry_handler([&oracle_fires](RequestId cookie, Tick when, bool last) {
    oracle_fires.push_back(Fire{when, cookie, last});
  });
  std::unordered_map<RequestId, TimerHandle> oracle_handles;

  auto fail = [&report](std::string message) {
    if (report.ok) {
      report.ok = false;
      report.violation = std::move(message);
    }
  };

  // Replays one round's producer ops into the oracle (driver thread, after the
  // enqueue barrier) and cross-checks call results. Results are deterministic
  // because the clock is frozen during enqueue phases: no timer can change
  // state between a producer's call and this replay except by *other producer*
  // calls — and producers only ever stop their own timers.
  auto replay_round = [&](std::vector<LockstepThread>& threads) {
    for (std::size_t p = 0; p < threads.size(); ++p) {
      for (const LockstepOp& op : threads[p].round_ops) {
        switch (op.kind) {
          case LockstepOp::Kind::kStart:
          case LockstepOp::Kind::kStartPeriodic: {
            if (!op.started) {
              fail(Format("lockstep: StartTimer rejected with %s (size the "
                          "submission capacities above the episode's live set)",
                          TimerErrorName(op.result)));
              continue;
            }
            StartResult r =
                op.kind == LockstepOp::Kind::kStartPeriodic
                    ? oracle.StartPeriodic(op.interval, op.cookie, op.repeats)
                    : oracle.StartTimer(op.interval, op.cookie);
            TWHEEL_ASSERT_MSG(r.has_value(), "oracle rejected a start");
            oracle_handles.emplace(op.cookie, r.value());
            if (op.kind == LockstepOp::Kind::kStartPeriodic) {
              ++report.periodic_starts;
            }
            break;
          }
          case LockstepOp::Kind::kCancel: {
            const auto it = oracle_handles.find(op.cookie);
            TWHEEL_ASSERT_MSG(it != oracle_handles.end(),
                              "cancel of a cookie the oracle never saw");
            const TimerError oracle_err = oracle.StopTimer(it->second);
            if (oracle_err != op.result) {
              fail(Format("lockstep: StopTimer(%llu) returned %s but oracle "
                          "says %s",
                          static_cast<unsigned long long>(op.cookie),
                          TimerErrorName(op.result),
                          TimerErrorName(oracle_err)));
            }
            break;
          }
          case LockstepOp::Kind::kRestart: {
            // In-place on both sides: the oracle's handle survives a kOk
            // restart exactly as the SUT's does, so no handle rebinding is
            // needed — call-for-call result parity is the whole check.
            const auto it = oracle_handles.find(op.cookie);
            TWHEEL_ASSERT_MSG(it != oracle_handles.end(),
                              "restart of a cookie the oracle never saw");
            const TimerError oracle_err =
                oracle.RestartTimer(it->second, op.interval);
            if (op.result == TimerError::kOk) {
              ++report.restarts;
            } else if (op.result == TimerError::kNoSuchTimer) {
              ++report.restart_misses;
            }
            if (oracle_err != op.result) {
              fail(Format("lockstep: RestartTimer(%llu, %llu) returned %s but "
                          "oracle says %s",
                          static_cast<unsigned long long>(op.cookie),
                          static_cast<unsigned long long>(op.interval),
                          TimerErrorName(op.result),
                          TimerErrorName(oracle_err)));
            }
            break;
          }
        }
      }
    }
  };

  // Advances both worlds by `delta` and compares the dispatch multisets per
  // tick, final clocks, and populations. Fire order within a tick is
  // unspecified on both sides, so compare sorted (when, cookie, last)
  // sequences.
  auto advance_and_compare = [&](Duration delta) {
    sut_fires.clear();
    oracle_fires.clear();
    sut.AdvanceTo(sut.now() + delta);
    oracle.AdvanceTo(oracle.now() + delta);
    for (Fire& fire : sut_fires) {
      fire.when -= base;
    }
    std::sort(sut_fires.begin(), sut_fires.end());
    std::sort(oracle_fires.begin(), oracle_fires.end());
    report.fires += sut_fires.size();
    if (sut_fires != oracle_fires) {
      const std::size_t n = std::min(sut_fires.size(), oracle_fires.size());
      std::size_t i = 0;
      while (i < n && sut_fires[i] == oracle_fires[i]) {
        ++i;
      }
      const auto describe = [i](const std::vector<Fire>& fires) {
        return i < fires.size()
                   ? Format("%llu@%llu%s",
                            static_cast<unsigned long long>(fires[i].cookie),
                            static_cast<unsigned long long>(fires[i].when),
                            fires[i].last ? " last" : "")
                   : std::string("none");
      };
      fail(Format("lockstep: dispatch divergence at index %zu (sut %zu fires, "
                  "oracle %zu): sut=(%s) oracle=(%s)",
                  i, sut_fires.size(), oracle_fires.size(),
                  describe(sut_fires).c_str(), describe(oracle_fires).c_str()));
    }
    if (sut.now() - base != oracle.now()) {
      fail(Format("lockstep: clock divergence: sut %llu vs oracle %llu",
                  static_cast<unsigned long long>(sut.now() - base),
                  static_cast<unsigned long long>(oracle.now())));
    }
    if (sut.outstanding() != oracle.outstanding()) {
      fail(Format("lockstep: population divergence: sut %zu vs oracle %zu",
                  sut.outstanding(), oracle.outstanding()));
    }
  };

  std::vector<LockstepThread> threads(options.producers);
  // Producers + the driver meet twice per round: after the enqueue phase (the
  // driver then replays and advances alone) and after the advance phase.
  std::barrier sync(static_cast<std::ptrdiff_t>(options.producers) + 1);
  std::atomic<bool> stop_producers{false};

  std::vector<std::thread> producers;
  producers.reserve(options.producers);
  for (std::size_t p = 0; p < options.producers; ++p) {
    producers.emplace_back([&, p] {
      rng::Xoshiro256 rng(options.seed * 0x2545f4914f6cdd1dULL + p);
      LockstepThread& me = threads[p];
      for (;;) {
        me.round_ops.clear();
        for (std::size_t i = 0; i < options.ops_per_producer; ++i) {
          LockstepOp op;
          if (!me.live.empty() && rng.NextBool(options.restart_probability)) {
            const std::size_t pick = rng.NextBounded(me.live.size());
            const auto [cookie, handle] = me.live[pick];
            op.kind = LockstepOp::Kind::kRestart;
            op.cookie = cookie;
            op.interval = options.min_interval +
                          rng.NextBounded(options.max_interval -
                                          options.min_interval + 1);
            op.result = sut.RestartTimer(handle, op.interval);
            if (op.result == TimerError::kNoSuchTimer) {
              // Fired in an earlier round; the handle is dead on both sides.
              me.live[pick] = me.live.back();
              me.live.pop_back();
            }
            // kOk: the handle stays valid in place — keep racing it.
          } else if (!me.live.empty() &&
                     rng.NextBool(options.stop_probability)) {
            const std::size_t pick = rng.NextBounded(me.live.size());
            const auto [cookie, handle] = me.live[pick];
            me.live[pick] = me.live.back();
            me.live.pop_back();
            op.kind = LockstepOp::Kind::kCancel;
            op.cookie = cookie;
            op.result = sut.StopTimer(handle);
          } else {
            const bool periodic = rng.NextBool(options.periodic_probability);
            op.kind = periodic ? LockstepOp::Kind::kStartPeriodic
                               : LockstepOp::Kind::kStart;
            op.interval = options.min_interval +
                          rng.NextBounded(options.max_interval -
                                          options.min_interval + 1);
            op.cookie = MakeCookie(p, me.next_seq++);
            if (periodic) {
              op.repeats = 1 + rng.NextBounded(options.periodic_repeat_max);
            }
            StartResult r =
                periodic
                    ? sut.StartPeriodic(op.interval, op.cookie, op.repeats)
                    : sut.StartTimer(op.interval, op.cookie);
            op.started = r.has_value();
            op.result = op.started ? TimerError::kOk : r.error();
            if (op.started) {
              me.live.emplace_back(op.cookie, r.value());
            }
          }
          me.round_ops.push_back(op);
        }
        sync.arrive_and_wait();  // enqueue phase done; driver replays+advances
        sync.arrive_and_wait();  // advance phase done
        if (stop_producers.load(std::memory_order_acquire)) {
          return;
        }
      }
    });
  }

  rng::Xoshiro256 driver_rng(options.seed ^ 0x6a09e667f3bcc909ULL);
  for (std::size_t round = 0; round < options.rounds; ++round) {
    sync.arrive_and_wait();  // producers finished enqueueing, clock frozen
    replay_round(threads);
    advance_and_compare(1 + driver_rng.NextBounded(options.max_jump));
    if (round + 1 == options.rounds) {
      stop_producers.store(true, std::memory_order_release);
    }
    sync.arrive_and_wait();  // release producers into the next round (or exit)
  }
  for (std::thread& t : producers) {
    t.join();
  }

  // Drain both worlds to empty, still in lockstep.
  while (oracle.outstanding() != 0 || sut.outstanding() != 0) {
    advance_and_compare(options.max_interval + 2);
    if (!report.ok) {
      break;
    }
  }

  report.starts = oracle_handles.size();
  report.ticks_run = sut.now() - base;
  sut.set_expiry_handler(nullptr);
  return report;
}

}  // namespace

TortureReport RunTorture(TimerService& sut, const TortureOptions& options) {
  TWHEEL_ASSERT_MSG(options.producers >= 1, "need at least one producer");
  TWHEEL_ASSERT_MSG(options.min_interval >= 1 &&
                        options.min_interval <= options.max_interval,
                    "invalid interval range");
  if (options.mode == TortureMode::kLockstepOracle) {
    return RunLockstep(sut, options);
  }
  return RunRace(sut, options);
}

}  // namespace twheel::verify
