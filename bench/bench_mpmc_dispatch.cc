// MPMC tick pipeline: expiry dispatch throughput of a ShardedWheel driven by a
// DispatchPool, swept over drainers x shards x live timers.
//
// This is the payoff measurement for the multi-core tick pipeline: PR 3 made
// submission scale (MPSC rings), this PR makes *expiry delivery* scale (N
// drainers advancing and dispatching per-shard expiry batches, with work
// stealing). The wheel is preloaded with a steady-state population of
// kRepeatForever periodic timers — every fire re-arms on the expiry path
// (TryFirePeriodic), so the population is constant and every AdvanceTo(span)
// delivers ~live * span / mean_interval fires with zero refill traffic in the
// timed region. items_per_second therefore reads as sustained expiry
// dispatches per wall-clock second for that (drainers, shards, live) point.
//
// Counters per run:
//   steal_frac — stolen batches / published batches (how much the idle
//                drainers helped);
//   batches    — expiry batches published across the run.
//
// Single-core caveat: on a 1-CPU host (CI containers; see context.num_cpus in
// the recorded JSON) the drainer sweep measures oversubscription overhead, not
// parallel speedup — the curve is expected to be flat-to-slightly-negative
// there and only shows the >=3x at 4 drainers shape on real multi-core metal.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "bench/bench_main.h"
#include "src/concurrent/dispatch_pool.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/rng/rng.h"

namespace {

using twheel::Duration;
using twheel::RequestId;
using twheel::TimerService;
using twheel::concurrent::DispatchOptions;
using twheel::concurrent::DispatchPool;
using twheel::concurrent::ShardedWheel;
using twheel::concurrent::SubmitOptions;
using twheel::concurrent::SubmitPolicy;

constexpr std::size_t kWheelSize = 4096;
// Periodic cadences uniform in [kMinInterval, kMaxInterval]: ~1.6 fires per
// timer per span at the mean, so a span delivers more fires than live timers.
constexpr Duration kMinInterval = 64;
constexpr Duration kMaxInterval = 256;
constexpr Duration kSpan = 256;  // ticks delivered per timed AdvanceTo

std::size_t NextPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

void BM_MpmcDispatch(benchmark::State& state) {
  const std::size_t drainers = static_cast<std::size_t>(state.range(0));
  const std::uint32_t shards = static_cast<std::uint32_t>(state.range(1));
  const std::size_t live = static_cast<std::size_t>(state.range(2));

  // The whole preload sits in the submission rings until the first drain, so
  // the rings (and registration tables) are sized to the per-shard population.
  SubmitOptions submit;
  submit.ring_capacity = NextPow2(2 * live / shards + 2);
  submit.registration_capacity = NextPow2(2 * live / shards + 2);
  submit.on_full = SubmitPolicy::kReject;
  ShardedWheel wheel(shards, kWheelSize, submit);

  std::atomic<std::uint64_t> sink{0};
  wheel.set_expiry_handler([&sink](RequestId id, twheel::Tick, bool) {
    sink.fetch_add(id, std::memory_order_relaxed);
  });

  twheel::rng::Xoshiro256 rng(42);
  for (std::size_t i = 0; i < live; ++i) {
    const Duration interval =
        kMinInterval + rng.NextBounded(kMaxInterval - kMinInterval + 1);
    auto started =
        wheel.StartPeriodic(interval, i, TimerService::kRepeatForever);
    if (!started.has_value()) {
      state.SkipWithError("preload rejected: capacities too small");
      return;
    }
  }
  // One single-threaded tick drains every ring and arms the population before
  // the pool (the pool must be the only clock driver once it exists).
  wheel.PerTickBookkeeping();

  DispatchOptions options;
  options.drainers = drainers;
  options.steal = true;
  DispatchPool pool(wheel, options);
  for (auto _ : state) {
    pool.AdvanceTo(wheel.now() + kSpan);
  }
  const std::uint64_t fires = pool.fires_dispatched();
  pool.Stop();
  benchmark::DoNotOptimize(sink.load());

  const auto counts = wheel.counts();
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.counters["batches"] =
      benchmark::Counter(static_cast<double>(counts.dispatch_batches));
  state.counters["steal_frac"] = benchmark::Counter(
      counts.dispatch_batches == 0
          ? 0.0
          : static_cast<double>(counts.dispatch_steals) /
                static_cast<double>(counts.dispatch_batches));
}

void MpmcArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"drainers", "shards", "live"});
  for (std::int64_t drainers : {1, 2, 4, 8}) {
    for (std::int64_t shards : {16, 64}) {
      for (std::int64_t live : {std::int64_t{1} << 16, std::int64_t{1} << 20}) {
        bench->Args({drainers, shards, live});
      }
    }
  }
  bench->Unit(benchmark::kMillisecond);
  bench->UseRealTime();
}

BENCHMARK(BM_MpmcDispatch)->Apply(MpmcArgs)->Name("mpmc_dispatch");

}  // namespace

TWHEEL_BENCHMARK_MAIN();
