// Experiment fig8-scheme4: the basic timing wheel's O(1) claims (Section 5).
//
// "This modified algorithm takes O(1) latency for START_TIMER, STOP_TIMER, and
// PER_TICK_BOOKKEEPING" for intervals under MaxInterval. Wall-clock latencies must
// stay flat as outstanding timers grow from 8 to 256k; per-tick cost is a few
// instructions ("it costs only a few more instructions for the same entity to step
// through an empty bucket").

#include <benchmark/benchmark.h>

#include <memory>

#include "src/core/basic_wheel.h"
#include "src/rng/rng.h"

namespace {

using namespace twheel;

constexpr std::size_t kWheelSize = 1 << 16;

std::unique_ptr<BasicWheel> Loaded(std::size_t n) {
  auto wheel = std::make_unique<BasicWheel>(kWheelSize);
  rng::Xoshiro256 gen(42);
  for (std::size_t i = 0; i < n; ++i) {
    (void)wheel->StartTimer(1 + gen.NextBounded(kWheelSize - 1), i);
  }
  return wheel;
}

void BM_WheelStartStop(benchmark::State& state) {
  auto wheel = Loaded(static_cast<std::size_t>(state.range(0)));
  rng::Xoshiro256 gen(7);
  for (auto _ : state) {
    auto handle = wheel->StartTimer(1 + gen.NextBounded(kWheelSize - 1), 0);
    benchmark::DoNotOptimize(handle);
    wheel->StopTimer(handle.value());
  }
}

void BM_WheelTickThroughPopulation(benchmark::State& state) {
  // Ticking through a populated wheel: each tick visits one slot; expiring timers
  // are immediately re-armed by the handler so the population stays at n.
  auto wheel = std::make_unique<BasicWheel>(kWheelSize);
  rng::Xoshiro256 gen(9);
  wheel->set_expiry_handler([&](RequestId id, Tick, bool) {
    (void)wheel->StartTimer(1 + gen.NextBounded(kWheelSize - 1), id);
  });
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    (void)wheel->StartTimer(1 + gen.NextBounded(kWheelSize - 1), i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wheel->PerTickBookkeeping());
  }
  state.counters["work/tick"] =
      benchmark::Counter(static_cast<double>(wheel->counts().TickWork()) /
                         static_cast<double>(state.iterations()));
}

void BM_WheelRejectOutOfRange(benchmark::State& state) {
  // The guard itself must be O(1) and cheap.
  auto wheel = Loaded(1024);
  for (auto _ : state) {
    auto result = wheel->StartTimer(kWheelSize + 5, 0);
    benchmark::DoNotOptimize(result);
  }
}

}  // namespace

BENCHMARK(BM_WheelStartStop)
    ->RangeMultiplier(8)
    ->Range(8, 262144)
    ->Name("fig8/scheme4/start_stop");
BENCHMARK(BM_WheelTickThroughPopulation)
    ->RangeMultiplier(8)
    ->Range(8, 262144)
    ->Name("fig8/scheme4/per_tick_rearming");
BENCHMARK(BM_WheelRejectOutOfRange)->Name("fig8/scheme4/reject_out_of_range");

BENCHMARK_MAIN();
