// Experiment sparse-tick: batched AdvanceTo vs the per-tick loop over mostly
// dead time, for every wheel scheme.
//
// The workload is the paper's own motivating regime pushed to the sparse
// extreme: a handful of outstanding timers (16) spread across a 65536-tick
// span, so >= 99.9% of the ticks crossed have nothing due. The *_loop variants
// pay one PerTickBookkeeping call per tick (the paper's "per-tick cost is
// absorbed by the clock interrupt" caveat, in software); the *_batched variants
// cross the same span with one AdvanceTo call, letting the occupancy bitmap
// jump the cursor over every empty slot. scripts/bench_record.sh records both
// sides into BENCH_sparse_tick.json; the batched side must be >= 10x faster.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <array>
#include <cstddef>
#include <memory>

#include "src/core/basic_wheel.h"
#include "src/core/hashed_wheel_sorted.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/hierarchical_wheel.h"
#include "src/core/hybrid_wheel.h"
#include "src/core/timer_service.h"
#include "src/rng/rng.h"

namespace {

using namespace twheel;

// One iteration = arm 16 timers across the span, then cross the whole span.
constexpr Duration kSpan = 65536;
constexpr std::size_t kTimers = 16;

template <typename MakeFn>
void RunSparseSpan(benchmark::State& state, MakeFn make, bool batched) {
  auto service = make();
  rng::Xoshiro256 gen(123);
  std::uint64_t fired = 0;
  service->set_expiry_handler([&fired](RequestId, Tick, bool) { ++fired; });
  RequestId id = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kTimers; ++i) {
      benchmark::DoNotOptimize(
          service->StartTimer(1 + gen.NextBounded(kSpan - 1), id++));
    }
    if (batched) {
      benchmark::DoNotOptimize(service->AdvanceTo(service->now() + kSpan));
    } else {
      benchmark::DoNotOptimize(service->AdvanceBy(kSpan));
    }
  }
  state.counters["ticks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kSpan),
      benchmark::Counter::kIsRate);
  state.counters["fired/iter"] = benchmark::Counter(
      static_cast<double>(fired) / static_cast<double>(state.iterations()));
  const metrics::OpCounts counts = service->counts();
  state.counters["skip%"] = benchmark::Counter(
      counts.ticks == 0 ? 0.0
                        : 100.0 * static_cast<double>(counts.slots_skipped) /
                              static_cast<double>(counts.ticks));
}

std::unique_ptr<TimerService> MakeBasic() {
  return std::make_unique<BasicWheel>(kSpan);
}
std::unique_ptr<TimerService> MakeSorted() {
  return std::make_unique<HashedWheelSorted>(4096);
}
std::unique_ptr<TimerService> MakeUnsorted() {
  return std::make_unique<HashedWheelUnsorted>(4096);
}
std::unique_ptr<TimerService> MakeHybrid() {
  return std::make_unique<HybridWheel>(4096);
}
std::unique_ptr<TimerService> MakeHierarchical() {
  static constexpr std::array<std::size_t, 4> kLevels = {16, 16, 16, 16};
  return std::make_unique<HierarchicalWheel>(kLevels);
}

void BM_Scheme4Basic_Loop(benchmark::State& state) {
  RunSparseSpan(state, MakeBasic, /*batched=*/false);
}
void BM_Scheme4Basic_Batched(benchmark::State& state) {
  RunSparseSpan(state, MakeBasic, /*batched=*/true);
}
void BM_Scheme5Sorted_Loop(benchmark::State& state) {
  RunSparseSpan(state, MakeSorted, /*batched=*/false);
}
void BM_Scheme5Sorted_Batched(benchmark::State& state) {
  RunSparseSpan(state, MakeSorted, /*batched=*/true);
}
void BM_Scheme6Unsorted_Loop(benchmark::State& state) {
  RunSparseSpan(state, MakeUnsorted, /*batched=*/false);
}
void BM_Scheme6Unsorted_Batched(benchmark::State& state) {
  RunSparseSpan(state, MakeUnsorted, /*batched=*/true);
}
void BM_Hybrid_Loop(benchmark::State& state) {
  RunSparseSpan(state, MakeHybrid, /*batched=*/false);
}
void BM_Hybrid_Batched(benchmark::State& state) {
  RunSparseSpan(state, MakeHybrid, /*batched=*/true);
}
void BM_Scheme7Hierarchical_Loop(benchmark::State& state) {
  RunSparseSpan(state, MakeHierarchical, /*batched=*/false);
}
void BM_Scheme7Hierarchical_Batched(benchmark::State& state) {
  RunSparseSpan(state, MakeHierarchical, /*batched=*/true);
}

BENCHMARK(BM_Scheme4Basic_Loop);
BENCHMARK(BM_Scheme4Basic_Batched);
BENCHMARK(BM_Scheme5Sorted_Loop);
BENCHMARK(BM_Scheme5Sorted_Batched);
BENCHMARK(BM_Scheme6Unsorted_Loop);
BENCHMARK(BM_Scheme6Unsorted_Batched);
BENCHMARK(BM_Hybrid_Loop);
BENCHMARK(BM_Hybrid_Batched);
BENCHMARK(BM_Scheme7Hierarchical_Loop);
BENCHMARK(BM_Scheme7Hierarchical_Batched);

}  // namespace

TWHEEL_BENCHMARK_MAIN();
