// Experiment static_dispatch: what the virtual TimerService interface costs,
// and what calling a scheme through its own final type saves.
//
// Every scheme is measured through both dispatch paths with identical loop
// code (the loop bodies are templates instantiated once per path):
//
//   static_dispatch/<scheme>/<op>/virtual
//       The scheme behind the opaque MakeTimerService factory, driven through
//       TimerService&. The factory lives in another translation unit, so the
//       compiler cannot see the dynamic type: every call is an honest vtable
//       dispatch and an optimization barrier.
//   static_dispatch/<scheme>/<op>/static
//       The same scheme held by value and driven through Scheme&. Every scheme
//       is a final class, so each call binds at compile time: one direct call
//       into the routine its .cc compiled with the scheme's hooks inlined.
//
// Ops, chosen to bracket the dispatch-overhead-to-work ratio:
//
//   start_stop  StartTimer+StopTimer pair against a 4096-timer population —
//               two calls of moderate work (arena alloc/free + link/unlink).
//   restart     In-place relink over a preloaded population — the cheapest
//               client op, so dispatch overhead is proportionally largest.
//   tick        PerTickBookkeeping with 4096 periodic timers re-arming on
//               expiry — one call doing the most work; the delta bounds what
//               devirtualization is worth on the heavy path.
//
// Plus the record-layout half of the story (timer_record.h's hot/cold split):
//
//   space_at_scale/<live>
//       Measured PairedSlabArena slab footprint (not sizeof arithmetic) with
//       up to 100M live timers in a hashed wheel held by value.
//       Counters report hot/cold slab bytes and bytes per live timer; the
//       per-op working set is the 64-byte hot slab line, the cold bytes ride
//       in the parallel slab that per-op paths never touch.
//
// scripts/bench_record.sh records this binary into BENCH_static_dispatch.json
// and prints the per-scheme virtual-vs-static delta and the space table.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/baselines/heap_timers.h"
#include "src/baselines/unordered_timers.h"
#include "src/core/basic_wheel.h"
#include "src/core/hashed_wheel_sorted.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/hierarchical_wheel.h"
#include "src/core/hybrid_wheel.h"
#include "src/core/timer_facility.h"
#include "src/rng/rng.h"

namespace {

using namespace twheel;

constexpr std::size_t kPopulation = 4096;  // live timers during the op loops
constexpr Duration kMaxIv = 500;           // one-shot intervals in [1, 500]
constexpr Duration kMaxPeriod = 64;        // periodic cadences in [1, 64]
constexpr std::size_t kWheelSize = 512;    // basic wheel span covers kMaxIv
constexpr std::size_t kLevels[] = {256, 64, 64, 64};

// The virtual twin's construction parameters — identical to the static side's
// constructor arguments below, so the two rows differ only in dispatch.
FacilityConfig BenchConfig(SchemeId id) {
  FacilityConfig config;
  config.scheme = id;
  config.wheel_size = kWheelSize;
  config.level_sizes = {256, 64, 64, 64};
  return config;
}

// ---------------------------------------------------------------------------
// Op loops. `Service` is either TimerService (every call a vtable dispatch —
// the dynamic type is factory-opaque) or the final Scheme itself (every call
// resolved at compile time). Same code, same seeds.

template <typename Service>
std::vector<TimerHandle> Preload(Service& service) {
  rng::Xoshiro256 gen(7);
  std::vector<TimerHandle> handles;
  handles.reserve(kPopulation);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    handles.push_back(
        service.StartTimer(1 + gen.NextBounded(kMaxIv), i).value());
  }
  return handles;
}

template <typename Service>
void StartStopBody(benchmark::State& state, Service& service) {
  const std::vector<TimerHandle> resident = Preload(service);
  rng::Xoshiro256 gen(11);
  for (auto _ : state) {
    StartResult started =
        service.StartTimer(1 + gen.NextBounded(kMaxIv), kPopulation);
    benchmark::DoNotOptimize(started);
    TimerError err = service.StopTimer(started.value());
    benchmark::DoNotOptimize(err);
  }
  state.SetItemsProcessed(state.iterations());  // start+stop pairs
}

template <typename Service>
void RestartBody(benchmark::State& state, Service& service) {
  std::vector<TimerHandle> handles = Preload(service);
  rng::Xoshiro256 gen(11);
  std::size_t i = 0;
  for (auto _ : state) {
    TimerError err =
        service.RestartTimer(handles[i], 1 + gen.NextBounded(kMaxIv));
    benchmark::DoNotOptimize(err);
    i = (i + 1) & (kPopulation - 1);
  }
  state.SetItemsProcessed(state.iterations());  // relinks
}

template <typename Service>
void TickBody(benchmark::State& state, Service& service) {
  service.set_expiry_handler([](RequestId, Tick, bool) {});
  rng::Xoshiro256 gen(7);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    benchmark::DoNotOptimize(
        service.StartPeriodic(1 + gen.NextBounded(kMaxPeriod), i));
  }
  std::size_t fired = 0;
  for (auto _ : state) {
    fired += service.PerTickBookkeeping();
  }
  state.SetItemsProcessed(state.iterations());  // ticks
  state.counters["fires_per_tick"] =
      static_cast<double>(fired) / static_cast<double>(state.iterations());
}

// ---------------------------------------------------------------------------
// Registration: one virtual and one static row per scheme per op.

template <typename Scheme, typename... Args>
void RegisterScheme(SchemeId id, Args... args) {
  const std::string base = "static_dispatch/" + std::string(SchemeName(id));
  const FacilityConfig config = BenchConfig(id);

  benchmark::RegisterBenchmark(
      (base + "/start_stop/virtual").c_str(), [config](benchmark::State& st) {
        std::unique_ptr<TimerService> service = MakeTimerService(config);
        StartStopBody(st, *service);
      });
  benchmark::RegisterBenchmark(
      (base + "/start_stop/static").c_str(), [args...](benchmark::State& st) {
        Scheme scheme(args...);
        StartStopBody(st, scheme);
      });

  benchmark::RegisterBenchmark(
      (base + "/restart/virtual").c_str(), [config](benchmark::State& st) {
        std::unique_ptr<TimerService> service = MakeTimerService(config);
        RestartBody(st, *service);
      });
  benchmark::RegisterBenchmark(
      (base + "/restart/static").c_str(), [args...](benchmark::State& st) {
        Scheme scheme(args...);
        RestartBody(st, scheme);
      });

  benchmark::RegisterBenchmark(
      (base + "/tick/virtual").c_str(), [config](benchmark::State& st) {
        std::unique_ptr<TimerService> service = MakeTimerService(config);
        TickBody(st, *service);
      });
  benchmark::RegisterBenchmark(
      (base + "/tick/static").c_str(), [args...](benchmark::State& st) {
        Scheme scheme(args...);
        TickBody(st, scheme);
      });
}

void RegisterDispatch() {
  RegisterScheme<UnorderedTimers>(SchemeId::kScheme1Unordered);
  RegisterScheme<HeapTimers>(SchemeId::kScheme3Heap);
  RegisterScheme<BasicWheel>(SchemeId::kScheme4BasicWheel, kWheelSize);
  RegisterScheme<HybridWheel>(SchemeId::kScheme4HybridList, kWheelSize);
  RegisterScheme<HashedWheelSorted>(SchemeId::kScheme5HashedSorted, kWheelSize);
  RegisterScheme<HashedWheelUnsorted>(SchemeId::kScheme6HashedUnsorted,
                                      kWheelSize);
  RegisterScheme<HierarchicalWheel>(SchemeId::kScheme7Hierarchical,
                                    std::span<const std::size_t>(kLevels));
}

// ---------------------------------------------------------------------------
// Space at scale: the measured arena footprint at N live timers.

void BM_SpaceAtScale(benchmark::State& state) {
  const std::size_t live = static_cast<std::size_t>(state.range(0));
  double hot_slab = 0;
  double cold_slab = 0;
  for (auto _ : state) {
    // Scheme 6 held by value: O(1) starts, 2^16 slots, intervals spread
    // across a 2^20-tick horizon (rounds absorb the range).
    HashedWheelUnsorted wheel(std::size_t{1} << 16);
    rng::Xoshiro256 gen(3);
    for (std::size_t i = 0; i < live; ++i) {
      benchmark::DoNotOptimize(
          wheel.StartTimer(1 + gen.NextBounded(Duration{1} << 20), i));
    }
    hot_slab = static_cast<double>(wheel.hot_slab_bytes());
    cold_slab = static_cast<double>(wheel.cold_slab_bytes());
  }
  // items_per_second doubles as allocation throughput while the slabs grow.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(live));
  state.counters["live"] = static_cast<double>(live);
  state.counters["hot_slab_B"] = hot_slab;
  state.counters["cold_slab_B"] = cold_slab;
  state.counters["hot_B_per_live"] = hot_slab / static_cast<double>(live);
  state.counters["total_B_per_live"] =
      (hot_slab + cold_slab) / static_cast<double>(live);
}

}  // namespace

// 1M in ~70 MiB, 10M in ~0.7 GiB, 100M in ~7 GiB of record slabs (hot 64 B +
// cold slab alongside): one pass each — the number is a footprint, not a
// latency, so repetition buys nothing (Repetitions(1) holds even when the
// dispatch rows are recorded with --benchmark_repetitions).
BENCHMARK(BM_SpaceAtScale)
    ->Name("space_at_scale")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(1)
    ->Arg(1'000'000)
    ->Arg(10'000'000)
    ->Arg(100'000'000);

int main(int argc, char** argv) {
  RegisterDispatch();
  return twheel::bench::BenchmarkMain(argc, argv);
}
