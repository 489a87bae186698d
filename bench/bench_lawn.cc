// Experiment lawn: the distinct-TTL crossover frontier — scheme 8 (Lawn)
// against schemes 4-7 as the number of distinct TTL values sweeps 4 .. 4096.
//
// Lawn's bet is that per-tick cost should scale with DEADLINE DIVERSITY, not
// population: each tick inspects one head per distinct-TTL bucket, so k TTL
// constants cost O(k) per tick whether 4 thousand or 4 million timers are
// live. The wheels make the opposite bet — per-tick cost follows population
// (bucket occupancy, migration traffic), not diversity. Sweeping D while
// holding the live population fixed maps where each bet wins:
//
//   lawn_tick/<scheme>/<D>/<live>  steady-state tick throughput (ticks/s,
//       fires/s as a counter): preload `live` timers round-robin over D
//       distinct TTLs, then run the per-tick loop with an expiry handler that
//       re-arms every fired timer at its original TTL — constant population,
//       the timer-module-as-kernel-facility regime. Lawn should be flat in
//       `live` and degrade only in D; the hashed wheels flat in D and degrade
//       in `live`/TableSize. The 4Mi-live rows are restricted to the O(1)-
//       insert schemes (lawn, basic, unsorted, hierarchical) so the recording
//       finishes in minutes; scheme 5's sorted insert is quadratic to preload
//       at that population, which is itself a Figure-9 result, not news.
//
//   lawn_start/<scheme>/<D>/<live>  start+stop pair cost at fixed population:
//       no ticks, pure mutation. Lawn must be flat across the whole D sweep
//       (bucket append via hash hit); lawn_capped64 shows the documented
//       fallback price — beyond 64 distinct TTLs new-TTL starts rear-search
//       the shared overflow list instead.
//
// scripts/bench_record.sh lawn records BENCH_lawn.json and prints the
// crossover table EXPERIMENTS.md quotes.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/core/timer_facility.h"
#include "src/lawn/lawn_timers.h"
#include "src/rng/rng.h"

namespace {

using namespace twheel;

// TTLs spread across [64, ~16384]: well under every scheme's span (basic wheel
// 32768, hierarchy {256,64,64} spans 1Mi) and wide enough that the hashed
// wheels' 4096-slot tables see real revolution counts.
constexpr Duration kTtlBase = 64;
constexpr Duration kTtlSpread = 16320;

std::vector<Duration> MakeTtls(std::size_t distinct) {
  const Duration stride = std::max<Duration>(1, kTtlSpread / distinct);
  std::vector<Duration> ttls;
  ttls.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    ttls.push_back(kTtlBase + static_cast<Duration>(i) * stride);
  }
  return ttls;
}

std::unique_ptr<TimerService> MakeScheme(const std::string& label) {
  if (label == "lawn") {
    return std::make_unique<lawn::LawnTimers>();
  }
  if (label == "lawn_capped64") {
    lawn::LawnOptions options;
    options.max_distinct_ttls = 64;
    return std::make_unique<lawn::LawnTimers>(options);
  }
  FacilityConfig config;
  config.wheel_size = label == "basic32768" ? 32768 : 4096;
  config.level_sizes = {256, 64, 64};
  if (label == "basic32768") {
    config.scheme = SchemeId::kScheme4BasicWheel;
  } else if (label == "hybrid4096") {
    config.scheme = SchemeId::kScheme4HybridList;
  } else if (label == "sorted4096") {
    config.scheme = SchemeId::kScheme5HashedSorted;
  } else if (label == "unsorted4096") {
    config.scheme = SchemeId::kScheme6HashedUnsorted;
  } else {
    config.scheme = SchemeId::kScheme7Hierarchical;
  }
  return MakeTimerService(config);
}

// Steady-state tick throughput: `live` timers over D TTLs, every expiry
// re-armed at its original TTL from inside the handler.
void BM_LawnTick(benchmark::State& state, const std::string& label) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  const auto live = static_cast<std::size_t>(state.range(1));
  const std::vector<Duration> ttls = MakeTtls(distinct);
  auto service = MakeScheme(label);

  std::uint64_t fired = 0;
  TimerService* raw = service.get();
  service->set_expiry_handler([&fired, raw, &ttls](RequestId id, Tick, bool) {
    ++fired;
    benchmark::DoNotOptimize(raw->StartTimer(ttls[id], id));
  });
  // Preload grouped by ascending TTL (request id = TTL index, so the handler
  // can re-arm without a side table). Ascending expiries keep the preload
  // linear for the capped lawn: every overflow insert rear-searches straight
  // to the tail instead of walking past the whole sorted list.
  for (std::size_t i = 0; i < live; ++i) {
    const RequestId id =
        static_cast<RequestId>(std::min(distinct - 1, i * distinct / live));
    if (!raw->StartTimer(ttls[id], id).has_value()) {
      state.SkipWithError("preload rejected");
      return;
    }
  }
  // Warm to steady state: cross the full TTL spread once so every bucket has
  // cycled at least once before measurement.
  for (Duration t = 0; t < kTtlBase + kTtlSpread; ++t) {
    raw->PerTickBookkeeping();
  }

  constexpr std::size_t kTicksPerIter = 64;
  for (auto _ : state) {
    for (std::size_t t = 0; t < kTicksPerIter; ++t) {
      benchmark::DoNotOptimize(raw->PerTickBookkeeping());
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kTicksPerIter));
  state.counters["fires/s"] = benchmark::Counter(
      static_cast<double>(fired), benchmark::Counter::kIsRate);
  state.counters["live"] = benchmark::Counter(static_cast<double>(live));
}

// Pure mutation cost at fixed population: one start + one stop per iteration,
// no ticks. The stop victim is a rolling slot in a preloaded handle ring, so
// the population and the bucket shapes stay constant.
void BM_LawnStart(benchmark::State& state, const std::string& label) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  const auto live = static_cast<std::size_t>(state.range(1));
  const std::vector<Duration> ttls = MakeTtls(distinct);
  auto service = MakeScheme(label);

  std::vector<TimerHandle> handles(live);
  // Ascending-TTL preload for the same reason as BM_LawnTick: the capped
  // lawn's overflow inserts must not go quadratic before measurement starts.
  for (std::size_t i = 0; i < live; ++i) {
    const std::size_t ttl_index = std::min(distinct - 1, i * distinct / live);
    StartResult r =
        service->StartTimer(ttls[ttl_index], static_cast<RequestId>(i));
    if (!r.has_value()) {
      state.SkipWithError("preload rejected");
      return;
    }
    handles[i] = r.value();
  }

  rng::Xoshiro256 gen(99);
  std::size_t cursor = 0;
  for (auto _ : state) {
    const std::size_t ttl_index = gen.NextBounded(distinct);
    if (service->StopTimer(handles[cursor]) != TimerError::kOk) {
      state.SkipWithError("stop of live handle failed");
      return;
    }
    StartResult r = service->StartTimer(ttls[ttl_index],
                                        static_cast<RequestId>(ttl_index));
    benchmark::DoNotOptimize(r);
    handles[cursor] = r.value();
    cursor = (cursor + 1) % live;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

constexpr std::array<const char*, 7> kAllLabels = {
    "lawn",       "lawn_capped64", "basic32768", "hybrid4096",
    "sorted4096", "unsorted4096",  "hier256x64x64"};
// O(1)-insert schemes only: preloading 4Mi into a sorted hash chain is
// quadratic, and the hybrid's per-slot lists fare no better.
constexpr std::array<const char*, 4> kBigLabels = {
    "lawn", "basic32768", "unsorted4096", "hier256x64x64"};

void RegisterAll() {
  constexpr std::int64_t kSmallLive = 1 << 16;   // 64Ki
  constexpr std::int64_t kBigLive = 1 << 22;     // 4Mi
  for (const char* label : kAllLabels) {
    for (std::int64_t distinct : {4, 16, 64, 256, 1024, 4096}) {
      benchmark::RegisterBenchmark(
          (std::string("lawn_tick/") + label).c_str(),
          [label](benchmark::State& s) { BM_LawnTick(s, label); })
          ->Args({distinct, kSmallLive});
      benchmark::RegisterBenchmark(
          (std::string("lawn_start/") + label).c_str(),
          [label](benchmark::State& s) { BM_LawnStart(s, label); })
          ->Args({distinct, kSmallLive});
    }
  }
  for (const char* label : kBigLabels) {
    for (std::int64_t distinct : {16, 256, 4096}) {
      benchmark::RegisterBenchmark(
          (std::string("lawn_tick/") + label).c_str(),
          [label](benchmark::State& s) { BM_LawnTick(s, label); })
          ->Args({distinct, kBigLive});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return twheel::bench::BenchmarkMain(argc, argv);
}
