// Experiment periodic: the expiry-path re-arm versus free-then-realloc.
//
// Section 2's dominant clients re-arm rather than expire; a periodic timer is
// the distilled version — every fire is immediately followed by a re-arm at
// expiry + period. StartPeriodic's expiry path relinks the live record in
// place (no arena free, no allocation, no fresh handle); the pre-StartPeriodic
// shape (sim::Simulator::Every before this facility existed) released the
// record on every fire and re-armed by calling StartTimer from the expiry
// handler. Three benchmark families:
//
//   periodic_rearm_micro/<scheme>/{relink,stopstart}
//       The re-arm primitive in isolation on a preloaded periodic population:
//       relink = the in-place RestartTimer machinery the expiry path uses;
//       stopstart = the cookie- and cadence-preserving StopTimer +
//       StartPeriodic round trip a facility without relink must pay. The
//       acceptance bar (relink >= 1.5x on every wheel scheme) reads off these
//       rows.
//   periodic_lap/<scheme>/{relink,stopstart}
//       Whole laps end to end: the clock advances, timers fire, and each fire
//       re-arms — natively (StartPeriodic population) versus handler re-arm
//       (one-shot population whose expiry handler restarts it, the old Every
//       shape). items_per_second counts dispatched laps, so the row pair
//       shows what the relink buys inside real tick processing.
//   periodic_server/<scheme>/sessions:N
//       End-to-end networked timer server throughput (src/net/timer_server.h):
//       N concurrent client sessions — up to the millions — primed with
//       periodic heartbeats plus live set/restart/cancel request churn over
//       lossy channels. items_per_second counts expiry callbacks pushed to
//       the downlink.
//
// scripts/bench_record.sh records this binary into BENCH_periodic.json and
// prints the relink-vs-stopstart speedup per scheme.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/timer_facility.h"
#include "src/net/timer_workload.h"
#include "src/rng/rng.h"

namespace {

using namespace twheel;

// All five wheel schemes (the acceptance set) plus list/heap baselines.
constexpr SchemeId kBenchSchemes[] = {
    SchemeId::kScheme1Unordered,    SchemeId::kScheme3Heap,
    SchemeId::kScheme4BasicWheel,   SchemeId::kScheme4HybridList,
    SchemeId::kScheme5HashedSorted, SchemeId::kScheme6HashedUnsorted,
    SchemeId::kScheme7Hierarchical,
};

FacilityConfig BenchConfig(SchemeId id) {
  FacilityConfig config;
  config.scheme = id;
  config.wheel_size = 512;  // basic wheel span covers kMaxPeriod
  config.level_sizes = {256, 64, 64, 64};
  return config;
}

constexpr std::size_t kPopulation = 4096;
constexpr Duration kMaxPeriod = 500;  // periods uniform in [1, 500]

// ---------------------------------------------------------------------------
// periodic_rearm_micro: the re-arm primitive, no clock movement.

struct PeriodicPopulation {
  std::unique_ptr<TimerService> service;
  std::vector<TimerHandle> handles;
};

PeriodicPopulation PreloadPeriodic(SchemeId id) {
  PeriodicPopulation p;
  p.service = MakeTimerService(BenchConfig(id));
  p.service->set_expiry_handler([](RequestId, Tick, bool) {});
  rng::Xoshiro256 gen(7);
  p.handles.reserve(kPopulation);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    p.handles.push_back(p.service
                            ->StartPeriodic(1 + gen.NextBounded(kMaxPeriod), i,
                                            TimerService::kRepeatForever)
                            .value());
  }
  return p;
}

void BM_RearmMicroRelink(benchmark::State& state) {
  PeriodicPopulation p = PreloadPeriodic(static_cast<SchemeId>(state.range(0)));
  rng::Xoshiro256 gen(11);
  std::size_t i = 0;
  for (auto _ : state) {
    TimerError err =
        p.service->RestartTimer(p.handles[i], 1 + gen.NextBounded(kMaxPeriod));
    benchmark::DoNotOptimize(err);
    i = (i + 1) & (kPopulation - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RearmMicroStopStart(benchmark::State& state) {
  PeriodicPopulation p = PreloadPeriodic(static_cast<SchemeId>(state.range(0)));
  rng::Xoshiro256 gen(11);
  std::size_t i = 0;
  for (auto _ : state) {
    (void)p.service->StopTimer(p.handles[i]);
    p.handles[i] = p.service
                       ->StartPeriodic(1 + gen.NextBounded(kMaxPeriod), i,
                                       TimerService::kRepeatForever)
                       .value();
    i = (i + 1) & (kPopulation - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

// ---------------------------------------------------------------------------
// periodic_lap: laps dispatched per second inside real tick processing.

constexpr Duration kLapMin = 32;  // keep a healthy fire rate per batch
constexpr Duration kLapMax = 256;
constexpr Duration kBatch = 64;  // AdvanceTo stride per iteration

void BM_LapRelink(benchmark::State& state) {
  auto service = MakeTimerService(BenchConfig(static_cast<SchemeId>(state.range(0))));
  service->set_expiry_handler([](RequestId, Tick, bool) {});
  rng::Xoshiro256 gen(7);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    (void)service
        ->StartPeriodic(kLapMin + gen.NextBounded(kLapMax - kLapMin + 1), i,
                        TimerService::kRepeatForever)
        .value();
  }
  std::size_t laps = 0;
  for (auto _ : state) {
    laps += service->AdvanceTo(service->now() + kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(laps));
}

void BM_LapStopStart(benchmark::State& state) {
  // The old Simulator::Every shape: a one-shot population whose expiry handler
  // re-arms by a fresh StartTimer — release, allocate, new handle, every lap.
  auto service = MakeTimerService(BenchConfig(static_cast<SchemeId>(state.range(0))));
  TimerService* raw = service.get();
  std::vector<Duration> periods(kPopulation);
  std::vector<TimerHandle> handles(kPopulation);
  service->set_expiry_handler([raw, &periods, &handles](RequestId id, Tick, bool) {
    handles[id] = raw->StartTimer(periods[id], id).value();
  });
  rng::Xoshiro256 gen(7);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    periods[i] = kLapMin + gen.NextBounded(kLapMax - kLapMin + 1);
    handles[i] = service->StartTimer(periods[i], i).value();
  }
  std::size_t laps = 0;
  for (auto _ : state) {
    laps += service->AdvanceTo(service->now() + kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(laps));
}

// ---------------------------------------------------------------------------
// periodic_server: the networked timer server end to end.

void BM_Server(benchmark::State& state) {
  net::TimerServerHarnessConfig config;
  config.seed = 42;
  config.host_scheme = BenchConfig(static_cast<SchemeId>(state.range(0)));
  config.channel.loss_probability = 0.05;
  config.channel.delay_lo = 2;
  config.channel.delay_hi = 8;
  config.workload.num_sessions = static_cast<std::size_t>(state.range(1));
  config.workload.requests_per_tick = 4096;  // live churn during the run
  config.workload.timers_per_session = 1;
  config.workload.min_interval = 16;
  config.workload.max_interval = 128;
  config.workload.periodic_probability = 0.9;  // heartbeat-dominated sessions
  config.workload.periodic_repeat_max = 200;
  config.workload.seed = 99;
  net::TimerServerHarness harness(config);
  harness.Prime();  // the whole population concurrently registered
  std::uint64_t fires_before = harness.server().stats().fires_sent;
  for (auto _ : state) {
    harness.Step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      harness.server().stats().fires_sent - fires_before));
  state.counters["sessions"] =
      static_cast<double>(config.workload.num_sessions);
}

void RegisterAll() {
  for (SchemeId id : kBenchSchemes) {
    const std::string scheme = SchemeName(id);
    const auto arg = static_cast<std::int64_t>(id);
    benchmark::RegisterBenchmark(
        ("periodic_rearm_micro/" + scheme + "/relink").c_str(),
        BM_RearmMicroRelink)
        ->Arg(arg);
    benchmark::RegisterBenchmark(
        ("periodic_rearm_micro/" + scheme + "/stopstart").c_str(),
        BM_RearmMicroStopStart)
        ->Arg(arg);
    benchmark::RegisterBenchmark(("periodic_lap/" + scheme + "/relink").c_str(),
                                 BM_LapRelink)
        ->Arg(arg);
    benchmark::RegisterBenchmark(
        ("periodic_lap/" + scheme + "/stopstart").c_str(), BM_LapStopStart)
        ->Arg(arg);
  }
  // End-to-end server rows on the deployment-shaped schemes, up to millions of
  // concurrent sessions.
  for (SchemeId id : {SchemeId::kScheme6HashedUnsorted,
                      SchemeId::kScheme7Hierarchical, SchemeId::kScheme3Heap}) {
    const std::string scheme = SchemeName(id);
    auto* bench = benchmark::RegisterBenchmark(
        ("periodic_server/" + scheme).c_str(), BM_Server);
    bench->Args({static_cast<std::int64_t>(id), 1 << 17});
    bench->Args({static_cast<std::int64_t>(id), 1 << 21});
    bench->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return twheel::bench::BenchmarkMain(argc, argv);
}
