// Experiment restart: in-place RestartTimer versus the stop+start fallback.
//
// Section 2's retransmission client restarts its per-connection timer on every
// ACK and almost never lets it expire, so the relink — not start or expiry —
// is the hot operation. RestartTimer keeps the record, the handle, and the
// generation and only moves the link; the fallback pays a full
// StopTimer+StartTimer round trip (unlink, retire the generation, allocate a
// fresh record, mint a fresh handle). Three benchmark families:
//
//   restart_micro/<scheme>/{inplace,stopstart}
//       Tight relink loop over a preloaded population, single-threaded, per
//       scheme. Pure per-relink cost; the acceptance bar (in-place >= 1.5x on
//       every wheel scheme) reads off these rows.
//   restart_tcp/<scheme>/{inplace,stopstart}
//       The src/workload RetransmitSpec replay — per-connection RTO timers
//       restarted on simulated ACK arrivals, ticks advancing, occasional real
//       retransmissions — measuring the same ratio inside a realistic mix.
//       items_per_second counts ACK relinks.
//   restart_mpsc/{inplace,stopstart}/threads:N
//       Multi-producer deferred ShardedWheel: producers relink their own
//       far-future timers while a driver thread sweeps AdvanceTo batches and
//       drains the rings. In-place is one kRestart ring command (no table
//       allocation, no new handle); the fallback is a cancel + start command
//       pair plus a registration-table alloc per relink.
//
// scripts/bench_record.sh records this binary into BENCH_restart.json and
// prints the in-place-vs-stopstart speedup per scheme and per producer count.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/core/timer_facility.h"
#include "src/rng/rng.h"
#include "src/workload/workload.h"

namespace {

using namespace twheel;

// ---------------------------------------------------------------------------
// Single-threaded families.

// Schemes under comparison: all five wheel variants (the acceptance set) plus
// two list/heap baselines for context.
constexpr SchemeId kBenchSchemes[] = {
    SchemeId::kScheme1Unordered,      SchemeId::kScheme3Heap,
    SchemeId::kScheme4BasicWheel,     SchemeId::kScheme4HybridList,
    SchemeId::kScheme5HashedSorted,   SchemeId::kScheme6HashedUnsorted,
    SchemeId::kScheme7Hierarchical,
};

FacilityConfig BenchConfig(SchemeId id) {
  FacilityConfig config;
  config.scheme = id;
  config.wheel_size = 512;               // basic wheel span covers kMaxIv
  config.level_sizes = {256, 64, 64, 64};
  return config;
}

constexpr std::size_t kPopulation = 4096;  // live timers during the relink loop
constexpr Duration kMaxIv = 500;           // intervals drawn uniform in [1, 500]

struct Population {
  std::unique_ptr<TimerService> service;
  std::vector<TimerHandle> handles;
};

Population Preload(SchemeId id) {
  Population p;
  p.service = MakeTimerService(BenchConfig(id));
  p.service->set_expiry_handler([](RequestId, Tick, bool) {});
  rng::Xoshiro256 gen(7);
  p.handles.reserve(kPopulation);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    p.handles.push_back(
        p.service->StartTimer(1 + gen.NextBounded(kMaxIv), i).value());
  }
  return p;
}

void BM_RestartMicroInplace(benchmark::State& state) {
  Population p = Preload(static_cast<SchemeId>(state.range(0)));
  rng::Xoshiro256 gen(11);
  std::size_t i = 0;
  for (auto _ : state) {
    TimerError err =
        p.service->RestartTimer(p.handles[i], 1 + gen.NextBounded(kMaxIv));
    benchmark::DoNotOptimize(err);
    i = (i + 1) & (kPopulation - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RestartMicroStopStart(benchmark::State& state) {
  Population p = Preload(static_cast<SchemeId>(state.range(0)));
  rng::Xoshiro256 gen(11);
  std::size_t i = 0;
  for (auto _ : state) {
    (void)p.service->StopTimer(p.handles[i]);
    p.handles[i] =
        p.service->StartTimer(1 + gen.NextBounded(kMaxIv), i).value();
    i = (i + 1) & (kPopulation - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

workload::RetransmitSpec TcpSpec(bool use_restart) {
  workload::RetransmitSpec spec;
  spec.seed = 42;
  spec.connections = 1024;
  spec.rto = 64;
  spec.ack_probability = 0.125;  // ~0.02% of RTO windows go quiet (loss)
  spec.ticks = 512;
  spec.use_restart = use_restart;
  return spec;
}

void BM_RestartTcp(benchmark::State& state, bool use_restart) {
  const SchemeId id = static_cast<SchemeId>(state.range(0));
  const workload::RetransmitSpec spec = TcpSpec(use_restart);
  std::size_t acks = 0;
  for (auto _ : state) {
    auto service = MakeTimerService(BenchConfig(id));
    const workload::RetransmitResult result =
        workload::RunRetransmit(*service, spec);
    benchmark::DoNotOptimize(result.retransmissions);
    acks += result.acks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(acks));
}

void BM_RestartTcpInplace(benchmark::State& state) { BM_RestartTcp(state, true); }
void BM_RestartTcpStopStart(benchmark::State& state) { BM_RestartTcp(state, false); }

// Registers one benchmark per scheme with the scheme name in the row label, so
// the JSON is self-describing (BM->range(0) carries the SchemeId).
void RegisterSingleThreaded() {
  for (SchemeId id : kBenchSchemes) {
    const std::string scheme = SchemeName(id);
    const auto arg = static_cast<std::int64_t>(id);
    benchmark::RegisterBenchmark(
        ("restart_micro/" + scheme + "/inplace").c_str(), BM_RestartMicroInplace)
        ->Arg(arg);
    benchmark::RegisterBenchmark(
        ("restart_micro/" + scheme + "/stopstart").c_str(),
        BM_RestartMicroStopStart)
        ->Arg(arg);
    benchmark::RegisterBenchmark(
        ("restart_tcp/" + scheme + "/inplace").c_str(), BM_RestartTcpInplace)
        ->Arg(arg);
    benchmark::RegisterBenchmark(
        ("restart_tcp/" + scheme + "/stopstart").c_str(), BM_RestartTcpStopStart)
        ->Arg(arg);
  }
}

// ---------------------------------------------------------------------------
// Multi-producer deferred ShardedWheel.

constexpr std::size_t kShards = 4;
constexpr std::size_t kWheelSize = 1 << 16;  // slots per shard
// Far beyond any tick count a run reaches, so relinked timers never expire and
// every RestartTimer call is a kOk relink of a live timer.
constexpr Duration kFarFuture = 1ull << 40;
constexpr std::size_t kPerThread = 4096;  // timers owned by each producer
constexpr std::size_t kMaxThreads = 8;

std::unique_ptr<concurrent::ShardedWheel> g_service;
// Preloaded by thread 0 (google-benchmark's loop-entry barrier orders the
// setup before any other thread's first iteration); slot t is thread t's
// private working set.
std::vector<std::vector<TimerHandle>> g_mine;
std::atomic<bool> g_stop_driver{false};
std::thread g_driver;

template <typename Body>
void RunMpsc(benchmark::State& state, Body body) {
  if (state.thread_index() == 0) {
    concurrent::SubmitOptions submit;
    submit.ring_capacity = 1 << 16;
    // Stop+start churn holds up to two generations of every producer timer
    // (cancel not yet drained + fresh start) plus slack.
    submit.registration_capacity = 1 << 18;
    submit.on_full = concurrent::SubmitPolicy::kSpin;
    g_service = std::make_unique<concurrent::ShardedWheel>(kShards, kWheelSize,
                                                           submit);
    g_mine.assign(kMaxThreads, {});
    rng::Xoshiro256 gen(99);
    for (std::size_t t = 0; t < kMaxThreads; ++t) {
      g_mine[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        g_mine[t].push_back(
            g_service->StartTimer(kFarFuture + gen.NextBounded(kWheelSize), i)
                .value());
      }
      g_service->DrainSubmissions();
    }
    g_stop_driver.store(false, std::memory_order_relaxed);
    g_driver = std::thread([] {
      // Deployment tick path: bounded AdvanceTo batches, draining the rings at
      // every batch boundary.
      while (!g_stop_driver.load(std::memory_order_relaxed)) {
        g_service->AdvanceTo(g_service->now() + kWheelSize / 16);
      }
    });
  }
  std::vector<TimerHandle>* mine = nullptr;
  rng::Xoshiro256 gen(1000 + state.thread_index());
  std::size_t i = 0;
  for (auto _ : state) {
    if (mine == nullptr) {  // first iteration: past the loop-entry barrier
      mine = &g_mine[static_cast<std::size_t>(state.thread_index())];
    }
    body(*mine, i, gen);
    i = (i + 1) & (kPerThread - 1);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    g_stop_driver.store(true, std::memory_order_relaxed);
    g_driver.join();
    g_service.reset();
    g_mine.clear();
  }
}

void BM_RestartMpscInplace(benchmark::State& state) {
  RunMpsc(state, [](std::vector<TimerHandle>& mine, std::size_t i,
                    rng::Xoshiro256& gen) {
    TimerError err = g_service->RestartTimer(
        mine[i], kFarFuture + gen.NextBounded(kWheelSize));
    benchmark::DoNotOptimize(err);
  });
}

void BM_RestartMpscStopStart(benchmark::State& state) {
  RunMpsc(state, [](std::vector<TimerHandle>& mine, std::size_t i,
                    rng::Xoshiro256& gen) {
    (void)g_service->StopTimer(mine[i]);
    mine[i] = g_service
                  ->StartTimer(kFarFuture + gen.NextBounded(kWheelSize), i)
                  .value();
  });
}

}  // namespace

BENCHMARK(BM_RestartMpscInplace)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime()
    ->Name("restart_mpsc/inplace");
BENCHMARK(BM_RestartMpscStopStart)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime()
    ->Name("restart_mpsc/stopstart");

int main(int argc, char** argv) {
  RegisterSingleThreaded();
  return twheel::bench::BenchmarkMain(argc, argv);
}
