// Experiment mpsc-submit: producer-side cost of ShardedWheel's lock-free
// (MPSC) submission path.
//
// Appendix A.2 argues for sharded locks; ShardedWheel goes one step further
// and keeps the shard mutex off the producer path entirely — StartTimer and
// StopTimer are lock-free ring enqueues drained by the tick driver. The
// benchmark runs the deployment shape (millions of live timers) rather than a
// toy wheel: each op touches only the hot per-shard ring and registration
// table, and a start/stop pair whose cancel commits before the drain never
// touches the multi-hundred-MB wheel at all (the drain reclaims the entry with
// one CAS), so short-lived timers — the common case for I/O timeouts — elide
// the cold structure entirely.
//
// Deployment shape: a driver thread hot-loops batched AdvanceTo (1/16 of a
// lap per call, each call also draining the rings), while 1/2/4/8 producer
// threads hammer start/stop pairs against ShardedWheel(4, 1<<18, submit) under
// SubmitPolicy::kSpin, so backpressure blocks rather than rejects and every
// iteration does real work.
//
// scripts/bench_record.sh records this binary into BENCH_mpsc_submit.json and
// prints deferred ops/s per producer count. The committed file also holds the
// rows of a locked submission path (each op locked a shard and edited a random
// cold slot) that the wheel no longer has; they are history, not a live
// comparison.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <atomic>
#include <memory>
#include <thread>

#include "src/concurrent/sharded_wheel.h"
#include "src/rng/rng.h"

namespace {

using namespace twheel;

constexpr std::size_t kShards = 4;
constexpr std::size_t kWheelSize = 1 << 18;  // slots per shard
constexpr std::size_t kPreload = 1 << 22;    // live timers across all shards
// Far beyond any tick count a run reaches: the preload never expires, so the
// wheel's live population stays constant for the whole measurement.
constexpr Duration kPreloadBase = 1u << 30;

std::unique_ptr<concurrent::ShardedWheel> g_service;
std::atomic<bool> g_stop_driver{false};
std::thread g_driver;

void Preload(concurrent::ShardedWheel& service) {
  rng::Xoshiro256 gen(42);
  for (std::size_t i = 0; i < kPreload; ++i) {
    // Spread across slots; kPreloadBase is a multiple of the wheel size, so
    // the slot comes from the random low bits alone.
    (void)service.StartTimer(kPreloadBase + gen.NextBounded(kWheelSize), i);
    if ((i & 1023) == 1023) {
      service.DrainSubmissions();  // keeps the rings from filling before the
                                   // driver thread exists
    }
  }
  service.DrainSubmissions();
}

std::unique_ptr<concurrent::ShardedWheel> MakeWheel() {
  concurrent::SubmitOptions submit;
  submit.ring_capacity = 1 << 18;
  // Per shard: its share of the preload plus a full ring of in-flight starts.
  submit.registration_capacity = 1 << 21;
  submit.on_full = concurrent::SubmitPolicy::kSpin;
  return std::make_unique<concurrent::ShardedWheel>(kShards, kWheelSize, submit);
}

void BM_SubmitDeferred(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_service = MakeWheel();
    Preload(*g_service);
    g_stop_driver.store(false, std::memory_order_relaxed);
    g_driver = std::thread([] {
      // Hot tick loop in bounded batches (1/16 of a lap per AdvanceTo, so a
      // shard lock is held for one batch sweep at a time, not a whole lap):
      // the deployment tick path, continuously sweeping the live population
      // and draining the rings at every batch boundary.
      while (!g_stop_driver.load(std::memory_order_relaxed)) {
        g_service->AdvanceTo(g_service->now() + kWheelSize / 16);
      }
    });
  }
  rng::Xoshiro256 gen(1000 + state.thread_index());
  for (auto _ : state) {
    auto handle = g_service->StartTimer(1 + gen.NextBounded(1 << 20), 0);
    benchmark::DoNotOptimize(handle);
    g_service->StopTimer(handle.value());
  }
  state.SetItemsProcessed(state.iterations() * 2);  // one start + one stop
  if (state.thread_index() == 0) {
    g_stop_driver.store(true, std::memory_order_relaxed);
    g_driver.join();
    g_service.reset();
  }
}

}  // namespace

BENCHMARK(BM_SubmitDeferred)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Name("mpsc_submit/deferred");

TWHEEL_BENCHMARK_MAIN();
