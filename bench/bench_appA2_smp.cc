// Experiment appA2-smp: Appendix A.2's symmetric-multiprocessing argument.
//
// "Algorithms that tie up a common data structure for a large period of time will
// reduce efficiency. For instance in Scheme 2, when Processor A inserts a timer
// into the ordered list other processors cannot process timer module routines until
// Processor A finishes and releases its semaphore. Scheme 5, 6, and 7 seem suited
// for implementation in symmetric multiprocessors."
//
// Threads hammer start/stop pairs against a set of LockedService-wrapped schemes:
// (a) one global lock around Scheme 2 — the criticized configuration, whose
// critical section is the O(n) insertion scan; (b) one global lock around
// Scheme 6 — O(1) critical sections but still serialized; (c) sixteen Scheme 6
// wheels, each behind its own lock — O(1) critical sections on independent
// locks. Every row runs the same loop: each thread walks the set with its own
// cursor, so no shared counter is written and the only shared state a pair
// touches is the one service it lands on. The appendix predicts that (a)
// collapses, (b) plateaus and (c) scales with threads; EXPERIMENTS.md records
// what a given host shows.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/baselines/sorted_list_timers.h"
#include "src/concurrent/locked_service.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/rng/rng.h"

namespace {

using namespace twheel;

constexpr std::size_t kPreload = 2048;  // list depth: the Scheme 2 scan length
constexpr std::size_t kShards = 16;     // row (c)'s independent locks

std::vector<std::unique_ptr<TimerService>> g_services;

// kPreload timers in total, dealt round-robin across the set.
void Preload() {
  rng::Xoshiro256 gen(42);
  for (std::size_t i = 0; i < kPreload; ++i) {
    TimerService& service = *g_services[i % g_services.size()];
    (void)service.StartTimer(1 + gen.NextBounded(1 << 20), i);
  }
}

template <typename Make>
void RunContended(benchmark::State& state, std::size_t count, Make make) {
  if (state.thread_index() == 0) {
    for (std::size_t i = 0; i < count; ++i) {
      g_services.push_back(std::make_unique<concurrent::LockedService>(make()));
    }
    Preload();
  }
  rng::Xoshiro256 gen(1000 + state.thread_index());
  // Only thread 0 touches g_services before the loop's start barrier, so the
  // cursor is computed from `count`, not from the set.
  std::size_t cursor = static_cast<std::size_t>(state.thread_index()) % count;
  for (auto _ : state) {
    TimerService& service = *g_services[cursor];
    auto handle = service.StartTimer(1 + gen.NextBounded(1 << 20), 0);
    benchmark::DoNotOptimize(handle);
    service.StopTimer(handle.value());
    if (++cursor == count) {
      cursor = 0;
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);  // one start + one stop
  if (state.thread_index() == 0) {
    g_services.clear();
  }
}

void BM_GlobalLockScheme2(benchmark::State& state) {
  RunContended(state, 1, [] { return std::make_unique<SortedListTimers>(); });
}

void BM_GlobalLockScheme6(benchmark::State& state) {
  RunContended(state, 1, [] { return std::make_unique<HashedWheelUnsorted>(4096); });
}

void BM_ShardedScheme6(benchmark::State& state) {
  RunContended(state, kShards,
               [] { return std::make_unique<HashedWheelUnsorted>(4096); });
}

}  // namespace

BENCHMARK(BM_GlobalLockScheme2)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Name("appA2/global_lock_scheme2");
BENCHMARK(BM_GlobalLockScheme6)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Name("appA2/global_lock_scheme6");
BENCHMARK(BM_ShardedScheme6)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Name("appA2/sharded_scheme6");

BENCHMARK_MAIN();
