// Regression tests for the ShardedWheel memory-safety family.
//
// Bug 1 (dangling expiry handler): PerTickBookkeeping used to install, on every
// shard, a lambda capturing the tick's stack-local `expired` vector — and left it
// installed after returning. Any expiry dispatched outside that exact call (a
// destructor drain, a future code path firing from StopTimer, an overlapping
// tick) would write through a dead stack frame. The fix installs one persistent
// collector per shard, pointing at per-shard storage with shard lifetime; these
// tests pin the scenarios in which the stale lambda used to linger, and are run
// under ASan (-DTWHEEL_SANITIZE=address) by scripts/verify.sh, where any revival
// of the dangling-capture pattern turns into a hard stack-use-after-scope report.
//
// Bug 2 (counts() reference escaping the lock): counts() used to return a
// reference to a shared merged_counts_ member that the next caller rewrites;
// two concurrent callers raced reader-vs-rewriter. Now it returns a snapshot by
// value. ConcurrentCountsReaders fails under TSan against the old signature.
//
// Bug 3 (a tick's cost depended on its entry point): a one-tick AdvanceTo
// advanced each shard with the inner wheel's batched AdvanceTo — counting
// batch_advances / slots_skipped — while PerTickBookkeeping ran the inner
// per-tick loop and counted empty_slot_checks, so the same tick showed two
// different costs in the paper's currency. Both now run one shard step.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/rng/rng.h"

namespace twheel::concurrent {
namespace {

// kReject with room for every command a test issues between drains.
SubmitOptions Roomy() {
  return {.ring_capacity = 1024,
          .registration_capacity = 1024,
          .on_full = SubmitPolicy::kReject};
}

// Destroying a wheel that has ticked — i.e. whose shards have dispatched through
// their collectors — with timers still live must not touch any dead frame. With
// the old per-tick lambda, each shard's handler still referenced the last tick's
// stack frame here; the persistent collector makes destruction inert.
TEST(ShardedWheelRegressionTest, DestroyWithLiveTimersAfterTicking) {
  for (std::size_t shards : {1u, 4u, 8u}) {
    ShardedWheel wheel(shards, 64, Roomy());
    std::atomic<int> fired{0};
    wheel.set_expiry_handler([&](RequestId, Tick, bool) { fired.fetch_add(1); });
    for (RequestId id = 0; id < 200; ++id) {
      ASSERT_TRUE(wheel.StartTimer(1 + id % 97, id).has_value());
    }
    wheel.AdvanceBy(5);  // some expiries dispatched, many timers still live
    EXPECT_GT(wheel.outstanding(), 0u);
    // Scope ends with live timers: shard destructors drain their wheels while
    // the collectors are still installed.
  }
}

// Same family, sharper: destroy immediately after a tick on which timers
// actually expired, so each shard's collector was exercised on the very last
// tick before destruction.
TEST(ShardedWheelRegressionTest, DestroyRightAfterExpiryDispatch) {
  ShardedWheel wheel(4, 16, Roomy());
  int fired = 0;
  wheel.set_expiry_handler([&](RequestId, Tick, bool) { ++fired; });
  for (RequestId id = 0; id < 16; ++id) {
    ASSERT_TRUE(wheel.StartTimer(1, id).has_value());
    ASSERT_TRUE(wheel.StartTimer(300, 1000 + id).has_value());
  }
  EXPECT_EQ(wheel.PerTickBookkeeping(), 16u);
  EXPECT_EQ(fired, 16);
  EXPECT_EQ(wheel.outstanding(), 16u);
}

// Expiries staged by a tick must be delivered by that tick and never resurface:
// the persistent collector is drained under the shard lock each tick, so a tick
// with no due timers delivers nothing even though the collector object persists.
TEST(ShardedWheelRegressionTest, CollectorDoesNotReplayAcrossTicks) {
  ShardedWheel wheel(2, 16, Roomy());
  std::vector<std::pair<RequestId, Tick>> fired;
  wheel.set_expiry_handler([&](RequestId id, Tick when, bool) { fired.push_back({id, when}); });
  ASSERT_TRUE(wheel.StartTimer(1, 1).has_value());
  ASSERT_TRUE(wheel.StartTimer(3, 2).has_value());
  EXPECT_EQ(wheel.PerTickBookkeeping(), 1u);
  EXPECT_EQ(wheel.PerTickBookkeeping(), 0u);  // nothing due: nothing replayed
  EXPECT_EQ(wheel.PerTickBookkeeping(), 1u);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<RequestId, Tick>{1, 1}));
  EXPECT_EQ(fired[1], (std::pair<RequestId, Tick>{2, 3}));
}

// Bug 2: concurrent counts() callers. Each must get an independent, coherent
// snapshot; with the by-reference version both read the same shared object while
// the other call rewrites it (TSan flags the race, and torn reads show up here
// as counters that go backwards).
TEST(ShardedWheelRegressionTest, ConcurrentCountsReaders) {
  ShardedWheel wheel(4, 64, Roomy());
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::thread mutator([&] {
    RequestId id = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = wheel.StartTimer(1 + id % 50, id);
      if (r.has_value() && id % 2 == 0) {
        wheel.StopTimer(r.value());
      }
      wheel.PerTickBookkeeping();
      ++id;
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_ticks = 0;
      std::uint64_t last_starts = 0;
      for (int i = 0; i < 4000; ++i) {
        const metrics::OpCounts snapshot = wheel.counts();
        // Monotone counters: a torn or raced read shows up as regression.
        if (snapshot.ticks < last_ticks || snapshot.start_calls < last_starts) {
          failed.store(true);
          break;
        }
        last_ticks = snapshot.ticks;
        last_starts = snapshot.start_calls;
      }
    });
  }
  for (auto& r : readers) {
    r.join();
  }
  stop.store(true);
  mutator.join();
  EXPECT_FALSE(failed.load()) << "counts() snapshot went backwards";
}

// Twin wheels fed the same seeded churn; one is ticked with PerTickBookkeeping,
// the other with AdvanceTo(now() + 1). Everything observable must agree,
// including the op counts byte for byte.
void ExpectOneTickIsOneTick(std::size_t shards, std::uint64_t seed) {
  auto make = [&] { return std::make_unique<ShardedWheel>(shards, 16, Roomy()); };
  std::unique_ptr<ShardedWheel> per_tick = make();
  std::unique_ptr<ShardedWheel> advance = make();
  std::vector<std::pair<RequestId, Tick>> per_tick_fires;
  std::vector<std::pair<RequestId, Tick>> advance_fires;
  per_tick->set_expiry_handler(
      [&](RequestId id, Tick when, bool) { per_tick_fires.emplace_back(id, when); });
  advance->set_expiry_handler(
      [&](RequestId id, Tick when, bool) { advance_fires.emplace_back(id, when); });

  rng::Xoshiro256 rng(seed);
  std::vector<TimerHandle> handles;  // fired and stopped ones stay: stale-handle churn
  // 1200 ticks of churn, then ticks until both drain (bounded).
  for (int tick = 0; tick < 1200 || (per_tick->outstanding() != 0 && tick < 4000);
       ++tick) {
    for (int op = 0; op < 3 && tick < 1200; ++op) {
      const Duration interval = 1 + rng.NextBounded(100);
      const RequestId id = static_cast<RequestId>(tick) * 8 + op;
      const std::uint64_t kind = rng.NextBounded(8);
      if (kind < 4 || handles.empty()) {
        const bool periodic = kind == 3;
        const std::uint64_t repeats = 1 + rng.NextBounded(4);
        const StartResult a = periodic ? per_tick->StartPeriodic(interval, id, repeats)
                                       : per_tick->StartTimer(interval, id);
        const StartResult b = periodic ? advance->StartPeriodic(interval, id, repeats)
                                       : advance->StartTimer(interval, id);
        ASSERT_TRUE(a.has_value() && b.has_value());
        ASSERT_EQ(a.value(), b.value());
        handles.push_back(a.value());
      } else {
        const TimerHandle h = handles[rng.NextBounded(handles.size())];
        if (kind < 6) {
          ASSERT_EQ(per_tick->StopTimer(h), advance->StopTimer(h));
        } else {
          ASSERT_EQ(per_tick->RestartTimer(h, interval), advance->RestartTimer(h, interval));
        }
      }
    }
    ASSERT_EQ(per_tick->PerTickBookkeeping(), advance->AdvanceTo(advance->now() + 1));
    ASSERT_EQ(per_tick->now(), advance->now());
    ASSERT_EQ(per_tick->outstanding(), advance->outstanding());
  }
  EXPECT_EQ(per_tick->outstanding(), 0u) << "churn never quiesced";
  EXPECT_FALSE(per_tick_fires.empty());
  EXPECT_EQ(per_tick_fires, advance_fires);
  const metrics::OpCounts a = per_tick->counts();
  const metrics::OpCounts b = advance->counts();
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(metrics::OpCounts)), 0)
      << "empty_slot_checks " << a.empty_slot_checks << " vs " << b.empty_slot_checks
      << ", slots_skipped " << a.slots_skipped << " vs " << b.slots_skipped
      << ", batch_advances " << a.batch_advances << " vs " << b.batch_advances;
}

TEST(ShardedWheelRegressionTest, OneTickIsOneTickWhateverTheEntryPointEightShards) {
  ExpectOneTickIsOneTick(/*shards=*/8, /*seed=*/3);
}

TEST(ShardedWheelRegressionTest, OneTickIsOneTickWhateverTheEntryPointMpsc) {
  ExpectOneTickIsOneTick(/*shards=*/4, /*seed=*/7);
}

}  // namespace
}  // namespace twheel::concurrent
