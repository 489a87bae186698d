// DispatchPool and the split tick protocol (AdvanceShard / DispatchShard /
// CommitNow): deterministic single-threaded protocol tests (including a
// directly-driven steal), the counts() coherence regression under N concurrent
// drainers, and the shutdown-promptness contract — mid catch-up burst with a
// TickerThread driving the pool from the wall clock, and mid-advance without.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/concurrent/dispatch_pool.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/concurrent/ticker.h"

namespace twheel::concurrent {
namespace {

SubmitOptions Generous() {
  SubmitOptions submit;
  submit.ring_capacity = 8192;
  submit.registration_capacity = 8192;
  submit.on_full = SubmitPolicy::kReject;
  return submit;
}

using FireLog = std::vector<std::pair<RequestId, Tick>>;

// Handler appends under a mutex: pool tests dispatch from several threads.
struct SafeLog {
  std::mutex mutex;
  FireLog fires;
  void Install(ShardedWheel& wheel) {
    wheel.set_expiry_handler([this](RequestId id, Tick when, bool) {
      std::lock_guard<std::mutex> lock(mutex);
      fires.emplace_back(id, when);
    });
  }
};

// --- Split protocol, driven directly (no pool, fully deterministic) --------

TEST(SplitTickProtocolTest, AdvanceShardPublishesDispatchShardDelivers) {
  ShardedWheel wheel(1, 64, Generous());  // one shard: routing is trivial
  SafeLog log;
  log.Install(wheel);

  ASSERT_TRUE(wheel.StartTimer(5, 42).has_value());
  EXPECT_FALSE(wheel.HasPendingBatches(0));

  // The advance drains, claims, and publishes — but delivers nothing itself.
  EXPECT_EQ(wheel.AdvanceShard(0, 5), 1u);
  EXPECT_EQ(wheel.ShardCursor(0), 5u);
  EXPECT_TRUE(wheel.HasPendingBatches(0));
  EXPECT_TRUE(log.fires.empty()) << "AdvanceShard must not run handlers";
  EXPECT_EQ(wheel.counts().dispatch_batches, 1u);

  // Owner dispatch delivers the batch; a second dispatch finds nothing.
  EXPECT_EQ(wheel.DispatchShard(0, /*owner=*/true), 1u);
  ASSERT_EQ(log.fires.size(), 1u);
  EXPECT_EQ(log.fires[0], (std::pair<RequestId, Tick>{42, 5}));
  EXPECT_FALSE(wheel.HasPendingBatches(0));
  EXPECT_EQ(wheel.DispatchShard(0, /*owner=*/true), 0u);
  EXPECT_EQ(wheel.counts().dispatch_steals, 0u);
  EXPECT_EQ(wheel.dispatch_order_violations(), 0u);

  // The clock only commits what CommitNow was told about.
  EXPECT_EQ(wheel.now(), 0u);
  wheel.CommitNow(5);
  EXPECT_EQ(wheel.now(), 5u);
}

TEST(SplitTickProtocolTest, NonOwnerDispatchIsACountedStealExactlyOnce) {
  ShardedWheel wheel(1, 64, Generous());
  SafeLog log;
  log.Install(wheel);

  ASSERT_TRUE(wheel.StartTimer(3, 7).has_value());
  EXPECT_EQ(wheel.AdvanceShard(0, 3), 1u);

  // A thief (owner=false) delivers the very same batch the owner would have —
  // exactly once, counted as a steal.
  EXPECT_EQ(wheel.DispatchShard(0, /*owner=*/false), 1u);
  EXPECT_EQ(wheel.counts().dispatch_steals, 1u);
  ASSERT_EQ(log.fires.size(), 1u);
  EXPECT_EQ(log.fires[0], (std::pair<RequestId, Tick>{7, 3}));
  // Nothing left for the owner: the claim CAS transferred the whole chain.
  EXPECT_EQ(wheel.DispatchShard(0, /*owner=*/true), 0u);
  EXPECT_EQ(log.fires.size(), 1u);
  EXPECT_EQ(wheel.dispatch_order_violations(), 0u);
}

TEST(SplitTickProtocolTest, StackedBatchesDeliverOldestFirst) {
  ShardedWheel wheel(1, 64, Generous());
  SafeLog log;
  log.Install(wheel);

  // Two separate advances stack two batches (LIFO on the stack); one dispatch
  // must deliver them FIFO — ticks 2 then 4 — or the order counter trips.
  ASSERT_TRUE(wheel.StartTimer(2, 100).has_value());
  ASSERT_TRUE(wheel.StartTimer(4, 200).has_value());
  EXPECT_EQ(wheel.AdvanceShard(0, 2), 1u);
  EXPECT_EQ(wheel.AdvanceShard(0, 4), 1u);
  EXPECT_EQ(wheel.counts().dispatch_batches, 2u);

  EXPECT_EQ(wheel.DispatchShard(0, /*owner=*/false), 2u);
  ASSERT_EQ(log.fires.size(), 2u);
  EXPECT_EQ(log.fires[0], (std::pair<RequestId, Tick>{100, 2}));
  EXPECT_EQ(log.fires[1], (std::pair<RequestId, Tick>{200, 4}));
  EXPECT_EQ(wheel.dispatch_order_violations(), 0u);
  // Steals count per batch delivered, not per claimed chain.
  EXPECT_EQ(wheel.counts().dispatch_steals, 2u);
}

TEST(SplitTickProtocolTest, StolenCancelRaceSuppressesExactlyOnce) {
  // A cancel that lands after the advance collected the expiry loses: the
  // claim at AdvanceShard already committed the fire, StopTimer returns
  // kNoSuchTimer, and the (possibly stolen) dispatch still delivers it.
  ShardedWheel wheel(1, 64, Generous());
  SafeLog log;
  log.Install(wheel);

  auto handle = wheel.StartTimer(2, 9);
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(wheel.AdvanceShard(0, 2), 1u);
  EXPECT_EQ(wheel.StopTimer(handle.value()), TimerError::kNoSuchTimer)
      << "the claim must beat the cancel once the batch is published";
  EXPECT_EQ(wheel.DispatchShard(0, /*owner=*/false), 1u);
  ASSERT_EQ(log.fires.size(), 1u);
  EXPECT_EQ(log.fires[0].first, 9u);
}

// --- DispatchPool, manual mode ---------------------------------------------

TEST(DispatchPoolTest, ManualAdvanceDeliversEverythingAndCommitsNow) {
  ShardedWheel wheel(4, 64, Generous());
  SafeLog log;
  log.Install(wheel);

  constexpr std::size_t kTimers = 64;
  for (std::size_t i = 0; i < kTimers; ++i) {
    ASSERT_TRUE(wheel.StartTimer(1 + (i % 32), 1000 + i).has_value());
  }

  DispatchOptions options;
  options.drainers = 3;  // 3 drainers over 4 shards: uneven ownership
  DispatchPool pool(wheel, options);
  const std::size_t fired = pool.AdvanceTo(40);
  EXPECT_EQ(fired, kTimers);
  EXPECT_EQ(wheel.now(), 40u);
  EXPECT_EQ(wheel.outstanding(), 0u);
  EXPECT_EQ(log.fires.size(), kTimers);
  EXPECT_EQ(wheel.dispatch_order_violations(), 0u);
  pool.Stop();

  // Exactly-once across the pool: every cookie appears exactly once.
  std::vector<bool> seen(kTimers, false);
  for (const auto& [cookie, when] : log.fires) {
    const std::size_t i = static_cast<std::size_t>(cookie - 1000);
    ASSERT_LT(i, kTimers);
    EXPECT_FALSE(seen[i]) << "cookie " << cookie << " delivered twice";
    seen[i] = true;
    EXPECT_EQ(when, 1 + (i % 32));
  }
}

TEST(DispatchPoolTest, ManualAdvanceIsRepeatableAcrossEpochs) {
  ShardedWheel wheel(2, 64, Generous());
  SafeLog log;
  log.Install(wheel);
  DispatchOptions options;
  options.drainers = 2;
  DispatchPool pool(wheel, options);

  for (Tick target = 8; target <= 64; target += 8) {
    ASSERT_TRUE(wheel.StartTimer(4, target).has_value());
    pool.AdvanceTo(target);
    EXPECT_EQ(wheel.now(), target);
  }
  pool.Stop();
  EXPECT_EQ(log.fires.size(), 8u);
  EXPECT_EQ(wheel.outstanding(), 0u);
  EXPECT_EQ(pool.fires_dispatched(), 8u);
}

// Satellite: counts() coherence under concurrent drainers — the conservation
// law start_calls == expiries + kOk cancels + outstanding must hold exactly at
// quiesce no matter how many drainers raced the dispatch (client-view claim
// counters, not the inner wheels' ghost-inflated totals).
TEST(DispatchPoolTest, CountsConservationHoldsUnderConcurrentDrainers) {
  ShardedWheel wheel(4, 64, Generous());
  SafeLog log;
  log.Install(wheel);
  DispatchOptions options;
  options.drainers = 4;
  DispatchPool pool(wheel, options);

  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kOpsPerProducer = 400;
  std::atomic<std::size_t> ok_cancels{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::vector<TimerHandle> live;
      for (std::size_t i = 0; i < kOpsPerProducer; ++i) {
        auto r = wheel.StartTimer(1 + ((p * 131 + i * 17) % 48),
                                  (p << 20) | i);
        ASSERT_TRUE(r.has_value()) << "generous capacity rejected a start";
        live.push_back(r.value());
        if (i % 3 == 0 && !live.empty()) {
          if (wheel.StopTimer(live.back()) == TimerError::kOk) {
            ok_cancels.fetch_add(1, std::memory_order_relaxed);
          }
          live.pop_back();
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Drive the pool while producers are live, then join and quiesce.
  for (int i = 0; i < 16; ++i) {
    pool.AdvanceTo(wheel.now() + 8);
  }
  for (std::thread& t : producers) {
    t.join();
  }
  while (wheel.outstanding() != 0) {
    pool.AdvanceTo(wheel.now() + 64);
  }
  pool.Stop();

  const auto counts = wheel.counts();
  EXPECT_EQ(counts.start_calls, kProducers * kOpsPerProducer);
  EXPECT_EQ(counts.start_calls,
            counts.expiries + ok_cancels.load() + wheel.outstanding())
      << "counts() snapshot incoherent after concurrent dispatch: expiries="
      << counts.expiries << " cancels=" << ok_cancels.load();
  EXPECT_EQ(log.fires.size(), counts.expiries);
  EXPECT_EQ(wheel.dispatch_order_violations(), 0u);
}

// --- DispatchPool driven by a TickerThread ---------------------------------

TEST(DispatchPoolTest, TickerModeFiresWithoutExternalDriving) {
  ShardedWheel wheel(2, 64, Generous());
  SafeLog log;
  log.Install(wheel);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wheel.StartTimer(1 + i, 50 + i).has_value());
  }
  DispatchOptions options;
  options.drainers = 2;
  DispatchPool pool(wheel, options);
  TickerThread ticker(pool, std::chrono::microseconds(100));
  // 8 ticks owed after ~1ms; spin until the pool delivered all 8 fires.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (wheel.outstanding() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticker.Stop();
  pool.Stop();
  EXPECT_EQ(wheel.outstanding(), 0u) << "ticker pool never delivered";
  EXPECT_EQ(log.fires.size(), 8u);
  EXPECT_EQ(wheel.dispatch_order_violations(), 0u);
}

// Shutdown promptness mid catch-up burst: a microscopic ticker period means
// the ticker is permanently behind schedule, always handing the pool another
// catch-up chunk that the drainers advance in bounded AdvanceShard chunks.
// Stopping the ticker and then the pool must abandon the burst between chunks
// (never wait out the accumulated debt) and run no bookkeeping afterwards.
TEST(DispatchPoolTest, StopIsPromptMidCatchUpBurstAndFinal) {
  ShardedWheel wheel(4, 64, Generous());
  SafeLog log;
  log.Install(wheel);
  // Self-re-arming load: periodic timers keep every future tick populated, so
  // the catch-up burst always has real expiry work to deliver.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        wheel.StartPeriodic(1 + (i % 8), 9000 + i, TimerService::kRepeatForever)
            .has_value());
  }
  DispatchOptions options;
  options.drainers = 4;
  options.max_chunk_ticks = 32;
  DispatchPool pool(wheel, options);
  TickerThread ticker(pool, std::chrono::microseconds(1));  // unmeetable pace
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    // The burst is real: laps were delivered while we slept (an infinite
    // periodic never retires, so laps land in periodic_fires, not expiries).
    std::lock_guard<std::mutex> lock(log.mutex);
    ASSERT_FALSE(log.fires.empty()) << "ticker pool delivered nothing";
  }

  const auto stop_begin = std::chrono::steady_clock::now();
  ticker.Stop();
  pool.Stop();
  const auto stop_elapsed = std::chrono::steady_clock::now() - stop_begin;
  // ~50ms at 1µs/tick leaves ~50k ticks of debt; a prompt Stop abandons it
  // after the one wall-time-bounded chunk in flight. The bound is deliberately loose for slow
  // CI, but far below the many seconds the full debt would cost.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(stop_elapsed)
                .count(),
            2000)
      << "Stop() waited out the catch-up burst instead of abandoning it";

  // No bookkeeping after Stop: clock, fires, and counters are all frozen.
  const Tick now_after_stop = wheel.now();
  const auto counts_after_stop = wheel.counts();
  const std::size_t fires_after_stop = [&] {
    std::lock_guard<std::mutex> lock(log.mutex);
    return log.fires.size();
  }();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(wheel.now(), now_after_stop);
  const auto counts_later = wheel.counts();
  EXPECT_EQ(counts_later.periodic_fires, counts_after_stop.periodic_fires);
  EXPECT_EQ(counts_later.dispatch_batches, counts_after_stop.dispatch_batches);
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    EXPECT_EQ(log.fires.size(), fires_after_stop);
  }
  // Stop() delivered every batch that was still published: nothing pending.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(wheel.HasPendingBatches(s)) << "shard " << s;
  }

  // The wheel is still a valid single-driver service afterwards: driving it
  // directly keeps firing.
  const std::uint64_t before = wheel.counts().periodic_fires;
  wheel.AdvanceTo(wheel.now() + 16);
  EXPECT_GT(wheel.counts().periodic_fires, before)
      << "periodic load must keep firing under post-pool manual driving";
}

// The pool's own abort path, which a ticker stopped first never reaches: Stop()
// while an AdvanceTo is still far from its target must abandon the advance
// between chunks and deliver what was published. The shards may be left at
// unequal cursors, which a later absolute-target AdvanceTo re-converges
// without skipping or re-running any shard's tick.
TEST(DispatchPoolTest, StopAbandonsAnAdvanceInFlight) {
  ShardedWheel wheel(4, 64, Generous());
  SafeLog log;
  log.Install(wheel);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        wheel.StartPeriodic(1 + (i % 8), 9000 + i, TimerService::kRepeatForever)
            .has_value());
  }
  DispatchOptions options;
  options.drainers = 4;
  options.max_chunk_ticks = 32;
  DispatchPool pool(wheel, options);
  const Tick target = wheel.now() + 100'000'000;
  std::thread advancer([&] { pool.AdvanceTo(target); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto stop_begin = std::chrono::steady_clock::now();
  pool.Stop();
  const auto stop_elapsed = std::chrono::steady_clock::now() - stop_begin;
  advancer.join();  // AdvanceTo returned early
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(stop_elapsed)
                .count(),
            2000)
      << "Stop() waited out the advance instead of abandoning it";
  EXPECT_LT(wheel.now(), target);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(wheel.HasPendingBatches(s)) << "shard " << s;
  }

  Tick ahead = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    ahead = std::max(ahead, wheel.ShardCursor(s));
  }
  wheel.AdvanceTo(ahead + 16);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(wheel.ShardCursor(s), wheel.now()) << "shard " << s;
  }
  // No tick was skipped or run twice on any shard: every cookie's laps are
  // exactly one period apart from the first to the last.
  std::map<RequestId, std::vector<Tick>> laps;
  for (const auto& [id, when] : log.fires) {
    laps[id].push_back(when);
  }
  ASSERT_EQ(laps.size(), 32u);
  for (const auto& [id, ticks] : laps) {
    const Tick period = 1 + (id - 9000) % 8;
    for (std::size_t i = 0; i < ticks.size(); ++i) {
      ASSERT_EQ(ticks[i], (i + 1) * period) << "cookie " << id << " lap " << i;
    }
    EXPECT_EQ(ticks.size(), wheel.now() / period) << "cookie " << id;
  }
}

TEST(DispatchPoolTest, StopIsIdempotentAndDestructorSafe) {
  ShardedWheel wheel(2, 64, Generous());
  SafeLog log;
  log.Install(wheel);
  ASSERT_TRUE(wheel.StartTimer(4, 1).has_value());
  DispatchOptions options;
  options.drainers = 2;
  {
    DispatchPool pool(wheel, options);
    TickerThread ticker(pool, std::chrono::microseconds(50));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ticker.Stop();
    pool.Stop();
    pool.Stop();  // idempotent
  }  // destructors call Stop again, ticker first
  SUCCEED();
}

}  // namespace
}  // namespace twheel::concurrent
