// Concurrent restart torture: producer threads race RestartTimer against
// fires, cancels, and each other on the ShardedWheel. The driver
// (src/verify/concurrent_driver.h) checks the restart-specific invariants on
// top of the usual exactly-once/no-early-fire set:
//
//   * a timer restarted before its old deadline never fires at that old
//     deadline — the fire-tick lower bound advances to (observed now at the
//     LAST successful restart) + its new interval;
//   * restart racing a fire resolves exactly once: kOk means the timer fires
//     only at the relinked deadline, kNoSuchTimer means the fire (or a cancel)
//     won and the cookie is accounted exactly once — never both, never
//     neither;
//   * in lockstep mode every RestartTimer call (result included) is replayed
//     call-for-call into OracleTimers and the per-tick expiry multisets must
//     stay identical through the relinks.
//
// Episode count honors TWHEEL_TORTURE_EPISODES like the rest of the torture
// suite; scripts/verify.sh reduces it under sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/verify/concurrent_driver.h"

namespace twheel::verify {
namespace {

std::size_t Episodes(std::size_t scale_down = 1) {
  std::size_t episodes = 50;
  if (const char* env = std::getenv("TWHEEL_TORTURE_EPISODES")) {
    const long parsed = std::atol(env);
    if (parsed > 0) {
      episodes = static_cast<std::size_t>(parsed);
    }
  }
  return std::max<std::size_t>(1, episodes / scale_down);
}

concurrent::SubmitOptions Submit(std::size_t ring, std::size_t table,
                                 concurrent::SubmitPolicy policy) {
  concurrent::SubmitOptions submit;
  submit.ring_capacity = ring;
  submit.registration_capacity = table;
  submit.on_full = policy;
  return submit;
}

constexpr std::size_t kProducerCounts[] = {1, 2, 4};

TortureOptions RestartOptions(std::uint64_t seed, std::size_t producers) {
  TortureOptions options;
  options.seed = seed;
  options.producers = producers;
  options.ops_per_producer = 256;
  options.max_interval = 64;
  options.race_ticks = 128;
  options.stop_probability = 0.2;
  options.restart_probability = 0.35;
  return options;
}

TEST(RestartTortureTest, ManualRaceMpscWithRestarts) {
  const std::size_t episodes = Episodes();
  std::size_t restarts = 0;
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = RestartOptions(10000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      ASSERT_EQ(report.restart_rejects, 0u) << "generous capacity rejected";
      restarts += report.restarts;
    }
  }
  EXPECT_GT(restarts, 0u) << "restart alphabet never exercised";
}

TEST(RestartTortureTest, ManualRaceMpscRestartFireRaces) {
  // Short fuses and a hot restart mix: most restarts land close to (or racing)
  // the old deadline, so the kOk-vs-kNoSuchTimer referee is exercised
  // constantly. restart_misses counts the fires that won. Whether any fire
  // wins depends on the scheduler (a slow build can let the producers finish
  // before a timer comes due), so after the usual episodes more seeded ones
  // run, up to kMaxEpisodes per producer count, until one has seen a miss.
  // RestartAfterTheFinalClaimMisses pins the same race by construction.
  constexpr std::size_t kMaxEpisodes = 200;
  const auto run = [](std::size_t producers, std::size_t ep) {
    concurrent::ShardedWheel wheel(
        2, 32, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
    TortureOptions options = RestartOptions(11000 + ep, producers);
    options.mode = TortureMode::kManualRace;
    options.max_interval = 8;  // fires chase the relinks
    options.restart_probability = 0.5;
    options.stop_probability = 0.1;
    return RunTorture(wheel, options);
  };
  const std::size_t episodes = Episodes(2);
  std::size_t misses = 0;
  for (std::size_t ep = 0;
       ep < episodes || (misses == 0 && ep < kMaxEpisodes); ++ep) {
    for (std::size_t producers : kProducerCounts) {
      const TortureReport report = run(producers, ep);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      misses += report.restart_misses;
    }
  }
  EXPECT_GT(misses, 0u) << "no restart ever raced a fire";
}

TEST(RestartTortureTest, RestartAfterTheFinalClaimMisses) {
  // The race ManualRaceMpscRestartFireRaces samples, taken one step at a time
  // on one shard: the shard step claims the final fire, a restart that comes
  // after the claim and before the delivery misses, and the fire is still
  // delivered exactly once.
  concurrent::ShardedWheel wheel(
      1, 32, Submit(64, 64, concurrent::SubmitPolicy::kReject));
  std::vector<std::pair<RequestId, Tick>> fires;
  wheel.set_expiry_handler(
      [&fires](RequestId id, Tick when, bool) { fires.emplace_back(id, when); });
  const StartResult handle = wheel.StartTimer(4, 77);
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(wheel.AdvanceShard(0, 4), 1u) << "the step did not claim the fire";
  EXPECT_EQ(wheel.RestartTimer(handle.value(), 8), TimerError::kNoSuchTimer);
  EXPECT_TRUE(fires.empty()) << "delivered before DispatchShard";
  EXPECT_EQ(wheel.DispatchShard(0), 1u);
  wheel.CommitNow(4);
  EXPECT_EQ(wheel.AdvanceTo(4 + 16), 0u) << "the missed restart re-armed the timer";
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], (std::pair<RequestId, Tick>{77, 4}));
  EXPECT_EQ(wheel.counts().restart_calls, 0u);
  EXPECT_EQ(wheel.outstanding(), 0u);
}

TEST(RestartTortureTest, ManualRaceMpscSpinBackpressureWithRestarts) {
  // Tiny ring under kSpin: restart commands block on the drainer alongside
  // starts and cancels; every accepted relink must still resolve exactly once.
  const std::size_t episodes = Episodes(2);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          1, 64, Submit(64, 4096, concurrent::SubmitPolicy::kSpin));
      TortureOptions options = RestartOptions(12000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      ASSERT_EQ(report.restart_rejects, 0u) << "kSpin must never reject";
    }
  }
}

TEST(RestartTortureTest, RestartCommitVsDrainNeverWedges) {
  // Regression for the reserve-commit-publish ordering in SubmitRestart. The
  // earlier publish-then-commit protocol let the drainer consume a kRestart
  // command before its commit CAS landed: Apply saw counter==0, dropped the
  // relink, and the commit then succeeded anyway — an orphaned suppression
  // ticket with no relink command left in the ring, so ClaimFire suppressed
  // every subsequent expiry and the timer never fired again. Hammer exactly
  // that window: producers restart one timer in a tight loop while this
  // thread drains/ticks as fast as it can, then quiesce and require the timer
  // to fire exactly once within a bounded number of ticks.
  const std::size_t rounds = std::max<std::size_t>(Episodes(2), 10);
  constexpr Duration kInterval = 32;
  constexpr std::size_t kProducers = 3;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Tiny ring under kReject: reservations hit the full path constantly, so
    // drains overlap the reserve/commit/publish window at high frequency.
    concurrent::ShardedWheel wheel(
        1, 64, Submit(16, 64, concurrent::SubmitPolicy::kReject));
    std::atomic<int> fires{0};
    wheel.set_expiry_handler(
        [&fires](RequestId, Tick, bool) { fires.fetch_add(1); });
    auto handle = wheel.StartTimer(kInterval, 7);
    ASSERT_TRUE(handle.has_value());
    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&wheel, &stop, handle] {
        while (!stop.load(std::memory_order_acquire)) {
          const TimerError err = wheel.RestartTimer(handle.value(), kInterval);
          if (err == TimerError::kNoSuchTimer) {
            return;  // the fire won; nothing left to restart
          }
          // kOk relinked; kNoCapacity (full ring) just retries.
        }
      });
    }
    for (int i = 0; i < 1500; ++i) {
      wheel.PerTickBookkeeping();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : producers) {
      t.join();
    }
    // Quiesced: the timer either fired mid-hammer or sits relinked at most
    // kInterval ticks out (plus one drain for a still-pending command). A
    // wedged suppression ticket would keep it from ever firing.
    for (Duration i = 0; i < 2 * kInterval && fires.load() == 0; ++i) {
      wheel.PerTickBookkeeping();
    }
    ASSERT_EQ(fires.load(), 1) << "round " << round
                               << ": restarted timer wedged or double-fired";
  }
}

TEST(RestartTortureTest, DeferredLastFireAtTheEndOfTickFiresOnce) {
  // A forever periodic whose next lap would pass the end of Tick has one fire
  // left, and that fire is last. A restart that commits between a shard
  // step's drain and its claim defers it, and the restart's drain registers it
  // again at the moved deadline. It used to register the whole forever series
  // again, which the inner wheel refuses that close to the end of Tick, and
  // the process aborted. One producer restarts the timer to one tick out in a
  // tight loop while this thread steps up to the end of Tick; the series must
  // end with exactly one last fire.
  const Tick end = std::numeric_limits<Tick>::max();
  const std::size_t rounds = std::max<std::size_t>(Episodes(2), 10);
  for (std::size_t round = 0; round < rounds; ++round) {
    concurrent::ShardedWheel wheel(
        1, 64, Submit(64, 64, concurrent::SubmitPolicy::kReject));
    std::vector<bool> lasts;  // one per delivered fire, in delivery order
    wheel.set_expiry_handler(
        [&lasts](RequestId, Tick, bool last) { lasts.push_back(last); });
    wheel.AdvanceTo(end - 8);
    const StartResult handle = wheel.StartPeriodic(6, 7);
    ASSERT_TRUE(handle.has_value());
    std::atomic<bool> running{false};
    std::atomic<bool> stop{false};
    std::thread producer([&wheel, &running, &stop, &handle] {
      while (!stop.load(std::memory_order_acquire)) {
        const TimerError err = wheel.RestartTimer(handle.value(), 1);
        running.store(true, std::memory_order_release);
        if (err == TimerError::kNoSuchTimer) {
          return;  // the last fire won
        }
      }
    });
    while (!running.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (Tick t = end - 7; t < end; ++t) {
      wheel.AdvanceTo(t);
    }
    stop.store(true, std::memory_order_release);
    producer.join();
    // Quiesced: a fire still deferred is registered at most one tick out.
    wheel.AdvanceTo(end);
    ASSERT_FALSE(lasts.empty()) << "round " << round;
    EXPECT_EQ(std::count(lasts.begin(), lasts.end(), true), 1) << "round " << round;
    EXPECT_TRUE(lasts.back()) << "round " << round << ": a fire followed the last";
    EXPECT_EQ(wheel.outstanding(), 0u) << "round " << round;
  }
}

TEST(RestartTortureTest, ManualRaceEightShardsWithRestarts) {
  // The eight-shard, 32-slot geometry, so restarted intervals past the table
  // relink across laps.
  const std::size_t episodes = Episodes(2);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          8, 32, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = RestartOptions(13000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(RestartTortureTest, TickerRaceMpscWithRestarts) {
  const std::size_t episodes = std::min<std::size_t>(Episodes(5), 10);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kSpin));
      TortureOptions options = RestartOptions(14000 + ep, producers);
      options.mode = TortureMode::kTickerRace;
      options.ticker_period_us = 20;
      options.ops_per_producer = 2048;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(RestartTortureTest, LockstepOracleMpscReplaysRestarts) {
  // Call-for-call restart replay into OracleTimers under genuine MPSC
  // contention inside each frozen enqueue phase: results, per-tick expiry
  // multisets, clocks, and outstanding() must match exactly through relinks.
  const std::size_t episodes = Episodes(2);
  std::size_t restarts = 0;
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          2, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = RestartOptions(15000 + ep, producers);
      options.mode = TortureMode::kLockstepOracle;
      options.ops_per_producer = 48;
      options.rounds = 12;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      restarts += report.restarts;
    }
  }
  EXPECT_GT(restarts, 0u) << "lockstep never replayed a restart";
}

TEST(RestartTortureTest, LockstepOracleEightShardsReplaysRestarts) {
  // The lockstep replay at the eight-shard, 32-slot geometry (see above).
  const std::size_t episodes = Episodes(4);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          8, 32, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = RestartOptions(16000 + ep, producers);
      options.mode = TortureMode::kLockstepOracle;
      options.ops_per_producer = 48;
      options.rounds = 12;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

}  // namespace
}  // namespace twheel::verify
