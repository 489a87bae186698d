// Concurrent torture suite: N producer threads race StartTimer/StopTimer
// against a concurrently advancing ShardedWheel, and the episode logs are
// checked against the deferred-visibility contract — see
// src/verify/concurrent_driver.h for the invariants and the modes. The
// *EightShards episodes run the widest geometry here, eight shards of 32
// slots, so intervals up to max_interval lap each inner table.
//
// Episode count is env-tunable: TWHEEL_TORTURE_EPISODES (default 50 per
// producer count). scripts/verify.sh reduces it under sanitizers, where each
// episode costs ~20x. All tests carry the ctest label `torture`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

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

TortureOptions BaseOptions(std::uint64_t seed, std::size_t producers) {
  TortureOptions options;
  options.seed = seed;
  options.producers = producers;
  options.ops_per_producer = 256;
  options.max_interval = 64;
  options.race_ticks = 128;
  return options;
}

TEST(ConcurrentTortureTest, ManualRaceMpsc) {
  const std::size_t episodes = Episodes();
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = BaseOptions(1000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      ASSERT_EQ(report.start_rejects, 0u) << "generous capacity still rejected";
    }
  }
}

TEST(ConcurrentTortureTest, ManualRaceMpscSpinBackpressure) {
  // A deliberately tiny ring under kSpin: producers block on the drainer, so
  // every episode exercises the full-ring path; no operation may be lost.
  const std::size_t episodes = Episodes(2);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          1, 64, Submit(64, 4096, concurrent::SubmitPolicy::kSpin));
      TortureOptions options = BaseOptions(2000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      ASSERT_EQ(report.start_rejects, 0u) << "kSpin must never reject";
    }
  }
}

TEST(ConcurrentTortureTest, ManualRaceMpscRejectBackpressure) {
  // Tiny ring under kReject: rejects are expected and legal; every *accepted*
  // operation must still satisfy the invariants.
  const std::size_t episodes = Episodes(2);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          1, 64, Submit(32, 4096, concurrent::SubmitPolicy::kReject));
      TortureOptions options = BaseOptions(3000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(ConcurrentTortureTest, ManualRaceEightShards) {
  const std::size_t episodes = Episodes(2);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          8, 32, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = BaseOptions(4000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(ConcurrentTortureTest, TickerRaceMpsc) {
  // Wall-clock-driven episodes are slower; cap the count but keep all producer
  // counts — the TickerThread chunked catch-up path versus live producers is
  // the deployment configuration.
  const std::size_t episodes = std::min<std::size_t>(Episodes(5), 10);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kSpin));
      TortureOptions options = BaseOptions(5000 + ep, producers);
      options.mode = TortureMode::kTickerRace;
      options.ticker_period_us = 20;
      // Longer producer runs so starts, cancels, and wall-clock-driven expiries
      // genuinely overlap inside the episode.
      options.ops_per_producer = 2048;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(ConcurrentTortureTest, LockstepOracleMpsc) {
  // The exact differential mode: genuine MPSC contention inside each frozen
  // enqueue phase, then call-for-call replay into OracleTimers and per-tick
  // multiset comparison across the advance.
  const std::size_t episodes = Episodes(2);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          2, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = BaseOptions(6000 + ep, producers);
      options.mode = TortureMode::kLockstepOracle;
      options.ops_per_producer = 48;
      options.rounds = 12;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(ConcurrentTortureTest, LockstepOracleEightShards) {
  const std::size_t episodes = Episodes(4);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          8, 32, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = BaseOptions(7000 + ep, producers);
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
