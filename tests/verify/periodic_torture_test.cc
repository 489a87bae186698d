// Concurrent periodic torture: producer threads race StartPeriodic-registered
// timers against fires, cancels, restarts, and each other on the ShardedWheel.
// The driver (src/verify/concurrent_driver.h) checks the periodic-specific
// invariants on top of the usual exactly-once/no-early-fire set:
//
//   * a periodic with a finite budget that is never cancelled delivers EXACTLY
//     that many laps — the expiry-path re-arm neither drops a lap nor double
//     fires one, no matter how the re-arm races cancels and restarts;
//   * a kOk cancel between fires ends the series as a strict prefix of the
//     budget: the FINAL lap claims the registration, so it can never coexist
//     with a successful cancel;
//   * laps of a never-restarted periodic are spaced exactly one period apart
//     (phase stability under contention and batched AdvanceTo catch-up);
//   * in lockstep mode StartPeriodic/StopTimer/RestartTimer results and the
//     per-tick lap multisets replay call-for-call into OracleTimers.
//
// Episode count honors TWHEEL_TORTURE_EPISODES like the rest of the torture
// suite; scripts/verify.sh reduces it under sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

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

TortureOptions PeriodicOptions(std::uint64_t seed, std::size_t producers) {
  TortureOptions options;
  options.seed = seed;
  options.producers = producers;
  options.ops_per_producer = 256;
  options.max_interval = 48;
  options.race_ticks = 192;
  options.periodic_probability = 0.5;
  options.periodic_repeat_max = 5;
  options.stop_probability = 0.25;
  return options;
}

TEST(PeriodicTortureTest, ManualRaceMpscWithPeriodics) {
  const std::size_t episodes = Episodes();
  std::size_t laps = 0;
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = PeriodicOptions(20000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      laps += report.periodic_fires;
    }
  }
  EXPECT_GT(laps, 0u) << "periodic alphabet never exercised";
}

TEST(PeriodicTortureTest, ManualRaceMpscCancelChasesTheRearm) {
  // Short periods and a hot cancel mix: most cancels land close to (or racing)
  // a lap boundary, so the periodic-fire-vs-cancel referee in the registration
  // word is exercised constantly. A lost race in either direction shows up as
  // a budget overrun (lap after kOk cancel) or a wedged series (budget
  // underrun without a cancel).
  const std::size_t episodes = Episodes(2);
  std::size_t cancels = 0;
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          2, 32, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = PeriodicOptions(21000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      options.max_interval = 6;  // cancels chase the laps
      options.periodic_probability = 0.7;
      options.periodic_repeat_max = 8;
      options.stop_probability = 0.45;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      cancels += report.cancels;
    }
  }
  EXPECT_GT(cancels, 0u) << "no cancel ever raced a lap";
}

TEST(PeriodicTortureTest, ManualRaceMpscRestartsAgainstPeriodics) {
  // Restart-of-periodic racing the expiry-path re-arm: the restart-counter
  // referee must resolve each lap exactly once even when a restart command and
  // a lap claim target the same registration word in the same window.
  const std::size_t episodes = Episodes(2);
  std::size_t restarts = 0;
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = PeriodicOptions(22000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      options.max_interval = 12;
      options.restart_probability = 0.3;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      restarts += report.restarts;
    }
  }
  EXPECT_GT(restarts, 0u) << "restart-of-periodic never exercised";
}

TEST(PeriodicTortureTest, ManualRaceMpscSpinBackpressureWithPeriodics) {
  // Tiny ring under kSpin: periodic registrations block on the drainer
  // alongside one-shots, cancels, and restarts; every accepted budget must
  // still be delivered exactly.
  const std::size_t episodes = Episodes(2);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          1, 64, Submit(64, 4096, concurrent::SubmitPolicy::kSpin));
      TortureOptions options = PeriodicOptions(23000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(PeriodicTortureTest, ManualRaceEightShardsWithPeriodics) {
  // The eight-shard, 32-slot geometry, so periods past the table lap the inner
  // wheels mid-race.
  const std::size_t episodes = Episodes(2);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          8, 32, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = PeriodicOptions(24000 + ep, producers);
      options.mode = TortureMode::kManualRace;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(PeriodicTortureTest, TickerRaceMpscWithPeriodics) {
  const std::size_t episodes = std::min<std::size_t>(Episodes(5), 10);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kSpin));
      TortureOptions options = PeriodicOptions(25000 + ep, producers);
      options.mode = TortureMode::kTickerRace;
      options.ticker_period_us = 20;
      options.ops_per_producer = 2048;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(PeriodicTortureTest, LockstepOracleMpscReplaysPeriodics) {
  // Call-for-call periodic replay into OracleTimers under genuine MPSC
  // contention inside each frozen enqueue phase: results, per-tick lap
  // multisets, clocks, and outstanding() must match exactly through every
  // re-arm, cancel-between-fires, and restart-of-periodic.
  const std::size_t episodes = Episodes(2);
  std::size_t periodic_starts = 0;
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          2, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = PeriodicOptions(26000 + ep, producers);
      options.mode = TortureMode::kLockstepOracle;
      options.restart_probability = 0.2;
      options.ops_per_producer = 48;
      options.rounds = 12;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "producers=" << producers << " episode=" << ep
                             << ": " << report.violation;
      periodic_starts += report.periodic_starts;
    }
  }
  EXPECT_GT(periodic_starts, 0u) << "lockstep never replayed a periodic";
}

TEST(PeriodicTortureTest, LockstepOracleEightShardsReplaysPeriodics) {
  // The lockstep replay at the eight-shard, 32-slot geometry (see above).
  const std::size_t episodes = Episodes(4);
  for (std::size_t producers : kProducerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          8, 32, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = PeriodicOptions(27000 + ep, producers);
      options.mode = TortureMode::kLockstepOracle;
      options.restart_probability = 0.2;
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
