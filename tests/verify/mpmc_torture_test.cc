// MPMC torture suite: producers race the full alphabet (start / stop /
// restart / periodic) while a DispatchPool advances and delivers the shards
// from several drainer threads at once — the pool modes of the concurrent
// torture driver (kMultiTicker, kStealStorm; see src/verify/concurrent_driver.h
// for the invariants that survive concurrent dispatch and how the vacuous
// global-order checks are replaced by the wheel's own per-shard certification).
//
// Episode count is env-tunable: TWHEEL_TORTURE_EPISODES (default 50 per
// drainer count). scripts/verify.sh reduces it under sanitizers, where each
// episode costs ~20x. All tests carry the ctest labels `mpmc` and `torture`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "src/concurrent/sharded_wheel.h"
#include "src/core/hashed_wheel_unsorted.h"
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

constexpr std::size_t kDrainerCounts[] = {1, 2, 4};

// The full alphabet is always on: restart-vs-steal and periodic-re-arm-vs-steal
// are exactly the races this suite exists to grind.
TortureOptions BaseOptions(std::uint64_t seed, std::size_t drainers) {
  TortureOptions options;
  options.seed = seed;
  options.producers = 3;
  options.ops_per_producer = 256;
  options.max_interval = 64;
  options.race_ticks = 128;
  options.restart_probability = 0.15;
  options.periodic_probability = 0.15;
  options.periodic_repeat_max = 3;
  options.drainers = drainers;
  options.pool_chunk_ticks = 16;
  return options;
}

TEST(MpmcTortureTest, MultiTickerMpsc) {
  // A TickerThread driving the pool: wall-clock-driven, so cap the episode
  // count the way TickerRaceMpsc does, but sweep the drainer counts — 1
  // drainer degenerates to the single-ticker deployment (a soundness baseline
  // for the checker), 4 drainers on 4 shards is one drainer per shard.
  const std::size_t episodes = std::min<std::size_t>(Episodes(5), 10);
  for (std::size_t drainers : kDrainerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kSpin));
      TortureOptions options = BaseOptions(11000 + ep, drainers);
      options.mode = TortureMode::kMultiTicker;
      options.ticker_period_us = 20;
      options.ops_per_producer = 2048;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "drainers=" << drainers << " episode=" << ep
                             << ": " << report.violation;
    }
  }
}

TEST(MpmcTortureTest, StealStormMpsc) {
  // Manual-mode pool slammed with bursty AdvanceTo jumps: every jump publishes
  // expiry batches across all shards at once, so the non-advancing drainers
  // spend the episode stealing. Deterministic enough to run at full episode
  // count.
  const std::size_t episodes = Episodes();
  for (std::size_t drainers : kDrainerCounts) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      concurrent::ShardedWheel wheel(
          4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
      TortureOptions options = BaseOptions(12000 + ep, drainers);
      options.mode = TortureMode::kStealStorm;
      const TortureReport report = RunTorture(wheel, options);
      ASSERT_TRUE(report.ok) << "drainers=" << drainers << " episode=" << ep
                             << ": " << report.violation;
      ASSERT_EQ(report.start_rejects, 0u) << "generous capacity still rejected";
      if (report.fires > 0) {
        EXPECT_GT(report.dispatch_batches, 0u)
            << "pool delivered fires without publishing batches";
      }
    }
  }
}

TEST(MpmcTortureTest, StealStormSpinBackpressure) {
  // Tiny ring under kSpin: producers block on the drain inside AdvanceShard,
  // so ring-full stalls interleave with concurrent batch dispatch and steals.
  const std::size_t episodes = Episodes(2);
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    concurrent::ShardedWheel wheel(
        2, 64, Submit(64, 4096, concurrent::SubmitPolicy::kSpin));
    TortureOptions options = BaseOptions(13000 + ep, 2);
    options.mode = TortureMode::kStealStorm;
    const TortureReport report = RunTorture(wheel, options);
    ASSERT_TRUE(report.ok) << "episode=" << ep << ": " << report.violation;
    ASSERT_EQ(report.start_rejects, 0u) << "kSpin must never reject";
  }
}

TEST(MpmcTortureTest, StealStormRejectBackpressure) {
  // Tiny ring under kReject: rejects are expected and legal; every *accepted*
  // operation must still resolve exactly once under concurrent dispatch.
  const std::size_t episodes = Episodes(2);
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    concurrent::ShardedWheel wheel(
        2, 64, Submit(32, 4096, concurrent::SubmitPolicy::kReject));
    TortureOptions options = BaseOptions(14000 + ep, 4);
    options.mode = TortureMode::kStealStorm;
    const TortureReport report = RunTorture(wheel, options);
    ASSERT_TRUE(report.ok) << "episode=" << ep << ": " << report.violation;
  }
}

TEST(MpmcTortureTest, StealStormSurplusDrainers) {
  // More drainers than shards: the surplus threads own nothing and act as
  // pure stealers, maximizing contention on the per-shard dispatch rights.
  const std::size_t episodes = Episodes(2);
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    concurrent::ShardedWheel wheel(
        2, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
    TortureOptions options = BaseOptions(15000 + ep, 6);
    options.mode = TortureMode::kStealStorm;
    const TortureReport report = RunTorture(wheel, options);
    ASSERT_TRUE(report.ok) << "episode=" << ep << ": " << report.violation;
  }
}

TEST(MpmcTortureTest, StealStormNoSteal) {
  // steal=false isolates the split advance/dispatch protocol itself: owners
  // deliver their own batches, so any failure here is in the batch pipeline,
  // not the stealing. dispatch_steals must stay exactly zero.
  const std::size_t episodes = Episodes(2);
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    concurrent::ShardedWheel wheel(
        4, 64, Submit(8192, 8192, concurrent::SubmitPolicy::kReject));
    TortureOptions options = BaseOptions(16000 + ep, 2);
    options.mode = TortureMode::kStealStorm;
    options.steal = false;
    const TortureReport report = RunTorture(wheel, options);
    ASSERT_TRUE(report.ok) << "episode=" << ep << ": " << report.violation;
    EXPECT_EQ(report.dispatch_steals, 0u)
        << "steal=false pool still stole a batch";
  }
}

TEST(MpmcTortureTest, PoolModesRejectNonShardedServices) {
  // The pool modes need AdvanceShard/DispatchShard; any other service must be
  // refused with a clean report, not UB.
  HashedWheelUnsorted not_sharded(64);
  TortureOptions options = BaseOptions(1, 2);
  options.mode = TortureMode::kStealStorm;
  const TortureReport report = RunTorture(not_sharded, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("ShardedWheel"), std::string::npos)
      << report.violation;
}

}  // namespace
}  // namespace twheel::verify
