// The networked timer server: protocol semantics over scripted packets, the
// lossless end-to-end conservation law, loss tolerance, cross-scheme
// determinism, the primed large-population path, and lazy restarts with the
// check-ins that resolve them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <ostream>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/concurrent/ticker.h"
#include "src/core/timer_facility.h"
#include "src/net/timer_server.h"
#include "src/net/timer_workload.h"
#include "src/rng/rng.h"

namespace twheel::net {
namespace {

FacilityConfig HostScheme(SchemeId id) {
  FacilityConfig config;
  config.scheme = id;
  config.wheel_size = 256;
  config.level_sizes = {16, 16, 16};
  return config;
}

// TimerServer + a deterministic callback channel (lossless, one-tick delay),
// with the host and network clocks stepped in lockstep.
struct ServerRig {
  explicit ServerRig(SchemeId scheme = SchemeId::kScheme6HashedUnsorted)
      : ServerRig(MakeTimerService(HostScheme(scheme))) {}
  explicit ServerRig(std::unique_ptr<TimerService> host)
      : network(std::make_unique<sim::Simulator>(
            MakeTimerService(HostScheme(SchemeId::kScheme3Heap)))),
        downlink(*network, /*seed=*/1,
                 ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                               .delay_hi = 1}),
        server(std::move(host), downlink) {
    downlink.set_receiver(
        [this](const Packet& p) { callbacks.push_back(p); });
  }

  void Tick(int n = 1) {
    for (int i = 0; i < n; ++i) {
      server.Tick();
      network->Step();
    }
  }
  // One batched advance, then the network step that delivers its callbacks.
  void AdvanceTo(twheel::Tick target) {
    server.AdvanceTo(target);
    network->Step();
  }

  static Packet Request(PacketType type, std::uint32_t session,
                        std::uint64_t timer, std::uint64_t arg0 = 0,
                        std::uint64_t arg1 = 0) {
    Packet p;
    p.connection_id = session;
    p.seq = timer;
    p.type = type;
    p.arg0 = arg0;
    p.arg1 = arg1;
    return p;
  }

  std::unique_ptr<sim::Simulator> network;
  Channel downlink;
  TimerServer server;
  std::vector<Packet> callbacks;
};

TEST(TimerServerTest, OneShotSetFiresOneCallback) {
  ServerRig rig;
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 3, 1, /*interval=*/5));
  EXPECT_EQ(rig.server.registrations(), 1u);
  rig.Tick(5);
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].type, PacketType::kTimerFire);
  EXPECT_EQ(rig.callbacks[0].connection_id, 3u);
  EXPECT_EQ(rig.callbacks[0].seq, 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 5u);  // host tick at dispatch
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
  rig.Tick(20);
  EXPECT_EQ(rig.callbacks.size(), 1u);
}

TEST(TimerServerTest, PeriodicSetDeliversExactlyItsBudgetOfLaps) {
  ServerRig rig;
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic, 2, 0,
                                          /*interval=*/4, /*repeat_for=*/3));
  rig.Tick(30);
  ASSERT_EQ(rig.callbacks.size(), 3u);
  EXPECT_EQ(rig.callbacks[0].arg0, 4u);
  EXPECT_EQ(rig.callbacks[1].arg0, 8u);   // phase-stable laps
  EXPECT_EQ(rig.callbacks[2].arg0, 12u);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.stats().periodic_laps, 2u);  // final lap closes it
  EXPECT_EQ(rig.server.stats().fires_sent, 3u);
}

TEST(TimerServerTest, CancelSuppressesTheCallback) {
  ServerRig rig;
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 1, 0, /*interval=*/10));
  rig.Tick(3);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerCancel, 1, 0));
  EXPECT_EQ(rig.server.stats().cancels, 1u);
  EXPECT_EQ(rig.server.registrations(), 0u);
  rig.Tick(30);
  EXPECT_TRUE(rig.callbacks.empty());
}

TEST(TimerServerTest, CancelBetweenPeriodicLapsStopsTheSeries) {
  ServerRig rig;
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic, 5, 2,
                                          /*interval=*/6, /*repeat_for=*/5));
  rig.Tick(14);  // laps at 6 and 12 happened
  EXPECT_EQ(rig.callbacks.size(), 2u);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerCancel, 5, 2));
  EXPECT_EQ(rig.server.stats().cancels, 1u);
  rig.Tick(40);
  EXPECT_EQ(rig.callbacks.size(), 2u);  // strict prefix of the budget
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST(TimerServerTest, RestartMovesTheDeadline) {
  ServerRig rig;
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 4, 0, /*interval=*/50));
  rig.Tick(10);
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerRestart, 4, 0, /*new interval=*/5));
  EXPECT_EQ(rig.server.stats().restarts, 1u);
  rig.Tick(5);
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 15u);  // 10 + 5, not 50
}

TEST(TimerServerTest, RestartOfPeriodicMovesOnlyTheNextLap) {
  ServerRig rig;
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic, 6, 0,
                                          /*interval=*/6, /*repeat_for=*/2));
  rig.Tick(8);  // first lap at 6
  ASSERT_EQ(rig.callbacks.size(), 1u);
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerRestart, 6, 0, /*new interval=*/2));
  rig.Tick(2);  // final lap lands at 10, not the natural 12
  ASSERT_EQ(rig.callbacks.size(), 2u);
  EXPECT_EQ(rig.callbacks[1].arg0, 10u);
  EXPECT_EQ(rig.server.registrations(), 0u);
}

TEST(TimerServerTest, DuplicateSetReplacesTheLiveTimer) {
  ServerRig rig;
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 9, 3, /*interval=*/50));
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 9, 3, /*interval=*/3));
  EXPECT_EQ(rig.server.stats().replaced, 1u);
  EXPECT_EQ(rig.server.registrations(), 1u);
  rig.Tick(60);
  ASSERT_EQ(rig.callbacks.size(), 1u);  // the old deadline never fires
  EXPECT_EQ(rig.callbacks[0].arg0, 3u);
}

TEST(TimerServerTest, StaleRequestsAreCountedNotFatal) {
  ServerRig rig;
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerCancel, 8, 0));
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerRestart, 8, 0, /*interval=*/4));
  EXPECT_EQ(rig.server.stats().cancel_misses, 1u);
  EXPECT_EQ(rig.server.stats().restart_misses, 1u);
  EXPECT_EQ(rig.server.registrations(), 0u);
}

TimerServerHarnessConfig HarnessConfig(SchemeId scheme, double loss) {
  TimerServerHarnessConfig config;
  config.seed = 42;
  config.host_scheme = HostScheme(scheme);
  config.channel.loss_probability = loss;
  config.channel.delay_lo = 2;
  config.channel.delay_hi = 8;
  config.workload.num_sessions = 400;
  config.workload.requests_per_tick = 16;
  config.workload.timers_per_session = 3;
  config.workload.min_interval = 4;
  config.workload.max_interval = 60;
  config.workload.periodic_probability = 0.4;
  config.workload.periodic_repeat_max = 6;
  config.workload.seed = 99;
  return config;
}

TEST(TimerServerHarnessTest, LosslessRunConservesEveryRegistration) {
  TimerServerHarness harness(
      HarnessConfig(SchemeId::kScheme6HashedUnsorted, /*loss=*/0.0));
  harness.Run(600);
  const Tick drained = harness.Drain(5000);
  ASSERT_LT(drained, 5000u) << "server failed to quiesce";
  EXPECT_EQ(harness.server().registrations(), 0u);
  EXPECT_EQ(harness.server().host().outstanding(), 0u);

  const TimerServerStats& s = harness.server().stats();
  EXPECT_GT(s.sets, 0u);
  EXPECT_GT(s.periodic_sets, 0u);
  EXPECT_GT(s.periodic_laps, 0u);
  EXPECT_GT(s.restarts, 0u);
  EXPECT_GT(s.cancels, 0u);
  EXPECT_EQ(s.rejected, 0u);
  // Lossless, fully drained: every accepted registration resolved exactly one
  // way — cancelled, replaced, or expired on its final fire.
  const std::uint64_t final_fires = s.fires_sent - s.periodic_laps;
  EXPECT_EQ(s.sets + s.periodic_sets, s.cancels + s.replaced + final_fires);
  // Every callback the server sent reached the client.
  EXPECT_EQ(harness.workload().stats().callbacks, s.fires_sent);
  EXPECT_EQ(harness.downlink().dropped(), 0u);
  EXPECT_EQ(harness.workload().believed_live(), 0u);
}

TEST(TimerServerHarnessTest, LossyRunQuiescesAndCountsStaleTraffic) {
  TimerServerHarness harness(
      HarnessConfig(SchemeId::kScheme6HashedUnsorted, /*loss=*/0.2));
  harness.Run(600);
  const Tick drained = harness.Drain(5000);
  ASSERT_LT(drained, 5000u) << "server failed to quiesce";
  EXPECT_EQ(harness.server().registrations(), 0u);
  EXPECT_EQ(harness.server().host().outstanding(), 0u);

  const TimerServerStats& s = harness.server().stats();
  // Lost sets and lost callbacks turn later traffic stale; the server absorbs
  // it as counted misses.
  EXPECT_GT(s.restart_misses + s.cancel_misses, 0u);
  // Callbacks delivered = callbacks sent minus the channel's losses.
  EXPECT_EQ(harness.workload().stats().callbacks,
            s.fires_sent - harness.downlink().dropped());
}

TEST(TimerServerHarnessTest, TrajectoryIsIdenticalAcrossHostSchemes) {
  // Packet fates are identity-hashed and the set of cookies firing on a tick
  // is scheme-independent, so the entire run — every request, loss, callback,
  // and stale miss — must be byte-identical no matter which scheme serves the
  // timers. This is the property that makes cross-scheme server benchmarks
  // comparable.
  auto run = [](SchemeId scheme) {
    TimerServerHarness harness(HarnessConfig(scheme, /*loss=*/0.1));
    harness.Run(400);
    const TimerServerStats& s = harness.server().stats();
    const TimerWorkloadStats& w = harness.workload().stats();
    return std::make_tuple(s.sets, s.periodic_sets, s.replaced, s.restarts,
                           s.restart_misses, s.cancels, s.cancel_misses,
                           s.fires_sent, s.periodic_laps, w.callbacks,
                           harness.uplink().dropped(),
                           harness.downlink().dropped(),
                           harness.server().registrations());
  };
  const auto baseline = run(SchemeId::kScheme2SortedFront);
  EXPECT_EQ(run(SchemeId::kScheme6HashedUnsorted), baseline);
  EXPECT_EQ(run(SchemeId::kScheme7Hierarchical), baseline);
  EXPECT_EQ(run(SchemeId::kScheme3Heap), baseline);
}

TEST(TimerServerHarnessTest, PrimedPopulationScalesPastTheBatchCursor) {
  // Prime() establishes every session in one pass — the path the
  // millions-of-sessions bench uses. 100k sessions here keeps CI fast; the
  // structure (one registration per session, no in-flight storm) is the same.
  TimerServerHarnessConfig config =
      HarnessConfig(SchemeId::kScheme6HashedUnsorted, /*loss=*/0.0);
  config.workload.num_sessions = 100000;
  config.workload.requests_per_tick = 0;  // only the primed registrations
  TimerServerHarness harness(config);
  harness.Prime();
  EXPECT_EQ(harness.server().registrations(), 100000u);
  EXPECT_EQ(harness.server().host().outstanding(), 100000u);
  const Tick drained = harness.Drain(3000);
  ASSERT_LT(drained, 3000u) << "primed population failed to drain";
  EXPECT_EQ(harness.server().registrations(), 0u);
  EXPECT_EQ(harness.workload().stats().callbacks,
            harness.server().stats().fires_sent);
  EXPECT_EQ(harness.workload().believed_live(), 0u);
}

// --- Concurrent dispatch: the server on a DispatchPool ----------------------

std::unique_ptr<TimerService> ShardedHost() {
  concurrent::SubmitOptions submit;
  submit.ring_capacity = 8192;
  submit.registration_capacity = 8192;
  submit.on_full = concurrent::SubmitPolicy::kReject;
  return std::make_unique<concurrent::ShardedWheel>(4, 64, submit);
}

TEST(TimerServerPoolTest, PoolRefusedForNonShardedHost) {
  ServerRig rig;  // scheme6 host: a plain single-threaded wheel
  concurrent::DispatchOptions options;
  options.drainers = 2;
  EXPECT_FALSE(rig.server.StartDispatchPool(options));
  EXPECT_FALSE(rig.server.pool_attached());
}

TEST(TimerServerPoolTest, ManualPoolPreservesProtocolSemantics) {
  // Same rig, but the host clock is a 2-drainer manual-mode pool: Tick()
  // routes through DispatchPool::AdvanceTo, so every callback was dispatched
  // by a drainer thread. Protocol results must be identical to the
  // single-threaded path.
  sim::Simulator network(
      MakeTimerService(HostScheme(SchemeId::kScheme3Heap)));
  Channel downlink(network, /*seed=*/1,
                   ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                 .delay_hi = 1});
  TimerServer server(ShardedHost(), downlink);
  std::vector<Packet> callbacks;
  downlink.set_receiver([&](const Packet& p) { callbacks.push_back(p); });

  concurrent::DispatchOptions options;
  options.drainers = 2;
  ASSERT_TRUE(server.StartDispatchPool(options));
  EXPECT_FALSE(server.StartDispatchPool(options)) << "double attach";

  // Sessions spread across stripes: set, periodic, cancel, restart.
  server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 1, 0, 5));
  server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic, 2, 0,
                                      /*interval=*/4, /*repeat_for=*/3));
  server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 3, 0, 30));
  server.OnRequest(ServerRig::Request(PacketType::kTimerCancel, 3, 0));
  for (int i = 0; i < 20; ++i) {
    server.Tick();
    network.Step();
  }
  // Session 1 fired once at 5; session 2 lapped at 4, 8, 12; session 3 was
  // cancelled. AdvanceTo's barrier sequences drainer sends before Step().
  ASSERT_EQ(callbacks.size(), 4u);
  EXPECT_EQ(server.stats().fires_sent, 4u);
  EXPECT_EQ(server.stats().cancels, 1u);
  EXPECT_EQ(server.registrations(), 0u);
  EXPECT_EQ(server.host().outstanding(), 0u);
  server.StopDispatchPool();
  EXPECT_FALSE(server.pool_attached());
  // Detached: Tick() drives the host directly again.
  server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 4, 0, 2));
  for (int i = 0; i < 4; ++i) {
    server.Tick();
    network.Step();
  }
  EXPECT_EQ(callbacks.size(), 5u);
}

TEST(TimerServerPoolTest, TickerPoolDeliversWithoutExternalTicks) {
  // A TickerThread over the server is the clock: its catch-up chunks reach the
  // attached pool through TimerServer::AdvanceTo, so the drainers deliver
  // every callback with no Tick() from this thread. The main thread must not
  // touch the simulator while drainers may call Channel::Send (the send mutex
  // serializes senders, not Send vs Step), so callbacks are flushed after
  // Stop. fires_sent counts what the drainers handed to the channel.
  sim::Simulator network(
      MakeTimerService(HostScheme(SchemeId::kScheme3Heap)));
  Channel downlink(network, /*seed=*/1,
                   ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                 .delay_hi = 1});
  TimerServer server(ShardedHost(), downlink);
  std::vector<Packet> callbacks;
  downlink.set_receiver([&](const Packet& p) { callbacks.push_back(p); });

  concurrent::DispatchOptions options;
  options.drainers = 4;
  ASSERT_TRUE(server.StartDispatchPool(options));
  concurrent::TickerThread ticker(server, std::chrono::microseconds(50));
  constexpr std::uint32_t kSessions = 24;
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    server.OnRequest(
        ServerRig::Request(PacketType::kTimerSet, s, 0, 1 + (s % 8)));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().fires_sent < kSessions &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticker.Stop();  // the clock stops before the pool it drives
  server.StopDispatchPool();
  EXPECT_EQ(server.stats().fires_sent, kSessions);
  EXPECT_EQ(server.registrations(), 0u);
  // Flush the channel now that no drainer can touch it.
  for (int i = 0; i < 4; ++i) {
    network.Step();
  }
  EXPECT_EQ(callbacks.size(), kSessions);
}


// Every accepted set resolved exactly one way: cancelled, replaced, or
// expired on its final fire.
void ExpectEachSetResolvedOnce(const TimerServerStats& s) {
  EXPECT_EQ(s.sets + s.periodic_sets,
            s.cancels + s.replaced + (s.fires_sent - s.periodic_laps));
}

// A server on a 1-shard ShardedWheel whose two dispatch halves the test runs
// by hand, as one DispatchPool drainer would: Claim() is AdvanceShard (the
// host commits the tick's fires under its shard lock) and Deliver() is
// DispatchShard (the fires reach the server). A request sent between the two
// lands where a drainer's claim and its delivery are split by the request
// thread.
struct ClaimRaceRig {
  // `capacity` sizes the host's command ring and registration table.
  explicit ClaimRaceRig(std::size_t capacity = 64)
      : network(MakeTimerService(HostScheme(SchemeId::kScheme3Heap))),
        downlink(network, /*seed=*/1,
                 ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                               .delay_hi = 1}),
        server(MakeHost(&wheel, capacity), downlink) {
    downlink.set_receiver([this](const Packet& p) { callbacks.push_back(p); });
  }

  static std::unique_ptr<TimerService> MakeHost(
      concurrent::ShardedWheel** raw, std::size_t capacity) {
    concurrent::SubmitOptions submit;
    submit.ring_capacity = capacity;
    submit.registration_capacity = capacity;
    submit.on_full = concurrent::SubmitPolicy::kReject;
    auto host = std::make_unique<concurrent::ShardedWheel>(1, 64, submit);
    *raw = host.get();
    return host;
  }

  void Claim(Tick to) {
    ASSERT_EQ(wheel->AdvanceShard(0, to), 1u);
    wheel->CommitNow(to);
  }
  void Deliver() {
    wheel->DispatchShard(0);
    network.Step();
  }
  void AdvanceTo(Tick to) {
    server.AdvanceTo(to);
    network.Step();
  }

  sim::Simulator network;
  Channel downlink;
  concurrent::ShardedWheel* wheel = nullptr;  // owned by `server`
  TimerServer server;
  std::vector<Packet> callbacks;
};

TEST(TimerServerPoolTest, CancelAfterFinalFireIsClaimedCountsTheFire) {
  ClaimRaceRig rig;
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 7, 1, /*interval=*/1));
  rig.Claim(1);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerCancel, 7, 1));
  EXPECT_EQ(rig.server.stats().cancel_misses, 1u);  // the fire won
  rig.Deliver();
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 1u);
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.fires_sent, 1u);
  EXPECT_EQ(s.cancels, 0u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST(TimerServerPoolTest, ReplacingSetAfterFinalFireIsClaimedKeepsItsOwnFire) {
  ClaimRaceRig rig;
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 7, 1, /*interval=*/1));
  rig.Claim(1);
  // Due at tick 10. The old timer's stop misses, so nothing is replaced.
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 7, 1, /*interval=*/9));
  EXPECT_EQ(rig.server.stats().replaced, 0u);
  rig.Deliver();
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 1u);  // the old timer's fire
  EXPECT_EQ(rig.server.registrations(), 1u) << "the old fire took the new set";
  rig.AdvanceTo(10);
  ASSERT_EQ(rig.callbacks.size(), 2u);
  EXPECT_EQ(rig.callbacks[1].arg0, 10u);  // the new timer's own fire
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.sets, 2u);
  EXPECT_EQ(s.fires_sent, 2u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
}

TEST(TimerServerPoolTest, ReplaceAfterLapIsClaimedDropsTheLap) {
  ClaimRaceRig rig;
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic, 7, 1,
                                          /*interval=*/1, /*repeat_for=*/3));
  rig.Claim(1);
  // The periodic is still live after a non-final lap, so the stop commits.
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 7, 1, /*interval=*/9));
  EXPECT_EQ(rig.server.stats().replaced, 1u);
  rig.Deliver();
  EXPECT_TRUE(rig.callbacks.empty()) << "a lap of the replaced periodic arrived";
  EXPECT_EQ(rig.server.registrations(), 1u);
  rig.AdvanceTo(10);
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 10u);
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.fires_sent, 1u);
  EXPECT_EQ(s.periodic_laps, 0u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
}

TEST(TimerServerPoolTest, CancelAfterLapIsClaimedDropsTheLap) {
  ClaimRaceRig rig;
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic, 7, 1,
                                          /*interval=*/1, /*repeat_for=*/3));
  rig.Claim(1);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerCancel, 7, 1));
  EXPECT_EQ(rig.server.stats().cancels, 1u);
  rig.Deliver();
  rig.AdvanceTo(10);
  EXPECT_TRUE(rig.callbacks.empty());
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.fires_sent, 0u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

// A forever periodic whose next lap would pass the end of Tick ends at the
// fire that reached it: the host drops that lap and marks the fire last. The
// server used to count it as a lap, from its own copy of the budget, and kept
// the registration with no host timer behind it.
TEST(TimerServerTest, ForeverPeriodicEndsAtTheEndOfTick) {
  const twheel::Tick last = std::numeric_limits<twheel::Tick>::max();
  std::vector<std::unique_ptr<TimerService>> hosts;
  hosts.push_back(MakeTimerService(HostScheme(SchemeId::kScheme6HashedUnsorted)));
  concurrent::SubmitOptions submit;
  submit.on_full = concurrent::SubmitPolicy::kReject;
  hosts.push_back(std::make_unique<concurrent::ShardedWheel>(1, 64, submit));
  for (auto& host : hosts) {
    SCOPED_TRACE(host->name());
    ServerRig rig(std::move(host));
    rig.AdvanceTo(last - 10);
    rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic, 4, 2,
                                            /*interval=*/6, /*repeat_for=*/0));
    rig.Tick(9);
    ASSERT_EQ(rig.callbacks.size(), 1u);
    EXPECT_EQ(rig.callbacks[0].arg0, last - 4);
    const TimerServerStats s = rig.server.stats();
    EXPECT_EQ(s.periodic_laps, 0u);
    ExpectEachSetResolvedOnce(s);
    EXPECT_EQ(rig.server.registrations(), 0u);
    EXPECT_EQ(rig.server.host().outstanding(), 0u);
  }
}

// --- Lazy restarts: a restart that only records a deadline -----------------

// A one-shot set at tick 0 for 8 ticks, lazily restarted at tick 4 to 12; the
// ClaimRaceRig cases below then claim its check-in at tick 8.
void SetAndRestartLazily(ClaimRaceRig& rig) {
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 7, 1, /*interval=*/8));
  rig.AdvanceTo(4);
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerRestart, 7, 1, /*interval=*/8));
  ASSERT_EQ(rig.server.stats().restarts, 1u);
  ASSERT_EQ(rig.wheel->counts().restart_calls, 0u) << "the restart called the host";
}

TEST(TimerServerPoolTest, CancelAfterCheckInIsClaimedCancels) {
  ClaimRaceRig rig;
  SetAndRestartLazily(rig);
  rig.Claim(8);
  // The claimed fire is a check-in; the timer is due at 12, so the cancel
  // wins although the host's StopTimer misses.
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerCancel, 7, 1));
  EXPECT_EQ(rig.server.stats().cancels, 1u);
  rig.Deliver();
  rig.AdvanceTo(20);
  EXPECT_TRUE(rig.callbacks.empty());
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.cancel_misses, 0u);
  EXPECT_EQ(s.fires_sent, 0u);
  EXPECT_EQ(s.checkins, 0u) << "a dropped check-in was counted";
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST(TimerServerPoolTest, ReplacingSetAfterCheckInIsClaimedReplaces) {
  ClaimRaceRig rig;
  SetAndRestartLazily(rig);
  rig.Claim(8);
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 7, 1, /*interval=*/3));
  EXPECT_EQ(rig.server.stats().replaced, 1u);
  rig.Deliver();
  EXPECT_TRUE(rig.callbacks.empty()) << "the claimed check-in fired";
  rig.AdvanceTo(20);
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 11u);  // the new timer's own fire
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.sets, 2u);
  EXPECT_EQ(s.fires_sent, 1u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST(TimerServerPoolTest, LaterRestartAfterCheckInIsClaimedMovesTheFire) {
  ClaimRaceRig rig;
  SetAndRestartLazily(rig);
  rig.Claim(8);
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerRestart, 7, 1, /*interval=*/8));
  rig.Deliver();  // the check-in re-arms at 16, not at 12
  EXPECT_TRUE(rig.callbacks.empty());
  rig.AdvanceTo(15);
  EXPECT_TRUE(rig.callbacks.empty()) << "fired at a superseded deadline";
  rig.AdvanceTo(20);
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 16u);
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.restarts, 2u);
  EXPECT_EQ(s.checkins, 1u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST(TimerServerPoolTest, EarlierRestartAfterCheckInIsClaimedMovesTheFire) {
  ClaimRaceRig rig;
  SetAndRestartLazily(rig);
  rig.Claim(8);
  // Due at 10, before the recorded 12: the host call misses on the claimed
  // check-in, and the restart resolves against the recorded deadline.
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerRestart, 7, 1, /*interval=*/2));
  EXPECT_EQ(rig.server.stats().restarts, 2u);
  EXPECT_EQ(rig.server.stats().restart_misses, 0u);
  rig.Deliver();
  rig.AdvanceTo(20);
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 10u);
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.checkins, 1u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST(TimerServerPoolTest, CancelAfterClaimedCheckInsDeadlinePassedSendsTheFire) {
  ClaimRaceRig rig;
  SetAndRestartLazily(rig);
  rig.Claim(8);
  // The host's clock reaches the recorded deadline before the check-in is
  // delivered: the fire wins, and the cancel that finds it sends it.
  EXPECT_EQ(rig.wheel->AdvanceShard(0, 12), 0u);
  rig.wheel->CommitNow(12);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerCancel, 7, 1));
  EXPECT_EQ(rig.server.stats().cancel_misses, 1u);
  rig.Deliver();
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 12u);
  rig.AdvanceTo(20);
  EXPECT_EQ(rig.callbacks.size(), 1u) << "the dropped check-in fired too";
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.cancels, 0u);
  EXPECT_EQ(s.fires_sent, 1u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST(TimerServerPoolTest, RefusedCheckInReArmDropsTheTimer) {
  ClaimRaceRig rig(/*capacity=*/2);
  SetAndRestartLazily(rig);
  rig.Claim(8);  // frees the timer's host entry
  // Two more sets take both host entries and both ring cells, so the
  // check-in's re-arm finds no room.
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 8, 1, /*interval=*/4));
  rig.server.OnRequest(
      ServerRig::Request(PacketType::kTimerSet, 9, 1, /*interval=*/4));
  rig.Deliver();
  TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.checkins, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(rig.server.registrations(), 2u) << "the refused timer stayed registered";
  rig.AdvanceTo(20);
  ASSERT_EQ(rig.callbacks.size(), 2u);  // only the two later sets fire
  for (const Packet& fire : rig.callbacks) {
    EXPECT_NE(fire.connection_id, 7u);
  }
  // The resolution law with a refused check-in: it ends the set it belongs to.
  s = rig.server.stats();
  EXPECT_EQ(s.sets, s.cancels + s.replaced + (s.fires_sent - s.periodic_laps) + 1);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST(TimerServerPoolTest, ConcurrentRequestsConserveEveryRegistration) {
  // A TickerThread drives a 4-drainer pool while this thread sends sets,
  // periodic sets, restarts and cancels over 256 sessions with short
  // intervals, so fires are claimed and delivered around the requests all
  // the time. A second thread polls the counters and the table size. Once
  // everything drained, each accepted set resolved exactly once.
  sim::Simulator network(
      MakeTimerService(HostScheme(SchemeId::kScheme3Heap)));
  Channel downlink(network, /*seed=*/1,
                   ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                 .delay_hi = 1});
  TimerServer server(ShardedHost(), downlink);
  std::size_t delivered = 0;
  downlink.set_receiver([&](const Packet&) { ++delivered; });

  concurrent::DispatchOptions options;
  options.drainers = 4;
  ASSERT_TRUE(server.StartDispatchPool(options));
  concurrent::TickerThread ticker(server, std::chrono::microseconds(50));

  std::atomic<bool> done{false};
  bool counters_monotone = true;
  std::thread poller([&] {
    TimerServerStats last;
    while (!done.load(std::memory_order_acquire)) {
      const TimerServerStats now = server.stats();
      (void)server.registrations();
      if (now.fires_sent < last.fires_sent || now.sets < last.sets ||
          now.cancels < last.cancels || now.restarts < last.restarts) {
        counters_monotone = false;
      }
      last = now;
      std::this_thread::yield();
    }
  });

  constexpr std::uint32_t kSessions = 256;
  rng::Xoshiro256 rng(17);
  for (int i = 0; i < 20000; ++i) {
    const auto session = static_cast<std::uint32_t>(rng.NextBounded(kSessions));
    const std::uint64_t timer = rng.NextBounded(2);
    const std::uint64_t interval = 1 + rng.NextBounded(6);
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2:
        server.OnRequest(ServerRig::Request(PacketType::kTimerSet, session,
                                            timer, interval));
        break;
      case 3:
        server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic,
                                            session, timer, interval,
                                            /*repeat_for=*/1 + rng.NextBounded(4)));
        break;
      case 4:
      case 5:
      case 6:
        server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, session,
                                            timer, interval));
        break;
      default:
        server.OnRequest(
            ServerRig::Request(PacketType::kTimerCancel, session, timer));
        break;
    }
    if (i % 64 == 0) {
      std::this_thread::yield();
    }
  }
  // Every timer left has a bounded budget, so the ticker drains them all.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.registrations() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticker.Stop();
  server.StopDispatchPool();  // delivers every fire already claimed
  done.store(true, std::memory_order_release);
  poller.join();

  const TimerServerStats s = server.stats();
  EXPECT_TRUE(counters_monotone);
  EXPECT_EQ(server.registrations(), 0u);
  EXPECT_EQ(server.host().outstanding(), 0u);
  EXPECT_GT(s.fires_sent, 0u);
  EXPECT_GT(s.cancels + s.replaced, 0u);
  ExpectEachSetResolvedOnce(s);
  // No drainer can touch the channel now; every fire sent reaches the client.
  for (int i = 0; i < 4; ++i) {
    network.Step();
  }
  EXPECT_EQ(delivered, s.fires_sent);
}

// The host kinds a lazy restart must behave the same on: list-, heap-, wheel-
// and hierarchy-based schemes, whose handlers run at the fire's tick inside a
// batched advance, and a ShardedWheel, which claims a whole batch first and
// dispatches it after the advance.
struct LazyHostCase {
  const char* label;
  std::unique_ptr<TimerService> (*make)();
};
inline void PrintTo(const LazyHostCase& c, std::ostream* os) { *os << c.label; }

std::vector<LazyHostCase> LazyHostCases() {
  return {
      {"scheme2",
       [] { return MakeTimerService(HostScheme(SchemeId::kScheme2SortedFront)); }},
      {"scheme3", [] { return MakeTimerService(HostScheme(SchemeId::kScheme3Heap)); }},
      {"scheme6",
       [] { return MakeTimerService(HostScheme(SchemeId::kScheme6HashedUnsorted)); }},
      {"scheme7",
       [] { return MakeTimerService(HostScheme(SchemeId::kScheme7Hierarchical)); }},
      {"sharded", &ShardedHost},
  };
}

class LazyRestartTest : public ::testing::TestWithParam<LazyHostCase> {};

TEST_P(LazyRestartTest, FiresAtTheLastDeadlineUnderTick) {
  ServerRig rig(GetParam().make());
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 3, 0, /*interval=*/10));
  rig.Tick(4);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, 3, 0, /*interval=*/10));
  rig.Tick(3);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, 3, 0, /*interval=*/10));
  EXPECT_EQ(rig.server.stats().restarts, 2u);
  EXPECT_EQ(rig.server.host().counts().restart_calls, 0u) << "a restart called the host";
  rig.Tick(3);  // tick 10: the host timer checks in and re-arms for 17
  EXPECT_TRUE(rig.callbacks.empty());
  EXPECT_EQ(rig.server.stats().checkins, 1u);
  rig.Tick(6);
  EXPECT_TRUE(rig.callbacks.empty()) << "fired before the last deadline";
  rig.Tick(1);
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 17u);
  rig.Tick(30);
  EXPECT_EQ(rig.callbacks.size(), 1u);
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.checkins, 1u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST_P(LazyRestartTest, FiresAtTheLastDeadlineUnderOneAdvance) {
  ServerRig rig(GetParam().make());
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 3, 0, /*interval=*/10));
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 4, 0, /*interval=*/12));
  rig.Tick(4);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, 3, 0, /*interval=*/10));
  // One advance crosses the check-in at 10, the other timer at 12 and the
  // recorded deadline at 14.
  rig.AdvanceTo(20);
  ASSERT_EQ(rig.callbacks.size(), 2u);
  for (const Packet& fire : rig.callbacks) {
    EXPECT_EQ(fire.arg0, fire.connection_id == 3 ? 14u : 12u);
  }
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.checkins, 1u);
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
  EXPECT_EQ(rig.server.host().outstanding(), 0u);
}

TEST_P(LazyRestartTest, EarlierLongerAndPeriodicRestartsStayEager) {
  ServerRig rig(GetParam().make());
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 1, 0, /*interval=*/20));
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 2, 0, /*interval=*/5));
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSetPeriodic, 3, 0,
                                          /*interval=*/6, /*repeat_for=*/2));
  rig.Tick(2);
  // Earlier than the recorded 20, longer than the accepted 5, and a periodic:
  // each moves the host timer.
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, 1, 0, /*interval=*/5));
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, 2, 0, /*interval=*/8));
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, 3, 0, /*interval=*/4));
  EXPECT_EQ(rig.server.host().counts().restart_calls, 3u);
  // The eager restart raised what the host accepted for session 2 to 8, so a
  // restart by 8 is lazy now.
  rig.Tick(1);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, 2, 0, /*interval=*/8));
  EXPECT_EQ(rig.server.host().counts().restart_calls, 3u);
  rig.AdvanceTo(30);
  ASSERT_EQ(rig.callbacks.size(), 4u);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> fires;
  for (const Packet& fire : rig.callbacks) {
    fires.emplace_back(fire.connection_id, fire.arg0);
  }
  std::sort(fires.begin(), fires.end());
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> expected = {
      {1, 7}, {2, 11}, {3, 6}, {3, 12}};
  EXPECT_EQ(fires, expected);
  const TimerServerStats s = rig.server.stats();
  EXPECT_EQ(s.restarts, 4u);
  EXPECT_EQ(s.checkins, 1u);  // session 2's host timer at 10
  ExpectEachSetResolvedOnce(s);
  EXPECT_EQ(rig.server.registrations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Hosts, LazyRestartTest, ::testing::ValuesIn(LazyHostCases()),
                         [](const auto& param_info) { return param_info.param.label; });

TEST(LazyRestartRangeTest, RestartPastTheHostsRangeStaysEager) {
  // Scheme 7 over 16x16x16 slots takes intervals up to 3840. A restart past
  // that is refused by the host and leaves the timer at its old deadline; a
  // lazy path would have recorded it and failed at the check-in.
  ServerRig rig(SchemeId::kScheme7Hierarchical);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerSet, 5, 0, /*interval=*/3000));
  rig.Tick(10);
  rig.server.OnRequest(ServerRig::Request(PacketType::kTimerRestart, 5, 0, /*interval=*/5000));
  EXPECT_EQ(rig.server.stats().restart_misses, 1u);
  rig.AdvanceTo(3000);
  ASSERT_EQ(rig.callbacks.size(), 1u);
  EXPECT_EQ(rig.callbacks[0].arg0, 3000u);
  EXPECT_EQ(rig.server.stats().checkins, 0u);
}

}  // namespace
}  // namespace twheel::net
