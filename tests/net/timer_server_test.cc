// The networked timer server: protocol semantics over scripted packets, the
// lossless end-to-end conservation law, loss tolerance, cross-scheme
// determinism, and the primed large-population path.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/concurrent/ticker.h"
#include "src/core/timer_facility.h"
#include "src/net/timer_server.h"
#include "src/net/timer_workload.h"

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
      : network(std::make_unique<sim::Simulator>(
            MakeTimerService(HostScheme(SchemeId::kScheme3Heap)))),
        downlink(*network, /*seed=*/1,
                 ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                               .delay_hi = 1}),
        server(MakeTimerService(HostScheme(scheme)), downlink) {
    downlink.set_receiver(
        [this](const Packet& p) { callbacks.push_back(p); });
  }

  void Tick(int n = 1) {
    for (int i = 0; i < n; ++i) {
      server.Tick();
      network->Step();
    }
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

}  // namespace
}  // namespace twheel::net
