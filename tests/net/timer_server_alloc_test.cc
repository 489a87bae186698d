// TimerServer's request path makes no heap allocation once warm. This binary
// replaces the global allocation functions with counting forwards to malloc
// and free, so the count covers every operator new the server, the wire
// decode and the host scheme make while a round of requests goes through
// OnWire.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/core/timer_facility.h"
#include "src/net/channel.h"
#include "src/net/timer_server.h"
#include "src/net/wire.h"
#include "src/sim/simulator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) {
    size = 1;
  }
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace twheel::net {
namespace {

std::array<std::uint8_t, kWirePacketSize> Encoded(PacketType type,
                                                  std::uint32_t session,
                                                  std::uint64_t arg0) {
  Packet p;
  p.connection_id = session;
  p.seq = 0;
  p.type = type;
  p.arg0 = arg0;
  return EncodePacket(p);
}

TEST(TimerServerAllocTest, WarmRequestRoundAllocatesNothing) {
  FacilityConfig network_clock;
  network_clock.scheme = SchemeId::kScheme3Heap;
  sim::Simulator network(MakeTimerService(network_clock));
  Channel downlink(network, /*seed=*/1,
                   ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                 .delay_hi = 1});
  FacilityConfig host;
  host.scheme = SchemeId::kScheme6HashedUnsorted;
  host.wheel_size = 256;
  TimerServer server(MakeTimerService(host), downlink);

  // One round: set every session's timer, replace it with a duplicate set,
  // restart it, cancel it. The round leaves the server empty.
  constexpr std::uint32_t kSessions = 512;
  std::vector<std::array<std::uint8_t, kWirePacketSize>> round;
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    round.push_back(Encoded(PacketType::kTimerSet, s, 100));
  }
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    round.push_back(Encoded(PacketType::kTimerSet, s, 50));
  }
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    round.push_back(Encoded(PacketType::kTimerRestart, s, 30));
  }
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    round.push_back(Encoded(PacketType::kTimerCancel, s, 0));
  }
  std::size_t decoded = 0;
  const auto send_round = [&] {
    for (const auto& bytes : round) {
      decoded += server.OnWire(bytes.data(), bytes.size()) ? 1 : 0;
    }
  };

  send_round();  // warm-up: the session table and the host's arena grow
  const TimerServerStats before = server.stats();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  send_round();
  g_counting.store(false, std::memory_order_relaxed);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(decoded, 2 * round.size());
  const TimerServerStats after = server.stats();
  EXPECT_EQ(after.sets - before.sets, 2 * kSessions);
  EXPECT_EQ(after.replaced - before.replaced, kSessions);
  EXPECT_EQ(after.restarts - before.restarts, kSessions);
  EXPECT_EQ(after.cancels - before.cancels, kSessions);
  EXPECT_EQ(server.registrations(), 0u);
  EXPECT_EQ(allocations, 0u) << "heap allocations in " << round.size()
                             << " warm requests";
}

TEST(TimerServerAllocTest, WarmShardedTicksWithCheckInsAllocateNothing) {
  // The benchmark's server shape: a 2-shard ShardedWheel of 1024 slots with
  // rings and tables of 2048 under kReject, and a lossless one-tick reply
  // channel. Every session's timer is restarted lazily every 8 ticks, so its
  // host timer checks in and re-arms every 64 ticks or so; every 16th session
  // is never restarted, fires, and is set again by the reply's receiver.
  FacilityConfig network_clock;
  network_clock.scheme = SchemeId::kScheme3Heap;
  sim::Simulator network(MakeTimerService(network_clock));
  Channel downlink(network, /*seed=*/1,
                   ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                 .delay_hi = 1});
  concurrent::SubmitOptions submit;
  submit.ring_capacity = 2048;
  submit.registration_capacity = 2048;
  submit.on_full = concurrent::SubmitPolicy::kReject;
  TimerServer server(std::make_unique<concurrent::ShardedWheel>(2, 1024, submit),
                     downlink);

  constexpr std::uint32_t kSessions = 1024;
  constexpr std::uint64_t kInterval = 64;
  std::uint64_t fires = 0;
  downlink.set_receiver([&](const Packet& fire) {
    ++fires;
    const auto set = Encoded(PacketType::kTimerSet, fire.connection_id, kInterval);
    server.OnWire(set.data(), set.size());
  });
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    const auto set = Encoded(PacketType::kTimerSet, s, kInterval);
    server.OnWire(set.data(), set.size());
  }
  std::uint64_t tick = 0;
  const auto run_ticks = [&](int ticks) {
    for (int i = 0; i < ticks; ++i, ++tick) {
      for (std::uint32_t s = static_cast<std::uint32_t>(tick % 8); s < kSessions; s += 8) {
        if (s % 16 != 15) {
          const auto restart = Encoded(PacketType::kTimerRestart, s, kInterval);
          server.OnWire(restart.data(), restart.size());
        }
      }
      server.Tick();
      network.Step();
    }
  };

  run_ticks(1000);  // warm-up: tables, arenas, rings and batch buffers grow
  const TimerServerStats before = server.stats();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  run_ticks(1000);
  g_counting.store(false, std::memory_order_relaxed);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);

  const TimerServerStats after = server.stats();
  EXPECT_GT(after.checkins - before.checkins, 10000u);
  EXPECT_GT(after.fires_sent - before.fires_sent, 500u);
  EXPECT_EQ(after.rejected + after.restart_misses, 0u);
  EXPECT_EQ(fires, after.fires_sent);
  EXPECT_EQ(allocations, 0u) << "heap allocations in 1000 warm ticks";
}

}  // namespace
}  // namespace twheel::net
