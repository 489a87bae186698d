// Wire-decode robustness (ISSUE satellite): EncodePacket/DecodePacket
// roundtrip for every packet type in the registry — timer-server and cluster
// replication alike — and the strict-reject paths: every truncation, a
// trailing-garbage oversize, out-of-range type bytes, null buffers, and
// seeded random garbage. Run under ASan/UBSan this is the proof that a
// malformed buffer can never make the decode path read out of bounds; the
// TimerServer::OnWire case extends the same guarantee through the server's
// byte-transport entry point (counted in stats().decode_rejects).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/core/timer_facility.h"
#include "src/net/channel.h"
#include "src/net/timer_server.h"
#include "src/net/wire.h"
#include "src/rng/rng.h"
#include "src/sim/simulator.h"

namespace twheel::net {
namespace {

Packet MakePacket(PacketType type, std::uint64_t salt) {
  Packet p;
  p.connection_id = static_cast<std::uint32_t>(0xC0FFEE00u + salt);
  p.seq = 0x0123456789ABCDEFULL ^ (salt * 0x9E3779B97F4A7C15ULL);
  p.type = type;
  p.arg0 = ~salt;
  p.arg1 = salt << 17;
  return p;
}

TEST(WireTest, RoundtripsEveryPacketType) {
  for (std::uint8_t t = 0; t < kPacketTypeCount; ++t) {
    const Packet in = MakePacket(static_cast<PacketType>(t), t);
    const auto bytes = EncodePacket(in);
    const std::optional<Packet> out = DecodePacket(bytes.data(), bytes.size());
    ASSERT_TRUE(out.has_value()) << "type byte " << int{t};
    EXPECT_EQ(out->connection_id, in.connection_id);
    EXPECT_EQ(out->seq, in.seq);
    EXPECT_EQ(out->type, in.type);
    EXPECT_EQ(out->arg0, in.arg0);
    EXPECT_EQ(out->arg1, in.arg1);
  }
}

TEST(WireTest, ByteLayoutIsFixedLittleEndian) {
  // A hand-written packet with a distinct value in every byte, so a wrong
  // offset or byte order in either direction shows. Round-trip tests alone
  // would pass if encode and decode shared the same mistake.
  constexpr auto kType = static_cast<std::uint8_t>(PacketType::kTimerRestart);
  const std::array<std::uint8_t, kWirePacketSize> bytes = {
      0x40, 0x41, 0x42, 0x43,                          // connection_id @0
      0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57,  // seq @4
      kType,                                           // type @12
      0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67,  // arg0 @13
      0x70, 0x71, 0x72, 0x73, 0x74, 0x75, 0x76, 0x77,  // arg1 @21
  };
  const std::optional<Packet> packet = DecodePacket(bytes.data(), bytes.size());
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->connection_id, 0x43424140u);
  EXPECT_EQ(packet->seq, 0x5756555453525150ull);
  EXPECT_EQ(packet->type, PacketType::kTimerRestart);
  EXPECT_EQ(packet->arg0, 0x6766656463626160ull);
  EXPECT_EQ(packet->arg1, 0x7776757473727170ull);
  EXPECT_EQ(EncodePacket(*packet), bytes);
}

TEST(WireTest, EveryTruncationIsRejected) {
  const auto bytes = EncodePacket(MakePacket(PacketType::kClusterArm, 1));
  for (std::size_t size = 0; size < kWirePacketSize; ++size) {
    EXPECT_FALSE(DecodePacket(bytes.data(), size).has_value())
        << "accepted a " << size << "-byte prefix";
  }
}

TEST(WireTest, TrailingGarbageIsRejected) {
  // One well-formed packet followed by extra bytes is NOT one packet.
  const auto bytes = EncodePacket(MakePacket(PacketType::kTimerSet, 2));
  std::vector<std::uint8_t> padded(bytes.begin(), bytes.end());
  padded.push_back(0xAB);
  EXPECT_FALSE(DecodePacket(padded.data(), padded.size()).has_value());
  padded.resize(2 * kWirePacketSize, 0x55);
  EXPECT_FALSE(DecodePacket(padded.data(), padded.size()).has_value());
}

TEST(WireTest, OutOfRangeTypeBytesAreRejected) {
  auto bytes = EncodePacket(MakePacket(PacketType::kData, 3));
  for (unsigned t = kPacketTypeCount; t <= 0xFF; ++t) {
    bytes[12] = static_cast<std::uint8_t>(t);
    EXPECT_FALSE(DecodePacket(bytes.data(), bytes.size()).has_value())
        << "accepted type byte " << t;
  }
}

TEST(WireTest, NullBufferIsRejected) {
  EXPECT_FALSE(DecodePacket(nullptr, 0).has_value());
  EXPECT_FALSE(DecodePacket(nullptr, kWirePacketSize).has_value());
}

TEST(WireTest, SeededGarbageNeverTripsTheDecoder) {
  // 4096 random buffers at random sizes around the packet size: each either
  // decodes to an in-range packet (exact size, lucky type byte) or returns
  // nullopt. Under ASan/UBSan this doubles as an out-of-bounds probe: the
  // buffer is heap-sized exactly, so any stray read past `size` traps.
  rng::Xoshiro256 rng(0x817EDECull);
  std::uint64_t decoded = 0;
  for (int round = 0; round < 4096; ++round) {
    const std::size_t size = rng.NextBounded(kWirePacketSize + 4);
    std::vector<std::uint8_t> buffer(size);
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.Next());
    }
    const std::optional<Packet> out = DecodePacket(buffer.data(), size);
    if (out.has_value()) {
      ++decoded;
      ASSERT_EQ(size, kWirePacketSize);
      ASSERT_LT(static_cast<std::uint8_t>(out->type), kPacketTypeCount);
    }
  }
  // Exact-size buffers are 1 in (kWirePacketSize + 4) and the type byte
  // passes ~22/256 of the time; a handful of decodes is expected, thousands
  // would mean the strictness checks fell off.
  EXPECT_LT(decoded, 64u);
}

TEST(WireTest, ServerOnWireCountsRejectsAndStaysAlive) {
  FacilityConfig host_config;
  host_config.scheme = SchemeId::kScheme6HashedUnsorted;
  auto network = std::make_unique<sim::Simulator>(
      MakeTimerService([] {
        FacilityConfig c;
        c.scheme = SchemeId::kScheme3Heap;
        return c;
      }()));
  Channel downlink(*network, /*seed=*/1,
                   ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                 .delay_hi = 1});
  std::vector<Packet> callbacks;
  downlink.set_receiver([&callbacks](const Packet& p) {
    callbacks.push_back(p);
  });
  TimerServer server(MakeTimerService(host_config), downlink);

  // Garbage first: truncations, oversize, bad type byte.
  const auto good = EncodePacket([] {
    Packet p;
    p.connection_id = 9;
    p.seq = 1;
    p.type = PacketType::kTimerSet;
    p.arg0 = 3;  // interval
    return p;
  }());
  EXPECT_FALSE(server.OnWire(good.data(), kWirePacketSize - 1));
  EXPECT_FALSE(server.OnWire(nullptr, 0));
  std::vector<std::uint8_t> oversize(good.begin(), good.end());
  oversize.push_back(0);
  EXPECT_FALSE(server.OnWire(oversize.data(), oversize.size()));
  auto bad_type = good;
  bad_type[12] = kPacketTypeCount;
  EXPECT_FALSE(server.OnWire(bad_type.data(), bad_type.size()));
  EXPECT_EQ(server.stats().decode_rejects, 4u);
  EXPECT_EQ(server.stats().sets, 0u) << "a rejected buffer reached dispatch";

  // The same server still serves well-formed traffic afterwards.
  EXPECT_TRUE(server.OnWire(good.data(), good.size()));
  for (int t = 0; t < 6; ++t) {
    server.Tick();
    network->Step();
  }
  EXPECT_EQ(server.stats().sets, 1u);
  EXPECT_EQ(server.stats().fires_sent, 1u);
  ASSERT_EQ(callbacks.size(), 1u);
  EXPECT_EQ(callbacks[0].type, PacketType::kTimerFire);
  EXPECT_EQ(callbacks[0].seq, 1u);
}

// One kTimerSet whose deadline would pass the end of Tick, on the wire into
// the e2e stack's sharded host: the host refuses it, the server counts it in
// stats().rejected, keeps no registration and never calls back.
TEST(WireTest, ServerRefusesDeadlinePastTheEndOfTick) {
  auto network = std::make_unique<sim::Simulator>(
      MakeTimerService([] {
        FacilityConfig c;
        c.scheme = SchemeId::kScheme3Heap;
        return c;
      }()));
  Channel downlink(*network, /*seed=*/1,
                   ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                 .delay_hi = 1});
  std::vector<Packet> callbacks;
  downlink.set_receiver([&callbacks](const Packet& p) {
    callbacks.push_back(p);
  });
  TimerServer server(
      std::make_unique<concurrent::ShardedWheel>(4, 64, concurrent::SubmitOptions{}),
      downlink);
  server.Tick();  // from tick 1 on, now + (2^64 - 1) wraps
  network->Step();
  Packet set;
  set.connection_id = 9;
  set.seq = 1;
  set.type = PacketType::kTimerSet;
  set.arg0 = std::numeric_limits<std::uint64_t>::max();
  const auto wire = EncodePacket(set);
  EXPECT_TRUE(server.OnWire(wire.data(), wire.size()));
  for (int t = 0; t < 5; ++t) {
    server.Tick();
    network->Step();
  }
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().sets, 0u);
  EXPECT_EQ(server.registrations(), 0u);
  EXPECT_TRUE(callbacks.empty());
}

}  // namespace
}  // namespace twheel::net
