// Channel-level tests: packet-identity hashing (order insensitivity), loss-rate
// statistics, delay bounds, packet accounting, pinned packet fates, and the
// network clock's same-tick delivery order.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/timer_facility.h"
#include "src/net/channel.h"

namespace twheel::net {
namespace {

std::unique_ptr<sim::Simulator> MakeNetSim() {
  FacilityConfig config;
  config.scheme = SchemeId::kScheme3Heap;
  return std::make_unique<sim::Simulator>(MakeTimerService(config));
}

TEST(ChannelTest, DeliversWithinConfiguredDelayWindow) {
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.0;
  config.delay_lo = 3;
  config.delay_hi = 9;
  Channel channel(*network, 1, config);
  std::vector<Tick> deliveries;
  channel.set_receiver([&](const Packet&) { deliveries.push_back(network->now()); });

  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    channel.Send(Packet{0, seq, PacketType::kData});
  }
  network->RunUntilIdle();
  ASSERT_EQ(deliveries.size(), 500u);
  for (Tick t : deliveries) {
    EXPECT_GE(t, 3u);
    EXPECT_LE(t, 9u);
  }
  EXPECT_EQ(channel.dropped(), 0u);
  EXPECT_EQ(channel.delivered(), 500u);
}

TEST(ChannelTest, LossRateMatchesConfiguration) {
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.25;
  Channel channel(*network, 2, config);
  channel.set_receiver([](const Packet&) {});
  constexpr std::uint64_t kPackets = 40000;
  for (std::uint64_t seq = 0; seq < kPackets; ++seq) {
    channel.Send(Packet{static_cast<std::uint32_t>(seq % 64), seq, PacketType::kData});
    network->Step();
  }
  network->RunUntilIdle();
  double loss = static_cast<double>(channel.dropped()) / kPackets;
  EXPECT_NEAR(loss, 0.25, 0.01);
}

TEST(ChannelTest, PacketFateIsIdentityDetermined) {
  // The same packet sent at the same tick meets the same fate regardless of what
  // else happened first — the property that makes cross-scheme runs comparable.
  auto run = [](bool send_noise_first) {
    auto network = MakeNetSim();
    ChannelConfig config;
    config.loss_probability = 0.5;
    Channel channel(*network, 3, config);
    std::vector<std::uint64_t> delivered;
    channel.set_receiver([&](const Packet& p) { delivered.push_back(p.seq); });
    if (send_noise_first) {
      for (std::uint64_t seq = 1000; seq < 1050; ++seq) {
        channel.Send(Packet{9, seq, PacketType::kAck});
      }
    }
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
      channel.Send(Packet{1, seq, PacketType::kData});
    }
    network->RunUntilIdle();
    std::vector<bool> fate(200, false);
    for (std::uint64_t seq : delivered) {
      if (seq < 200) {
        fate[seq] = true;
      }
    }
    return fate;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ChannelTest, RetransmissionsGetIndependentFates) {
  // The same (conn, seq, type) sent at different ticks hashes differently: a lost
  // first attempt does not doom the retry.
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.5;
  Channel channel(*network, 4, config);
  channel.set_receiver([](const Packet&) {});
  std::uint64_t flips = 0;
  bool last = false;
  for (Tick t = 0; t < 2000; ++t) {
    std::uint64_t before = channel.dropped();
    channel.Send(Packet{1, 42, PacketType::kData});  // identical packet each tick
    bool dropped_now = channel.dropped() > before;
    if (t > 0 && dropped_now != last) {
      ++flips;
    }
    last = dropped_now;
    network->Step();
  }
  // With independent 50/50 fates, ~1000 flips; identical fates would give 0.
  EXPECT_GT(flips, 800u);
}

TEST(ChannelTest, HighSequenceNumbersDoNotAliasConnectionFates) {
  // Regression for the fingerprint packing bug. The old fingerprint packed
  // fields by shift-and-xor — `connection_id << 48` over `seq << 16` — so
  // seq bits [32, 48) landed exactly on the connection bits: packet
  // {conn, (hi << 32) | low} and packet {conn ^ hi, low} produced the SAME
  // fingerprint when sent at the same tick, and every long-lived flow past
  // seq 2^32 shared loss/delay fates with some other connection. The mixed
  // fingerprint must give such constructed pairs independent fates.
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.5;
  Channel channel(*network, 5, config);
  channel.set_receiver([](const Packet&) {});

  constexpr std::uint32_t kConn = 7;
  constexpr int kPairs = 1000;
  int divergent = 0;
  for (int i = 0; i < kPairs; ++i) {
    // Both packets of a pair go out on the same tick, like the old collision.
    const std::uint64_t hi = static_cast<std::uint64_t>(i + 1) & 0xFFFF;
    const std::uint64_t low = static_cast<std::uint64_t>(i);
    std::uint64_t before = channel.dropped();
    channel.Send(Packet{kConn, (hi << 32) | low, PacketType::kData});
    const bool first_dropped = channel.dropped() > before;
    before = channel.dropped();
    channel.Send(Packet{kConn ^ static_cast<std::uint32_t>(hi), low,
                        PacketType::kData});
    const bool second_dropped = channel.dropped() > before;
    divergent += first_dropped != second_dropped ? 1 : 0;
    network->Step();
  }
  // Independent 50/50 fates diverge on ~half the pairs; the aliasing
  // fingerprint gave exactly 0 divergent pairs.
  EXPECT_GT(divergent, kPairs / 3);
  network->RunUntilIdle();
}

TEST(ChannelTest, CounterSnapshotsAreRaceFreeUnderConcurrentReaders) {
  // Regression for the counter data race (ISSUE satellite): sent_/dropped_/
  // delivered_ used to be plain words, so a monitor thread snapshotting them
  // while the simulation thread transmitted was undefined behaviour — TSan
  // flagged it, and torn 32-bit halves were possible on some targets. The
  // counters are relaxed atomics now; this test recreates exactly that shape
  // (one sender driving Send/Step, two monitor threads hammering the
  // accessors) so a TSan build of the `cluster` suite re-proves it on every
  // run. The monitors also check the only cross-counter invariant relaxed
  // ordering still guarantees per observer: each counter is monotone.
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.3;
  Channel channel(*network, 11, config);
  channel.set_receiver([](const Packet&) {});

  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  auto monitor = [&] {
    std::uint64_t last_sent = 0, last_dropped = 0, last_delivered = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t sent = channel.sent();
      const std::uint64_t dropped = channel.dropped();
      const std::uint64_t delivered = channel.delivered();
      if (sent < last_sent || dropped < last_dropped ||
          delivered < last_delivered) {
        monotone.store(false, std::memory_order_relaxed);
      }
      last_sent = sent;
      last_dropped = dropped;
      last_delivered = delivered;
    }
  };
  std::thread reader_a(monitor);
  std::thread reader_b(monitor);
  for (std::uint64_t seq = 0; seq < 20000; ++seq) {
    channel.Send(Packet{1, seq, PacketType::kData});
    if ((seq & 7) == 0) {
      network->Step();
    }
  }
  network->RunUntilIdle();
  done.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();

  EXPECT_TRUE(monotone.load()) << "a monitor observed a counter run backwards";
  EXPECT_EQ(channel.sent(), 20000u);
  EXPECT_EQ(channel.sent(), channel.dropped() + channel.delivered());
  EXPECT_GT(channel.dropped(), 0u);
  EXPECT_GT(channel.delivered(), 0u);
}

TEST(ChannelTest, DifferentSeedsDifferentFates) {
  auto run = [](std::uint64_t seed) {
    auto network = MakeNetSim();
    ChannelConfig config;
    config.loss_probability = 0.5;
    Channel channel(*network, seed, config);
    channel.set_receiver([](const Packet&) {});
    for (std::uint64_t seq = 0; seq < 256; ++seq) {
      channel.Send(Packet{1, seq, PacketType::kData});
    }
    return channel.dropped();
  };
  EXPECT_NE(run(1001), run(1002));
}

TEST(ChannelTest, DegenerateDelayWindowsAreClamped) {
  // Regressions. delay_lo = 0 was handed to the clock, which refuses a zero
  // interval, so the packet was counted as sent but never as dropped or
  // delivered (65 of these 100 arrived). delay_hi < delay_lo wrapped the
  // unsigned spread into huge delays. Channel now clamps the window to
  // [max(lo, 1), max(hi, lo)].
  struct Case {
    Duration lo, hi, want_lo, want_hi;
  };
  for (const Case& c : {Case{0, 2, 1, 2}, Case{5, 2, 5, 5}}) {
    auto network = MakeNetSim();
    ChannelConfig config;
    config.loss_probability = 0.0;
    config.delay_lo = c.lo;
    config.delay_hi = c.hi;
    Channel channel(*network, 6, config);
    std::vector<Tick> deliveries;
    channel.set_receiver([&](const Packet&) { deliveries.push_back(network->now()); });
    for (std::uint64_t seq = 0; seq < 100; ++seq) {
      channel.Send(Packet{0, seq, PacketType::kData});
    }
    network->RunUntilIdle(100);
    EXPECT_EQ(network->pending(), 0u) << "delay " << c.lo << ".." << c.hi;
    EXPECT_EQ(channel.dropped(), 0u);
    EXPECT_EQ(channel.sent(), channel.delivered());
    ASSERT_EQ(deliveries.size(), 100u);
    for (Tick t : deliveries) {
      EXPECT_GE(t, c.want_lo);
      EXPECT_LE(t, c.want_hi);
    }
  }
}

TEST(ChannelTest, PacketRefusedByAFullClockCountsAsDropped) {
  // A capacity-capped clock refuses events beyond its cap; each refused packet
  // must land in dropped(), so sent() == dropped() + delivered() still holds.
  FacilityConfig clock;
  clock.scheme = SchemeId::kScheme3Heap;
  clock.max_timers = 4;
  sim::Simulator network(MakeTimerService(clock));
  ChannelConfig config;
  config.loss_probability = 0.0;
  config.delay_lo = 3;
  config.delay_hi = 3;
  Channel channel(network, 8, config);
  std::vector<std::uint64_t> received;
  channel.set_receiver([&](const Packet& p) { received.push_back(p.seq); });
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    channel.Send(Packet{0, seq, PacketType::kData});
  }
  EXPECT_EQ(channel.dropped(), 6u);
  network.RunUntilIdle();
  EXPECT_EQ(received, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(channel.sent(), channel.dropped() + channel.delivered());
  // The refused packets' slots were freed: the channel keeps working.
  channel.Send(Packet{0, 99, PacketType::kData});
  network.RunUntilIdle();
  EXPECT_EQ(received.back(), 99u);
}

// The fate of each packet of a fixed 64-packet stream on `link`, one
// character per packet in send order: its delay in ticks as a hex digit, or
// 'x' if it was dropped. Four packets go out per tick, over 16 ticks.
std::string StreamFates(const ChannelConfig& link, std::uint64_t seed) {
  sim::Simulator network(MakeNetworkClock(link));
  Channel channel(network, seed, link);
  constexpr std::size_t kPackets = 64;
  std::vector<Tick> sent_at(kPackets);
  std::string fates(kPackets, 'x');
  channel.set_receiver([&](const Packet& p) {
    fates[p.seq] = "0123456789abcdef"[network.now() - sent_at[p.seq]];
  });
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    sent_at[i] = network.now();
    channel.Send(Packet{static_cast<std::uint32_t>(i % 3), i,
                        i % 4 == 3 ? PacketType::kAck : PacketType::kData});
    if (i % 4 == 3) {
      network.Step();
    }
  }
  network.RunUntilIdle();
  return fates;
}

TEST(ChannelTest, PacketFatesArePinned) {
  // Send computes only the draws that can change a fate (channel.h). These
  // strings were recorded when every packet took both draws; a fast path
  // that shifts a draw, or takes the delay from the wrong one, changes them.
  EXPECT_EQ(StreamFates(ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                      .delay_hi = 1},
                        21),
            std::string(64, '1'));
  EXPECT_EQ(StreamFates(ChannelConfig{.loss_probability = 0.0, .delay_lo = 1,
                                      .delay_hi = 4},
                        21),
            "3322343312222144232121143421423443331333411121131231123123412332");
  EXPECT_EQ(StreamFates(ChannelConfig{}, 21),  // 5% loss, delays 2..10
            "24227854a82278562a556939855447939247x4x299a83a57xa25376594434a54");
}

TEST(ChannelTest, LosslessLinkTakesTheSameDelayDrawAsATinyLoss) {
  // A link with loss 0 skips its loss draw but must still take the delay from
  // the second draw. At the smallest positive loss the first draw is taken
  // (and drops nothing here), so both links deliver every packet alike.
  for (const Duration hi : {Duration{4}, Duration{10}}) {
    const ChannelConfig lossless{.loss_probability = 0.0, .delay_lo = 1,
                                 .delay_hi = hi};
    ChannelConfig tiny = lossless;
    tiny.loss_probability = std::numeric_limits<double>::denorm_min();
    const std::string fates = StreamFates(lossless, 5);
    EXPECT_EQ(fates.find('x'), std::string::npos);
    EXPECT_EQ(StreamFates(tiny, 5), fates) << "delay 1.." << hi;
  }
}

TEST(NetworkClockTest, TableIsTheNextPowerOfTwoAboveTheLongestDelay) {
  struct Case {
    Duration lo, hi;
    std::size_t table;
  };
  for (const Case& c : {Case{1, 1, 2}, Case{1, 2, 4}, Case{2, 3, 4}, Case{1, 4, 8},
                        Case{2, 10, 16}, Case{0, 0, 2}, Case{6, 2, 8}}) {
    ChannelConfig link;
    link.delay_lo = c.lo;
    link.delay_hi = c.hi;
    std::unique_ptr<TimerService> clock = MakeNetworkClock(link);
    ASSERT_EQ(clock->name(), "scheme6-hashed-unsorted");
    EXPECT_EQ(static_cast<const HashedWheelUnsorted&>(*clock).table_size(), c.table)
        << "delay " << c.lo << ".." << c.hi;
  }
}

TEST(NetworkClockTest, SameTickDeliveriesRunInSendOrderAcrossChannels) {
  // Three channels share one clock. Packets sent on the same tick, on any mix
  // of channels, must reach their receivers in send order — the order a heap
  // clock's start-sequence tiebreak gives, and what keeps a run's trace
  // unchanged when the clock's scheme changes. Delays 3 and 4 wrap the
  // 4- and 8-slot tables, and receivers send too (in-delivery sends).
  for (const Duration delay : {Duration{1}, Duration{3}, Duration{4}}) {
    ChannelConfig link;
    link.loss_probability = 0.0;
    link.delay_lo = delay;
    link.delay_hi = delay;
    sim::Simulator network(MakeNetworkClock(link));
    std::vector<std::unique_ptr<Channel>> channels;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      channels.push_back(std::make_unique<Channel>(network, 100 + seed, link));
    }
    std::vector<std::uint64_t> sent;
    std::vector<std::uint64_t> log;
    std::uint64_t next_seq = 0;
    auto send = [&](std::uint32_t channel) {
      sent.push_back(next_seq);
      channels[channel]->Send(Packet{channel, next_seq++, PacketType::kData});
    };
    for (std::uint32_t c = 0; c < 3; ++c) {
      channels[c]->set_receiver([&, c](const Packet& p) {
        log.push_back(p.seq);
        if (p.seq % 5 == 0 && next_seq < 4000) {
          send((c + 1) % 3);
        }
      });
    }
    for (Tick t = 0; t < 40; ++t) {
      for (std::uint32_t i = 0; i < 30; ++i) {
        send((i * 7 + static_cast<std::uint32_t>(t)) % 3);
      }
      network.Step();
    }
    network.RunUntilIdle();
    // Every packet is delivered exactly `delay` ticks after its send, so the
    // delivery log is the send log exactly when same-tick order is kept.
    EXPECT_EQ(log, sent) << "delay " << delay;
    for (const auto& channel : channels) {
      EXPECT_EQ(channel->sent(), channel->delivered());
    }
  }
}

}  // namespace
}  // namespace twheel::net
