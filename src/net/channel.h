// A lossy, delaying, unidirectional channel.
//
// Deliveries are discrete events on a *network* simulator that ticks in lockstep
// with the host's timer module but keeps its own event set, so channel bookkeeping
// never contaminates the op counts of the timer scheme under test (see net::Server).
// MakeNetworkClock builds that event set for a link: a Scheme 6 hashed wheel whose
// table exceeds the link's longest delay.
//
// Loss and latency are drawn by hashing the packet's identity (connection, sequence
// number, type, send tick) with the channel seed rather than from a shared stream:
// the fate of a packet is a pure function of what was sent and when. This makes runs
// order-insensitive — two timer schemes that dispatch the same tick's expiries in
// different orders still produce byte-identical network behaviour, which the
// cross-scheme protocol tests rely on.
//
// A packet's fate uses two draws, the first and second outputs of a SplitMix64
// stream seeded by its fingerprint: the first is the loss draw, the second
// picks the delay. Send computes only what can change the fate. A link with
// loss_probability 0 cannot drop, so it skips the loss draw (the delay still
// comes from the second output); a one-tick delay window needs no delay draw;
// a link needing neither skips the fingerprint too. A power-of-two delay
// spread is a mask, not a division. Every packet's fate is the same as if both
// draws were always taken.
//
// In-flight packets live in a per-channel slab, so the event a Send schedules is a
// {channel, slot} pair that sim::Simulator constructs inline in its event entry:
// delivering a packet allocates nothing once the slab and the clock's record arena
// have grown to the link's bandwidth-delay product.

#ifndef TWHEEL_SRC_NET_CHANNEL_H_
#define TWHEEL_SRC_NET_CHANNEL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/base/bits.h"
#include "src/base/slab_arena.h"
#include "src/core/timer_service.h"
#include "src/net/types.h"
#include "src/rng/rng.h"
#include "src/sim/simulator.h"

namespace twheel::net {

// The delays a Channel actually uses: delay_lo >= 1 (every scheme refuses a zero
// interval) and delay_hi >= delay_lo.
constexpr ChannelConfig ClampDelays(ChannelConfig config) {
  if (config.delay_lo < 1) {
    config.delay_lo = 1;
  }
  if (config.delay_hi < config.delay_lo) {
    config.delay_hi = config.delay_lo;
  }
  return config;
}

// The network clock for channels on `link`: a Scheme 6 hashed wheel (unbounded
// intervals, O(1) start and tick) whose table is the next power of two above
// the clamped delay_hi. Every delivery then lands within one revolution, so a
// bucket holds exactly one tick's deliveries in send order, and same-tick
// deliveries run in send order across all channels on the clock — the order a
// heap keyed (expiry, start sequence) gives. Hand the result to sim::Simulator.
std::unique_ptr<TimerService> MakeNetworkClock(const ChannelConfig& link);

class Channel {
 public:
  using Receiver = std::function<void(const Packet&)>;

  // The delays are clamped (ClampDelays): delay_lo = 0 would make the clock
  // refuse the delivery, and delay_hi < delay_lo would wrap the delay spread.
  Channel(sim::Simulator& network, std::uint64_t seed, ChannelConfig config)
      : network_(network), seed_(seed), config_(ClampDelays(config)) {}

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  // Transmit: either dropped or delivered to the receiver after a
  // packet-identity-determined delay in [delay_lo, delay_hi]. Every packet is
  // counted once in sent() and, once resolved, in dropped() or delivered().
  void Send(const Packet& packet) {
    Bump(sent_);
    // A loss draw lies in [0, 1), so only a positive probability can drop.
    const bool lossy = config_.loss_probability > 0;
    const Duration spread = config_.delay_hi - config_.delay_lo + 1;
    Duration delay = config_.delay_lo;
    if (lossy || spread > 1) {
      rng::SplitMix64 draws(seed_ ^ PacketFingerprint(packet, network_.now()));
      if (!lossy) {
        draws.Discard();
      } else if (static_cast<double>(draws.Next() >> 11) * 0x1.0p-53 <
                 config_.loss_probability) {
        Bump(dropped_);
        return;
      }
      if (spread > 1) {
        const std::uint64_t bits = draws.Next();
        delay += IsPowerOfTwo(spread) ? bits & (spread - 1) : bits % spread;
      }
    }
    const SlabRef ref = in_flight_.Allocate(packet).second;
    if (!network_.After(delay, Delivery{this, ref}).valid()) {
      // A capacity-capped clock refused the event: the packet is lost.
      in_flight_.Free(ref);
      Bump(dropped_);
    }
  }

  // Counter snapshots. Send()/delivery themselves stay single-threaded by
  // contract (the network Simulator is not thread-safe), but a TimerServer
  // dispatch-pool drainer transmits under the server's send mutex while
  // harness/monitor threads snapshot these counters without it — so the
  // counters are relaxed atomics, not plain words. A snapshot taken
  // mid-transmission may lag by the in-flight packet; it is never torn.
  // That same contract gives each counter one writer at a time, so a bump is
  // a relaxed load and store (Bump), not a locked read-modify-write: no two
  // increments can race, and readers still see each value whole and in
  // increasing order.
  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  // The scheduled delivery event. Two words, trivially copyable: std::function
  // keeps it in its small-object buffer instead of allocating.
  struct Delivery {
    Channel* channel;
    SlabRef ref;
    void operator()() const { channel->Deliver(ref); }
  };
  static_assert(sizeof(Delivery) == 16 && std::is_trivially_copyable_v<Delivery>);

  void Deliver(SlabRef ref) {
    // Copy out and free first: the receiver may Send on this channel.
    const Packet packet = *in_flight_.Get(ref);
    in_flight_.Free(ref);
    Bump(delivered_);
    receiver_(packet);
  }

  static void Bump(std::atomic<std::uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  // splitmix64-style finalizer: full-width multiply + xor-shift avalanche, so
  // every input bit affects every output bit.
  static std::uint64_t Mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  static std::uint64_t PacketFingerprint(const Packet& packet, Tick now) {
    // Distinct retransmissions of the same segment differ by send tick, so each
    // attempt gets an independent fate. Each field is avalanche-mixed before
    // combining: an earlier shift-and-xor packing put `seq << 16` underneath
    // `connection_id << 48`, so once seq reached 2^32 its high bits aliased the
    // connection bits and long-lived flows on different connections shared
    // fates. Mixing spreads every field across all 64 bits first, so no
    // shifted-out or overlapping-field collisions exist by construction.
    std::uint64_t fp = Mix(static_cast<std::uint64_t>(packet.connection_id) +
                           0x9e3779b97f4a7c15ULL);
    fp = Mix(fp ^ packet.seq);
    fp = Mix(fp ^ static_cast<std::uint64_t>(packet.type));
    fp = Mix(fp ^ now);
    return fp;
  }

  sim::Simulator& network_;
  std::uint64_t seed_;
  ChannelConfig config_;
  Receiver receiver_;
  SlabArena<Packet> in_flight_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_CHANNEL_H_
