// Shared types for the simulated transport substrate.
//
// Section 1 motivates the paper with exactly this workload: "consider a server with
// 200 connections and 3 timers per connection" where "since messages can be lost in
// the underlying network, timers are needed at some level to trigger
// retransmissions." The net:: library is that server: per connection a
// retransmission timer (stopped by acks — the "rarely expire" kind), a keepalive
// timer (restarted by activity), and a death-detection timer (the
// failure-inferred-by-absence kind), all running against a configurable scheme.

#ifndef TWHEEL_SRC_NET_TYPES_H_
#define TWHEEL_SRC_NET_TYPES_H_

#include <cstdint>

#include "src/base/types.h"

namespace twheel::net {

enum class PacketType : std::uint8_t {
  kData,
  kAck,
  kKeepalive,
  kKeepaliveAck,
  // Timer-server protocol (src/net/timer_server.h): client sessions manage
  // timers on a remote timer module and receive expiry callbacks. The session
  // is addressed by connection_id; seq names the session-local timer.
  kTimerSet,          // arg0 = interval
  kTimerSetPeriodic,  // arg0 = interval, arg1 = repeat_for (0 = forever)
  kTimerRestart,      // arg0 = new interval
  kTimerCancel,
  kTimerFire,  // server -> client callback; arg0 = the tick the timer fired
               //   at (timer_server.h, "Never early")
  // Replication protocol (src/cluster/): the coordinator fans a client timer
  // out to R replicas; the rank-0 replica owns the pop and survivors take the
  // lease over rank by rank after `failover_delay` (DESIGN.md "Replication
  // protocol"). seq carries the client timer key; connection_id carries the
  // sending node id (or the coordinator sentinel).
  kClusterArm,        // arg0 = absolute deadline; arg1 = gen<<16 | rank<<8 | R
  kClusterArmAck,     // arg0 = gen; arg1 = rank
  kClusterDisarm,     // arg0 = gen; arg1 = 1 if suppressing after a delivered
                      //   fire, 0 for a client cancel
  kClusterDisarmAck,  // arg0 = gen
  kClusterFire,       // replica -> coordinator; arg0 = pop tick; arg1 = gen
  kClusterFireAck,    // coordinator -> replica; arg0 = gen
  kClusterSuppress,   // popping replica -> peer replicas, best-effort lease
                      //   hint; arg0 = gen
  kClusterNodeUp,     // restarted node -> coordinator; arg0 = node epoch
  kClusterNodeUpAck,  // coordinator -> node; arg0 = node epoch
};

// One past the last valid PacketType, for wire-decode range checks
// (src/net/wire.h). Keep in sync when extending the enum.
inline constexpr std::uint8_t kPacketTypeCount =
    static_cast<std::uint8_t>(PacketType::kClusterNodeUpAck) + 1;

struct Packet {
  std::uint32_t connection_id = 0;
  std::uint64_t seq = 0;
  PacketType type = PacketType::kData;
  // Timer-protocol payload words (see PacketType); zero for transport packets.
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

struct ChannelConfig {
  double loss_probability = 0.05;
  Duration delay_lo = 2;   // one-way latency, uniform in [lo, hi] ticks
  Duration delay_hi = 10;
};

struct ConnectionConfig {
  Duration rto_initial = 40;      // retransmission timeout
  Duration rto_max = 640;         // exponential backoff cap
  Duration think_time = 20;       // gap between an ack and the next data send
  Duration keepalive_interval = 500;
  Duration death_interval = 4000;  // no acks for this long => declare peer dead
};

struct ConnectionStats {
  std::uint64_t data_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t keepalives_sent = 0;
  std::uint64_t deaths = 0;

  ConnectionStats& operator+=(const ConnectionStats& o) {
    data_sent += o.data_sent;
    retransmissions += o.retransmissions;
    acks_received += o.acks_received;
    keepalives_sent += o.keepalives_sent;
    deaths += o.deaths;
    return *this;
  }
};

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_TYPES_H_
