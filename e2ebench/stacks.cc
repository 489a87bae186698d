#include "e2ebench/stacks.h"

#include <optional>

#include "src/core/timer_facility.h"
#include "src/metrics/vax_cost.h"
#include "src/net/wire.h"

namespace e2ebench {

using twheel::net::Packet;
using twheel::net::PacketType;

namespace {

std::unique_ptr<twheel::TimerService> NetworkClock() {
  // Same choice as net::TimerServerHarness: a range-unbounded heap carries
  // packet propagation.
  twheel::FacilityConfig config;
  config.scheme = twheel::SchemeId::kScheme3Heap;
  return twheel::MakeTimerService(config);
}

constexpr twheel::net::ChannelConfig kReplyLink{
    .loss_probability = 0.0, .delay_lo = 1, .delay_hi = 1};

constexpr std::size_t kShards = 2;
constexpr std::size_t kShardTableSize = 1024;
// Per-shard ring and registration capacity: the whole primed population sits
// in the rings until the first tick drains them.
constexpr std::size_t kShardCapacity = 1u << 11;

std::unique_ptr<twheel::TimerService> MakeWheel() {
  twheel::concurrent::SubmitOptions submit;
  submit.ring_capacity = kShardCapacity;
  submit.registration_capacity = kShardCapacity;
  submit.on_full = twheel::concurrent::SubmitPolicy::kReject;
  return std::make_unique<twheel::concurrent::ShardedWheel>(kShards, kShardTableSize,
                                                            submit);
}

}  // namespace

Stack::Stack(std::uint64_t seed)
    : network_(NetworkClock()), downlink_(network_, seed, kReplyLink) {}

// --- server ------------------------------------------------------------------

ServerStack::ServerStack(std::uint64_t seed)
    : Stack(seed), server_(MakeWheel(), downlink_) {}

const twheel::concurrent::ShardedWheel& ServerStack::wheel() const {
  return static_cast<const twheel::concurrent::ShardedWheel&>(server_.host());
}

void ServerStack::Front(const std::uint8_t* data, std::size_t size) {
  server_.OnWire(data, size);
}

std::uint64_t ServerStack::refused() const {
  const twheel::net::TimerServerStats stats = server_.stats();
  return stats.rejected + stats.restart_misses + stats.cancel_misses +
         stats.decode_rejects;
}

Counters ServerStack::LayerCounts() const {
  const twheel::metrics::OpCounts counts = wheel().counts();
  return {
      {"drained", static_cast<double>(counts.drained_commands)},
      {"vax", twheel::metrics::VaxCostModel{}.Total(counts)},
  };
}

bool ServerStack::Verify(std::uint64_t callbacks, std::string* why) const {
  const twheel::net::TimerServerStats stats = server_.stats();
  if (stats.fires_sent != callbacks) {
    *why = "server sent " + std::to_string(stats.fires_sent) +
           " fires, client received " + std::to_string(callbacks);
    return false;
  }
  if (server_.registrations() != 0 || server_.host().outstanding() != 0) {
    *why = "timers left registered after the drain";
    return false;
  }
  return true;
}

bool ServerStack::idle() const {
  return server_.registrations() == 0 && network_.pending() == 0;
}

// --- cluster -----------------------------------------------------------------

namespace {

twheel::cluster::ClusterConfig Seeded(twheel::cluster::ClusterConfig config,
                                      std::uint64_t seed) {
  config.seed = seed;
  return config;
}

}  // namespace

ClusterStack::ClusterStack(const twheel::cluster::ClusterConfig& config,
                           std::uint64_t seed)
    : Stack(seed),
      config_(Seeded(config, seed)),
      oracle_(config_, twheel::cluster::FaultSchedule{}),
      cluster_(config_) {
  cluster_.set_fire_callback(
      [this](std::uint64_t key, std::uint32_t gen, twheel::Tick pop_tick) {
        Packet fire;
        fire.connection_id = static_cast<std::uint32_t>(key);
        fire.seq = gen;
        fire.type = PacketType::kTimerFire;
        fire.arg0 = pop_tick;
        ++fires_sent_;
        downlink_.Send(fire);
      });
}

void ClusterStack::Front(const std::uint8_t* data, std::size_t size) {
  const std::optional<Packet> request = twheel::net::DecodePacket(data, size);
  bool accepted = false;
  if (request.has_value()) {
    const std::uint64_t key = request->connection_id;
    switch (request->type) {
      case PacketType::kTimerSet:
        accepted = cluster_.Set(key, request->arg0);
        break;
      case PacketType::kTimerRestart:
        accepted = cluster_.Restart(key, request->arg0);
        break;
      case PacketType::kTimerCancel:
        accepted = cluster_.Cancel(key);
        break;
      default:
        break;
    }
  }
  if (!accepted) {
    ++front_refused_;
  }
}

std::uint64_t ClusterStack::refused() const {
  const twheel::cluster::ClusterStats& stats = cluster_.stats();
  return front_refused_ + stats.arm_rejects;
}

Counters ClusterStack::LayerCounts() const {
  const twheel::cluster::ClusterStats& stats = cluster_.stats();
  return {
      {"repl_sends", static_cast<double>(stats.arm_sends + stats.arm_retries +
                                         stats.disarm_sends +
                                         stats.notify_retries)},
      {"pops", static_cast<double>(stats.pops)},
      {"receipts", static_cast<double>(stats.fire_receipts)},
      {"delivered", static_cast<double>(stats.delivered)},
      {"lease_extensions", static_cast<double>(stats.lease_extensions)},
  };
}

twheel::Duration ClusterStack::max_late() const { return oracle_.slop_bound(); }

bool ClusterStack::Verify(std::uint64_t callbacks, std::string* why) const {
  if (fires_sent_ != callbacks) {
    *why = "cluster delivered " + std::to_string(fires_sent_) +
           " fires, client received " + std::to_string(callbacks);
    return false;
  }
  const twheel::cluster::OracleReport report =
      oracle_.Check(cluster_.events(), cluster_.stats());
  if (!report.ok) {
    *why = "cluster oracle: " + report.violation;
    return false;
  }
  return true;
}

}  // namespace e2ebench
