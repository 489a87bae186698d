// The two stacks under test, driven from outside one tick at a time through the
// same three layer boundaries, so the benchmark can put a span around each:
//
//   Front     wire bytes in. Server: TimerServer::OnWire (decode, striped
//             session table, ShardedWheel MPSC submission). Cluster: the
//             same wire decode, then TimerCluster::Set/Restart/Cancel at the
//             coordinator (generation bump, arm fan-out to R replicas).
//   Engine    one tick of the timer engine. Server: TimerServer::Tick, i.e.
//             ShardedWheel draining every shard's submission ring, advancing
//             the shard and sending its kTimerFire packets. Cluster:
//             TimerCluster::Step (replication traffic, node host ticks,
//             standby-lease disarms, coordinator delivery).
//   Downlink  one step of the reply network: kTimerFire packets reach the
//             client's receiver.
//
// The reply network is a lossless net::Channel with a one-tick delay on its
// own sim::Simulator, so a fire dispatched by Engine is delivered by the
// Downlink call of the same benchmark tick.

#ifndef E2EBENCH_STACKS_H_
#define E2EBENCH_STACKS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/cluster_oracle.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/net/channel.h"
#include "src/net/timer_server.h"
#include "src/sim/simulator.h"

namespace e2ebench {

// Named per-layer counts a stack reports after the run.
using Counters = std::map<std::string, double>;

class Stack {
 public:
  virtual ~Stack() = default;

  void set_receiver(std::function<void(const twheel::net::Packet&)> receiver) {
    downlink_.set_receiver(std::move(receiver));
  }

  // One encoded request. Refusals (malformed, rejected, or a restart/cancel
  // that missed) are counted in refused().
  virtual void Front(const std::uint8_t* data, std::size_t size) = 0;
  virtual void Engine() = 0;
  void Downlink() { network_.Step(); }

  // Requests refused or missed since the stack was built.
  virtual std::uint64_t refused() const = 0;
  // Layer counts over the whole run, for the traced report.
  virtual Counters LayerCounts() const = 0;
  // Stack-side checks after the final drain: every callback the service sent
  // reached the client, and the stack's own invariants hold. `callbacks` is
  // what the client received.
  virtual bool Verify(std::uint64_t callbacks, std::string* why) const = 0;
  // Nothing left in flight inside the stack.
  virtual bool idle() const = 0;
  // The most ticks past its due tick a callback may legally report.
  virtual twheel::Duration max_late() const { return 0; }

 protected:
  explicit Stack(std::uint64_t seed);

  twheel::sim::Simulator network_;
  twheel::net::Channel downlink_;
};

// A TimerServer on an MPSC-mode ShardedWheel (2 shards), ticked on the
// calling thread: the whole benchmark runs on one thread, so on a shared host
// it measures the service rather than the scheduler's thread hand-offs.
class ServerStack final : public Stack {
 public:
  explicit ServerStack(std::uint64_t seed);

  void Front(const std::uint8_t* data, std::size_t size) override;
  void Engine() override { server_.Tick(); }
  std::uint64_t refused() const override;
  Counters LayerCounts() const override;
  bool Verify(std::uint64_t callbacks, std::string* why) const override;
  bool idle() const override;

 private:
  const twheel::concurrent::ShardedWheel& wheel() const;

  twheel::net::TimerServer server_;
};

// A TimerCluster (its config.seed is replaced by `seed`) behind the wire
// codec, with its client fire callback sent down the reply network. No fault
// schedule: the cluster runs its replication protocol in steady state.
class ClusterStack final : public Stack {
 public:
  ClusterStack(const twheel::cluster::ClusterConfig& config, std::uint64_t seed);

  void Front(const std::uint8_t* data, std::size_t size) override;
  void Engine() override { cluster_.Step(); }
  std::uint64_t refused() const override;
  Counters LayerCounts() const override;
  bool Verify(std::uint64_t callbacks, std::string* why) const override;
  bool idle() const override { return cluster_.quiesced() && network_.pending() == 0; }

  // The oracle's slop bound with no outages: failover ladder and retry tail.
  twheel::Duration max_late() const override;

 private:
  twheel::cluster::ClusterConfig config_;
  twheel::cluster::ClusterOracle oracle_;
  twheel::cluster::TimerCluster cluster_;
  std::uint64_t front_refused_ = 0;
  std::uint64_t fires_sent_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_STACKS_H_
