// The Section 1 server: N connections x 3 timers over lossy channels.
//
// Owns two lockstep simulators — the host's timer module (the scheme under test)
// and a network event set (MakeNetworkClock's fixed wheel, so channel events
// never touch the host's op counts) — plus the two channels and all
// connections. Step() advances one tick of simulated time everywhere. After a run,
// host_counts() exposes exactly the op-count profile the paper's timer module would
// have accumulated serving this workload.

#ifndef TWHEEL_SRC_NET_SERVER_H_
#define TWHEEL_SRC_NET_SERVER_H_

#include <memory>
#include <vector>

#include "src/core/timer_facility.h"
#include "src/net/channel.h"
#include "src/net/connection.h"
#include "src/sim/simulator.h"

namespace twheel::net {

struct ServerConfig {
  std::size_t num_connections = 200;  // the paper's example population
  std::uint64_t seed = 1;
  ChannelConfig channel;
  ConnectionConfig connection;
  FacilityConfig host_scheme;  // the timer scheme serving the protocol timers
};

class Server {
 public:
  explicit Server(const ServerConfig& config);

  // Advance one tick of simulated time (host timers + network).
  void Step();
  void Run(Tick ticks);

  Tick now() const { return host_.now(); }
  ConnectionStats TotalStats() const;
  const Connection& connection(std::size_t i) const { return *connections_[i]; }
  std::size_t num_connections() const { return connections_.size(); }

  // Op counts of the timer scheme under test (protocol timers only).
  metrics::OpCounts host_counts() const { return host_.service().counts(); }
  std::size_t host_outstanding() const { return host_.pending(); }

  const Channel& uplink() const { return to_peer_; }
  const Channel& downlink() const { return from_peer_; }

 private:
  sim::Simulator host_;     // scheme under test
  sim::Simulator network_;  // packet propagation (MakeNetworkClock)
  Channel to_peer_;
  Channel from_peer_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_SERVER_H_
