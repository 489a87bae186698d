#include "src/net/server.h"

namespace twheel::net {

Server::Server(const ServerConfig& config)
    : host_(MakeTimerService(config.host_scheme)),
      network_(MakeNetworkClock(config.channel)),
      to_peer_(network_, config.seed * 2654435761u + 1, config.channel),
      from_peer_(network_, config.seed * 2654435761u + 2, config.channel) {
  connections_.reserve(config.num_connections);
  for (std::uint32_t id = 0; id < config.num_connections; ++id) {
    connections_.push_back(std::make_unique<Connection>(id, host_, to_peer_, from_peer_,
                                                        config.connection));
  }
  to_peer_.set_receiver(
      [this](const Packet& packet) { connections_[packet.connection_id]->OnPeerReceive(packet); });
  from_peer_.set_receiver([this](const Packet& packet) {
    connections_[packet.connection_id]->OnClientReceive(packet);
  });
  for (auto& connection : connections_) {
    connection->Start();
  }
}

void Server::Step() {
  host_.Step();
  network_.Step();
}

void Server::Run(Tick ticks) {
  for (Tick t = 0; t < ticks; ++t) {
    Step();
  }
}

ConnectionStats Server::TotalStats() const {
  ConnectionStats total;
  for (const auto& connection : connections_) {
    total += connection->stats();
  }
  return total;
}

}  // namespace twheel::net
