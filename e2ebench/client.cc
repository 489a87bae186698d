#include "e2ebench/client.h"

#include <cmath>

#include "src/net/wire.h"

namespace e2ebench {

using twheel::net::Packet;
using twheel::net::PacketType;

Client::Client(const ClientConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed), sessions_(config.sessions) {}

void Client::Fail(const std::string& why) {
  if (error_.empty()) {
    error_ = why;
  }
}

std::uint64_t Client::Interval() {
  return config_.min_interval +
         rng_.Below(config_.max_interval - config_.min_interval + 1);
}

std::uint64_t Client::AckGap() {
  const double miss = 1.0 - rng_.Unit();  // in (0, 1]
  return static_cast<std::uint64_t>(std::log(miss) /
                                    std::log1p(-config_.ack_probability));
}

void Client::Send(std::vector<std::uint8_t>& wire, std::uint32_t session,
                  PacketType type, std::uint64_t arg0, std::uint64_t arg1) {
  Packet packet;
  packet.connection_id = session;
  packet.seq = 0;
  packet.type = type;
  packet.arg0 = arg0;
  packet.arg1 = arg1;
  const auto bytes = twheel::net::EncodePacket(packet);
  wire.insert(wire.end(), bytes.begin(), bytes.end());
  ++requests_;
}

void Client::Set(std::uint64_t tick, std::uint32_t session,
                 std::vector<std::uint8_t>& wire) {
  Session& s = sessions_[session];
  if (s.deadline == 0) {
    ++live_;
  }
  s.interval = static_cast<std::uint32_t>(Interval());
  s.deadline = tick + s.interval;
  if (rng_.Unit() < config_.periodic_probability) {
    s.laps_left = 1 + static_cast<std::uint32_t>(rng_.Below(config_.max_laps));
    Send(wire, session, PacketType::kTimerSetPeriodic, s.interval, s.laps_left);
  } else {
    s.laps_left = 1;
    Send(wire, session, PacketType::kTimerSet, s.interval, 0);
  }
}

void Client::Restart(std::uint64_t tick, std::uint32_t session,
                     std::vector<std::uint8_t>& wire) {
  const std::uint64_t interval = Interval();
  sessions_[session].deadline = tick + interval;
  Send(wire, session, PacketType::kTimerRestart, interval, 0);
}

void Client::Cancel(std::uint32_t session, std::vector<std::uint8_t>& wire) {
  Session& s = sessions_[session];
  s.deadline = 0;
  s.laps_left = 0;
  --live_;
  Send(wire, session, PacketType::kTimerCancel, 0, 0);
}

void Client::Prime(std::vector<std::uint8_t>& wire) {
  for (std::uint32_t session = 0; session < config_.sessions; ++session) {
    Set(0, session, wire);
  }
}

void Client::Generate(std::uint64_t tick, std::vector<std::uint8_t>& wire) {
  for (std::uint32_t session : finished_) {
    if (sessions_[session].deadline == 0) {
      Set(tick, session, wire);
    }
  }
  finished_.clear();
  if (config_.ack_probability > 0) {
    for (std::uint64_t session = AckGap(); session < config_.sessions;
         session += 1 + AckGap()) {
      if (sessions_[session].deadline != 0) {
        Restart(tick, static_cast<std::uint32_t>(session), wire);
      }
    }
  }
  for (std::uint32_t i = 0; i < config_.requests_per_tick; ++i) {
    const std::uint32_t session = cursor_;
    cursor_ = (cursor_ + 1) % config_.sessions;
    if (sessions_[session].deadline == 0) {
      Set(tick, session, wire);
      continue;
    }
    const double draw = rng_.Unit();
    if (draw < config_.restart_probability) {
      Restart(tick, session, wire);
    } else if (draw < config_.restart_probability + config_.cancel_probability) {
      Cancel(session, wire);
    } else {
      Set(tick, session, wire);
    }
  }
}

void Client::CancelPeriodic(std::vector<std::uint8_t>& wire) {
  for (std::uint32_t session = 0; session < config_.sessions; ++session) {
    if (sessions_[session].laps_left > 1) {
      Cancel(session, wire);
    }
  }
}

std::uint64_t Client::OnCallback(const Packet& fire) {
  ++callbacks_;
  if (fire.type != PacketType::kTimerFire || fire.connection_id >= sessions_.size()) {
    Fail("callback is not a kTimerFire for a known session");
    return 0;
  }
  Session& s = sessions_[fire.connection_id];
  const std::uint64_t due = s.deadline;
  if (due == 0) {
    Fail("callback for session " + std::to_string(fire.connection_id) +
         " whose timer is not live");
    return 0;
  }
  if (fire.arg0 < due || fire.arg0 > due + max_late_) {
    Fail("session " + std::to_string(fire.connection_id) + " fired at tick " +
         std::to_string(fire.arg0) + ", due at " + std::to_string(due) +
         ", at most " + std::to_string(max_late_) + " late");
    return 0;
  }
  if (fire.arg0 - due > late_max_) {
    late_max_ = fire.arg0 - due;
  }
  if (--s.laps_left > 0) {
    s.deadline += s.interval;
  } else {
    s.deadline = 0;
    --live_;
    if (config_.rearm_on_fire) {
      finished_.push_back(fire.connection_id);
    }
  }
  return due;
}

}  // namespace e2ebench
