#include "src/net/timer_workload.h"

#include <memory>
#include <utility>

namespace twheel::net {

TimerWorkload::TimerWorkload(const TimerWorkloadConfig& config,
                             Channel& to_server)
    : config_(config), to_server_(to_server), rng_(config.seed) {
  sessions_.resize(config_.num_sessions);
}

void TimerWorkload::SendSet(std::uint32_t session, std::uint32_t name) {
  const Duration span = config_.max_interval - config_.min_interval + 1;
  const Duration interval =
      config_.min_interval + static_cast<Duration>(rng_.NextBounded(span));
  const bool periodic = rng_.NextBool(config_.periodic_probability);
  const std::uint64_t budget =
      periodic ? 1 + rng_.NextBounded(config_.periodic_repeat_max) : 1;

  Session& s = sessions_[session];
  if (s.remaining[name] == 0) {
    ++believed_live_;
  }
  s.remaining[name] = static_cast<std::uint8_t>(budget);
  ++(periodic ? stats_.periodic_sets : stats_.sets);

  Packet request;
  request.connection_id = session;
  request.seq = name;
  request.type =
      periodic ? PacketType::kTimerSetPeriodic : PacketType::kTimerSet;
  request.arg0 = interval;
  request.arg1 = periodic ? budget : 0;
  to_server_.Send(request);
}

void TimerWorkload::Tick() {
  if (sessions_.empty()) {
    return;
  }
  for (std::size_t i = 0; i < config_.requests_per_tick; ++i) {
    const auto session = static_cast<std::uint32_t>(cursor_);
    cursor_ = (cursor_ + 1) % sessions_.size();
    Session& s = sessions_[session];
    const auto name =
        static_cast<std::uint32_t>(rng_.NextBounded(config_.timers_per_session));
    if (s.remaining[name] == 0) {
      SendSet(session, name);
      continue;
    }
    const double draw = rng_.NextDouble();
    Packet request;
    request.connection_id = session;
    request.seq = name;
    if (draw < config_.restart_probability) {
      const Duration span = config_.max_interval - config_.min_interval + 1;
      request.type = PacketType::kTimerRestart;
      request.arg0 =
          config_.min_interval + static_cast<Duration>(rng_.NextBounded(span));
      ++stats_.restarts;
      to_server_.Send(request);
    } else if (draw < config_.restart_probability + config_.cancel_probability) {
      request.type = PacketType::kTimerCancel;
      s.remaining[name] = 0;
      --believed_live_;
      ++stats_.cancels;
      to_server_.Send(request);
    } else {
      SendSet(session, name);  // replace with a fresh registration
    }
  }
}

void TimerWorkload::OnCallback(const Packet& fire) {
  ++stats_.callbacks;
  if (fire.connection_id >= sessions_.size()) {
    return;
  }
  Session& s = sessions_[fire.connection_id];
  const auto name = static_cast<std::uint32_t>(fire.seq);
  if (name >= config_.timers_per_session || s.remaining[name] == 0) {
    return;  // belief already cleared (cancel-vs-fire crossed on the wire)
  }
  if (s.remaining[name] > 1) {
    --s.remaining[name];
  } else {
    s.remaining[name] = 0;
    --believed_live_;
  }
}

void TimerWorkload::Prime(const std::function<void(const Packet&)>& deliver) {
  for (std::uint32_t session = 0; session < sessions_.size(); ++session) {
    const Duration span = config_.max_interval - config_.min_interval + 1;
    const Duration interval =
        config_.min_interval + static_cast<Duration>(rng_.NextBounded(span));
    const bool periodic = rng_.NextBool(config_.periodic_probability);
    const std::uint64_t budget =
        periodic ? 1 + rng_.NextBounded(config_.periodic_repeat_max) : 1;
    Session& s = sessions_[session];
    if (s.remaining[0] == 0) {
      ++believed_live_;
    }
    s.remaining[0] = static_cast<std::uint8_t>(budget);
    ++(periodic ? stats_.periodic_sets : stats_.sets);
    Packet request;
    request.connection_id = session;
    request.seq = 0;
    request.type =
        periodic ? PacketType::kTimerSetPeriodic : PacketType::kTimerSet;
    request.arg0 = interval;
    request.arg1 = periodic ? budget : 0;
    deliver(request);
  }
}

TimerServerHarness::TimerServerHarness(const TimerServerHarnessConfig& config)
    : network_(MakeNetworkClock(config.channel)),
      uplink_(network_, config.seed * 2654435761u + 1, config.channel),
      downlink_(network_, config.seed * 2654435761u + 2, config.channel),
      server_(MakeTimerService(config.host_scheme), downlink_),
      workload_(config.workload, uplink_) {
  uplink_.set_receiver([this](const Packet& p) { server_.OnRequest(p); });
  downlink_.set_receiver([this](const Packet& p) { workload_.OnCallback(p); });
}

void TimerServerHarness::Step() {
  workload_.Tick();
  server_.Tick();
  network_.Step();
  ++now_;
}

void TimerServerHarness::Run(Tick ticks) {
  for (Tick t = 0; t < ticks; ++t) {
    Step();
  }
}

void TimerServerHarness::Prime() {
  workload_.Prime([this](const Packet& p) { server_.OnRequest(p); });
}

Tick TimerServerHarness::Drain(Tick max_ticks) {
  Tick ran = 0;
  while (ran < max_ticks &&
         (server_.registrations() != 0 || network_.pending() != 0)) {
    server_.Tick();
    network_.Step();
    ++now_;
    ++ran;
  }
  return ran;
}

}  // namespace twheel::net
