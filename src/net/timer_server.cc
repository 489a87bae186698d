#include "src/net/timer_server.h"

#include <utility>

#include "src/concurrent/sharded_wheel.h"
#include "src/net/wire.h"

namespace twheel::net {

TimerServer::TimerServer(std::unique_ptr<TimerService> host, Channel& to_client)
    : host_(std::move(host)), to_client_(to_client) {
  host_->set_expiry_handler(
      [this](RequestId cookie, twheel::Tick now) { OnExpiry(cookie, now); });
}

TimerServer::~TimerServer() { StopDispatchPool(); }

void TimerServer::Register(RequestId cookie, const Packet& request) {
  Stripe& stripe = StripeFor(cookie);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  // Cancel-and-replace: a duplicate set (client retry, or reuse of a timer
  // name whose fire callback was lost) supersedes the live registration.
  if (auto it = stripe.timers.find(cookie); it != stripe.timers.end()) {
    if (host_->StopTimer(it->second.handle) == TimerError::kOk) {
      stats_.replaced.fetch_add(1, std::memory_order_relaxed);
    }
    stripe.timers.erase(it);
  }
  const bool periodic = request.type == PacketType::kTimerSetPeriodic;
  const Duration interval = static_cast<Duration>(request.arg0);
  StartResult started =
      periodic ? host_->StartPeriodic(interval, cookie, request.arg1)
               : host_->StartTimer(interval, cookie);
  if (!started.has_value()) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Registration reg;
  reg.handle = started.value();
  reg.periodic = periodic;
  reg.remaining = periodic ? request.arg1 : 1;
  stripe.timers.emplace(cookie, reg);
  (periodic ? stats_.periodic_sets : stats_.sets)
      .fetch_add(1, std::memory_order_relaxed);
}

void TimerServer::OnRequest(const Packet& request) {
  const RequestId cookie = PackTimerCookie(request.connection_id, request.seq);
  switch (request.type) {
    case PacketType::kTimerSet:
    case PacketType::kTimerSetPeriodic:
      Register(cookie, request);
      return;
    case PacketType::kTimerRestart: {
      Stripe& stripe = StripeFor(cookie);
      std::lock_guard<std::mutex> lock(stripe.mutex);
      auto it = stripe.timers.find(cookie);
      if (it == stripe.timers.end()) {
        stats_.restart_misses.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // The relink contract keeps the handle valid, so the table entry is
      // untouched; the periodic's cadence and budget continue from the moved
      // deadline (TimerService::RestartTimer doc).
      if (host_->RestartTimer(it->second.handle, static_cast<Duration>(
                                                     request.arg0)) ==
          TimerError::kOk) {
        stats_.restarts.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.restart_misses.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    case PacketType::kTimerCancel: {
      Stripe& stripe = StripeFor(cookie);
      std::lock_guard<std::mutex> lock(stripe.mutex);
      auto it = stripe.timers.find(cookie);
      if (it == stripe.timers.end() ||
          host_->StopTimer(it->second.handle) != TimerError::kOk) {
        stats_.cancel_misses.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.cancels.fetch_add(1, std::memory_order_relaxed);
      }
      if (it != stripe.timers.end()) {
        stripe.timers.erase(it);
      }
      return;
    }
    default:
      return;  // transport packets are not ours
  }
}

bool TimerServer::OnWire(const std::uint8_t* data, std::size_t size) {
  std::optional<Packet> decoded = DecodePacket(data, size);
  if (!decoded.has_value()) {
    stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  OnRequest(*decoded);
  return true;
}

void TimerServer::OnExpiry(RequestId cookie, twheel::Tick now) {
  Packet fire;
  {
    Stripe& stripe = StripeFor(cookie);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.timers.find(cookie);
    if (it == stripe.timers.end()) {
      return;  // raced with a cancel the host resolved differently; drop
    }
    Registration& reg = it->second;
    const bool armed =
        reg.periodic &&
        (reg.remaining == TimerService::kRepeatForever || reg.remaining > 1);
    if (armed) {
      if (reg.remaining > 1) {
        --reg.remaining;
      }
      stats_.periodic_laps.fetch_add(1, std::memory_order_relaxed);
    } else {
      stripe.timers.erase(it);
    }
  }
  // Build and send outside the stripe lock: the send mutex alone serializes
  // concurrent drainers into the single-threaded Channel.
  fire.connection_id = CookieSession(cookie);
  fire.seq = CookieTimer(cookie);
  fire.type = PacketType::kTimerFire;
  fire.arg0 = now;
  stats_.fires_sent.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(send_mutex_);
  to_client_.Send(fire);
}

void TimerServer::Tick() {
  if (pool_ != nullptr) {
    pool_->AdvanceTo(host_->now() + 1);
    return;
  }
  host_->PerTickBookkeeping();
}

std::size_t TimerServer::AdvanceTo(twheel::Tick target) {
  return pool_ != nullptr ? pool_->AdvanceTo(target) : host_->AdvanceTo(target);
}

bool TimerServer::StartDispatchPool(const concurrent::DispatchOptions& options) {
  if (pool_ != nullptr) {
    return false;
  }
  auto* sharded = dynamic_cast<concurrent::ShardedWheel*>(host_.get());
  if (sharded == nullptr) {
    return false;
  }
  pool_ = std::make_unique<concurrent::DispatchPool>(*sharded, options);
  return true;
}

void TimerServer::StopDispatchPool() {
  if (pool_ != nullptr) {
    pool_->Stop();
    pool_.reset();
  }
}

TimerServerStats TimerServer::stats() const {
  TimerServerStats snapshot;
  snapshot.sets = stats_.sets.load(std::memory_order_relaxed);
  snapshot.periodic_sets = stats_.periodic_sets.load(std::memory_order_relaxed);
  snapshot.replaced = stats_.replaced.load(std::memory_order_relaxed);
  snapshot.rejected = stats_.rejected.load(std::memory_order_relaxed);
  snapshot.restarts = stats_.restarts.load(std::memory_order_relaxed);
  snapshot.restart_misses =
      stats_.restart_misses.load(std::memory_order_relaxed);
  snapshot.cancels = stats_.cancels.load(std::memory_order_relaxed);
  snapshot.cancel_misses = stats_.cancel_misses.load(std::memory_order_relaxed);
  snapshot.fires_sent = stats_.fires_sent.load(std::memory_order_relaxed);
  snapshot.periodic_laps = stats_.periodic_laps.load(std::memory_order_relaxed);
  snapshot.decode_rejects =
      stats_.decode_rejects.load(std::memory_order_relaxed);
  return snapshot;
}

std::size_t TimerServer::registrations() const {
  std::size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.timers.size();
  }
  return total;
}

}  // namespace twheel::net
