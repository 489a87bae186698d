#include "src/net/timer_server.h"

#include <optional>
#include <utility>

#include "src/concurrent/sharded_wheel.h"
#include "src/net/wire.h"

namespace twheel::net {

TimerServer::TimerServer(std::unique_ptr<TimerService> host, Channel& to_client)
    : host_(std::move(host)), to_client_(to_client) {
  host_->set_expiry_handler(
      [this](RequestId id, twheel::Tick now) { OnExpiry(id, now); });
}

TimerServer::~TimerServer() { StopDispatchPool(); }

void TimerServer::Register(RequestId cookie, const Packet& request) {
  Stripe& stripe = StripeFor(cookie);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto [reg, inserted] = stripe.timers.FindOrInsert(cookie);
  // Cancel-and-replace: a duplicate set (client retry, or reuse of a timer
  // name whose fire callback was lost) supersedes the live registration. If
  // the stop misses, the host already claimed the old timer's final fire, and
  // its expiry record stays until that fire is delivered.
  if (!inserted && host_->StopTimer(reg->handle) == TimerError::kOk) {
    ++stripe.stats.replaced;
    stripe.armed.Free(reg->armed);
  }
  const bool periodic = request.type == PacketType::kTimerSetPeriodic;
  const Duration interval = static_cast<Duration>(request.arg0);
  const SlabRef ref =
      stripe.armed.Allocate(Armed{cookie, periodic ? request.arg1 : 1}).second;
  if (ref.valid()) {
    const RequestId id = ArmedId(stripe, ref);
    StartResult started =
        periodic ? host_->StartPeriodic(interval, id, request.arg1)
                 : host_->StartTimer(interval, id);
    if (started.has_value()) {
      *reg = Registration{started.value(), ref};
      ++(periodic ? stripe.stats.periodic_sets : stripe.stats.sets);
      return;
    }
    stripe.armed.Free(ref);
  }
  ++stripe.stats.rejected;
  stripe.timers.EraseAt(reg);
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
      const Registration* reg = stripe.timers.Find(cookie);
      // The relink contract keeps the handle valid, so the table entry is
      // untouched; the periodic's cadence and budget continue from the moved
      // deadline (TimerService::RestartTimer doc).
      const Duration interval = static_cast<Duration>(request.arg0);
      if (reg != nullptr && host_->RestartTimer(reg->handle, interval) == TimerError::kOk) {
        ++stripe.stats.restarts;
      } else {
        ++stripe.stats.restart_misses;
      }
      return;
    }
    case PacketType::kTimerCancel: {
      Stripe& stripe = StripeFor(cookie);
      std::lock_guard<std::mutex> lock(stripe.mutex);
      const std::optional<Registration> reg = stripe.timers.Take(cookie);
      if (reg.has_value() && host_->StopTimer(reg->handle) == TimerError::kOk) {
        ++stripe.stats.cancels;
        stripe.armed.Free(reg->armed);
      } else {
        // Unknown, or the host already claimed the final fire: that fire
        // stays armed and resolves the timer when it is delivered.
        ++stripe.stats.cancel_misses;
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
    decode_rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  OnRequest(*decoded);
  return true;
}

void TimerServer::OnExpiry(RequestId id, twheel::Tick now) {
  RequestId cookie = 0;
  {
    Stripe& stripe = stripes_[id & (kStripes - 1)];
    const SlabRef ref = ArmedRef(id);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    Armed* armed = stripe.armed.Get(ref);
    if (armed == nullptr) {
      return;  // a lap claimed before a committed stop; the stop resolved it
    }
    cookie = armed->cookie;
    if (armed->remaining == TimerService::kRepeatForever || armed->remaining > 1) {
      if (armed->remaining > 1) {
        --armed->remaining;
      }
      ++stripe.stats.periodic_laps;
    } else {
      stripe.armed.Free(ref);
      // The cookie names a newer registration, or none, if a stop missed
      // because this fire was already claimed.
      if (const Registration* reg = stripe.timers.Find(cookie);
          reg != nullptr && reg->armed == ref) {
        stripe.timers.EraseAt(reg);
      }
    }
    ++stripe.stats.fires_sent;
  }
  // Build and send outside the stripe lock: the send mutex alone serializes
  // concurrent drainers into the single-threaded Channel.
  Packet fire;
  fire.connection_id = CookieSession(cookie);
  fire.seq = CookieTimer(cookie);
  fire.type = PacketType::kTimerFire;
  fire.arg0 = now;
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
  TimerServerStats total;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
#define TWHEEL_TIMER_SERVER_STAT_ADD(name) total.name += stripe.stats.name;
    TWHEEL_TIMER_SERVER_STAT_FIELDS(TWHEEL_TIMER_SERVER_STAT_ADD)
#undef TWHEEL_TIMER_SERVER_STAT_ADD
  }
  total.decode_rejects += decode_rejects_.load(std::memory_order_relaxed);
  return total;
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
