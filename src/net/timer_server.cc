#include "src/net/timer_server.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "src/concurrent/sharded_wheel.h"
#include "src/net/wire.h"

namespace twheel::net {

TimerServer::TimerServer(std::unique_ptr<TimerService> host, Channel& to_client)
    : host_(std::move(host)), to_client_(to_client) {
  host_->set_expiry_handler([this](RequestId id, twheel::Tick now, bool last) {
    OnExpiry(id, now, last);
  });
}

TimerServer::~TimerServer() { StopDispatchPool(); }

namespace {

// An interval as a Registration::span: saturated to 32 bits, which only makes
// a lazy restart rarer.
std::uint32_t SpanOf(Duration interval) {
  return static_cast<std::uint32_t>(
      std::min<Duration>(interval, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

TimerServer::Stopped TimerServer::StopRegistration(Stripe& stripe,
                                                   const Registration& reg) {
  if (host_->StopTimer(reg.handle) == TimerError::kOk) {
    stripe.armed.Free(reg.armed);
    return Stopped::kCancelled;
  }
  if (!reg.checkin) {
    // The host already claimed the final fire: its expiry record stays until
    // that fire is delivered, and the fire resolves the timer.
    return Stopped::kMissed;
  }
  // The host claimed a check-in, which is not an expiry: the timer is due at
  // its recorded deadline. The expiry record goes either way, so the check-in
  // is dropped when it is delivered.
  stripe.armed.Free(reg.armed);
  return reg.deadline > host_->now() ? Stopped::kCancelled : Stopped::kFireOwed;
}

void TimerServer::Register(RequestId cookie, const Packet& request) {
  Stripe& stripe = StripeFor(cookie);
  bool fire_owed = false;
  twheel::Tick owed_at = 0;
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto [reg, inserted] = stripe.timers.FindOrInsert(cookie);
    // Cancel-and-replace: a duplicate set (client retry, or reuse of a timer
    // name whose fire callback was lost) supersedes the live registration,
    // which ends as StopRegistration says.
    if (!inserted) {
      switch (StopRegistration(stripe, *reg)) {
        case Stopped::kCancelled:
          ++stripe.stats.replaced;
          break;
        case Stopped::kMissed:
          break;
        case Stopped::kFireOwed:
          ++stripe.stats.fires_sent;
          fire_owed = true;
          owed_at = reg->deadline;
          break;
      }
    }
    const bool periodic = request.type == PacketType::kTimerSetPeriodic;
    const Duration interval = static_cast<Duration>(request.arg0);
    const SlabRef ref = stripe.armed.Allocate(cookie).second;
    bool accepted = false;
    if (ref.valid()) {
      const RequestId id = ArmedId(stripe, ref);
      // A periodic keeps no deadline and a span of 0: it is never restarted
      // lazily.
      const twheel::Tick deadline = periodic ? 0 : host_->now() + interval;
      const StartResult started = periodic
                                      ? host_->StartPeriodic(interval, id, request.arg1)
                                      : host_->StartTimer(interval, id);
      if (started.has_value()) {
        *reg = Registration{started.value(), ref, deadline,
                            periodic ? 0 : SpanOf(interval), /*checkin=*/false};
        ++(periodic ? stripe.stats.periodic_sets : stripe.stats.sets);
        accepted = true;
      } else {
        stripe.armed.Free(ref);
      }
    }
    if (!accepted) {
      ++stripe.stats.rejected;
      stripe.timers.EraseAt(reg);
    }
  }
  if (fire_owed) {
    SendFire(cookie, owed_at);
  }
}

bool TimerServer::Restart(Registration& reg, Duration interval) {
  // The relink contract keeps the handle valid, so the table entry keeps it;
  // a periodic's cadence and budget continue from the moved deadline
  // (TimerService::RestartTimer doc).
  if (reg.span == 0) {
    return host_->RestartTimer(reg.handle, interval) == TimerError::kOk;
  }
  const twheel::Tick now = host_->now();
  // A deadline past the end of Tick is for the host to refuse.
  const bool fits = interval <= std::numeric_limits<twheel::Tick>::max() - now;
  // Lazy: a one-shot not yet due, moved no earlier (so not by 0), by an
  // interval the host already accepted for it. Its host timer checks in at
  // the old deadline.
  if (fits && interval <= reg.span && reg.deadline > now &&
      now + interval >= reg.deadline) {
    reg.checkin = reg.checkin || now + interval != reg.deadline;
    reg.deadline = now + interval;
    return true;
  }
  switch (host_->RestartTimer(reg.handle, interval)) {
    case TimerError::kOk:
      reg.deadline = now + interval;
      reg.checkin = false;
      reg.span = std::max(reg.span, SpanOf(interval));
      return true;
    case TimerError::kNoSuchTimer:
      // The host claimed a check-in that is not delivered yet. The timer is
      // due at its recorded deadline; until then the restart moves it, and
      // the check-in re-arms (or fires) at the new deadline.
      if (fits && reg.checkin && reg.deadline > now) {
        reg.deadline = now + interval;
        return true;
      }
      return false;
    default:
      return false;
  }
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
      Registration* reg = stripe.timers.Find(cookie);
      if (reg != nullptr && Restart(*reg, static_cast<Duration>(request.arg0))) {
        ++stripe.stats.restarts;
      } else {
        ++stripe.stats.restart_misses;
      }
      return;
    }
    case PacketType::kTimerCancel: {
      Stripe& stripe = StripeFor(cookie);
      twheel::Tick owed_at = 0;
      {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        const std::optional<Registration> reg = stripe.timers.Take(cookie);
        const Stopped stopped =
            reg.has_value() ? StopRegistration(stripe, *reg) : Stopped::kMissed;
        if (stopped == Stopped::kCancelled) {
          ++stripe.stats.cancels;
          return;
        }
        // Unknown, or the host already claimed the timer's fire: a final fire
        // resolves the timer when it is delivered, an owed one is sent here.
        ++stripe.stats.cancel_misses;
        if (stopped == Stopped::kMissed) {
          return;
        }
        ++stripe.stats.fires_sent;
        owed_at = reg->deadline;
      }
      SendFire(cookie, owed_at);
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

void TimerServer::OnExpiry(RequestId id, twheel::Tick when, bool last) {
  RequestId cookie = 0;
  twheel::Tick fired_at = when;
  {
    Stripe& stripe = stripes_[id & (kStripes - 1)];
    const SlabRef ref = ArmedRef(id);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const RequestId* armed = stripe.armed.Get(ref);
    if (armed == nullptr) {
      // A lap claimed before a committed stop, or a check-in claimed before a
      // cancel or set; that request resolved it.
      return;
    }
    cookie = *armed;
    if (!last) {
      ++stripe.stats.periodic_laps;
    } else {
      // The cookie names a newer registration, or none, if a stop missed
      // because this fire was already claimed.
      Registration* reg = stripe.timers.Find(cookie);
      if (reg != nullptr && reg->armed != ref) {
        reg = nullptr;
      }
      if (reg != nullptr && reg->checkin && reg->deadline > when) {
        // A check-in: a lazy restart moved the deadline past this fire.
        ++stripe.stats.checkins;
        const twheel::Tick now = host_->now();
        if (reg->deadline > now) {
          const StartResult rearmed = host_->StartTimer(reg->deadline - now, id);
          if (rearmed.has_value()) {
            reg->handle = rearmed.value();
            reg->checkin = false;
            return;
          }
          ++stripe.stats.rejected;
          stripe.armed.Free(ref);
          stripe.timers.EraseAt(reg);
          return;
        }
        // A batched advance already crossed the recorded deadline.
        fired_at = reg->deadline;
      }
      stripe.armed.Free(ref);
      if (reg != nullptr) {
        stripe.timers.EraseAt(reg);
      }
    }
    ++stripe.stats.fires_sent;
  }
  SendFire(cookie, fired_at);
}

void TimerServer::SendFire(RequestId cookie, twheel::Tick at) {
  // Built and sent outside the stripe lock: the send mutex alone serializes
  // concurrent drainers (and a request that owes a fire) into the
  // single-threaded Channel.
  Packet fire;
  fire.connection_id = CookieSession(cookie);
  fire.seq = CookieTimer(cookie);
  fire.type = PacketType::kTimerFire;
  fire.arg0 = at;
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
