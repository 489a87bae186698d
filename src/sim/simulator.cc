#include "src/sim/simulator.h"

#include "src/base/assert.h"

namespace twheel::sim {
namespace {

RequestId PackRef(SlabRef ref) {
  return (static_cast<RequestId>(ref.generation) << 32) | ref.slot;
}

SlabRef UnpackRef(RequestId id) {
  return SlabRef{static_cast<std::uint32_t>(id & 0xffffffffu),
                 static_cast<std::uint32_t>(id >> 32)};
}

}  // namespace

Simulator::Simulator(std::unique_ptr<TimerService> service)
    : service_(std::move(service)) {
  TWHEEL_ASSERT(service_ != nullptr);
  service_->set_expiry_handler([this](RequestId id, Tick, bool last) {
    const SlabRef ref = UnpackRef(id);
    Entry* entry = entries_.Get(ref);
    TWHEEL_ASSERT_MSG(entry != nullptr, "expiry for unknown simulator event");
    if (last) {
      // A one-shot's fire, or a periodic's whose next run the service dropped
      // (OpCounts::periodic_drops): move the action out and release the entry
      // *before* running it — the action may itself schedule or cancel events
      // (touching the arena).
      Action action = std::move(entry->action);
      entries_.Free(ref);
      action();
      return;
    }
    // A periodic lap: the service already re-armed the record in place before
    // dispatching (StartPeriodic's expiry-path relink — the handle and
    // generation survive, so the token still cancels future runs; no arena
    // allocation happens, so a full arena cannot reject the re-arm
    // mid-dispatch). Invoke a copy in case the action cancels its own token
    // (freeing the entry, and with it the stored std::function, mid-run).
    Action run = entry->action;
    run();
  });
}

EventToken Simulator::Arm(Entry& entry, SlabRef ref, Duration interval,
                          bool periodic) {
  StartResult result =
      periodic ? service_->StartPeriodic(interval, PackRef(ref),
                                         TimerService::kRepeatForever)
               : service_->StartTimer(interval, PackRef(ref));
  if (!result.has_value()) {
    entries_.Free(ref);
    return EventToken{};
  }
  entry.handle = result.value();
  return EventToken{ref};
}

EventToken Simulator::Every(Duration period, Action action) {
  auto [entry, ref] = entries_.Allocate(std::move(action));
  return entry == nullptr ? EventToken{} : Arm(*entry, ref, period, /*periodic=*/true);
}

bool Simulator::Cancel(EventToken token) {
  Entry* entry = entries_.Get(token.ref);
  if (entry == nullptr) {
    return false;  // already ran or already cancelled
  }
  // The expiry handler frees the entry on the timer's last fire, before
  // running the action, so a live entry implies a live timer.
  const TimerError err = service_->StopTimer(entry->handle);
  TWHEEL_ASSERT_MSG(err == TimerError::kOk, "simulator entry alive but timer dead");
  entries_.Free(token.ref);
  return true;
}

std::size_t Simulator::Step() { return service_->PerTickBookkeeping(); }

Tick Simulator::RunUntilIdle(Tick max_ticks) {
  Tick advanced = 0;
  while (pending() > 0 && advanced < max_ticks) {
    Step();
    ++advanced;
  }
  return advanced;
}

std::optional<Tick> Simulator::RunUntilIdleJumping(Tick max_ticks) {
  if (!service_->NextExpiryHint().has_value() && pending() > 0) {
    return std::nullopt;  // scheme cannot peek; caller should tick-step instead
  }
  Tick covered = 0;
  while (pending() > 0 && covered < max_ticks) {
    std::optional<Tick> next = service_->NextExpiryHint();
    TWHEEL_ASSERT_MSG(next.has_value(), "pending events but no expiry hint");
    // Jump the dead time, then execute the expiry tick itself.
    Tick gap = *next - service_->now();
    if (gap > 1) {
      Tick jump_to = *next - 1;
      if (covered + (jump_to - service_->now()) > max_ticks) {
        bool ok = service_->FastForward(service_->now() + (max_ticks - covered));
        TWHEEL_ASSERT(ok);
        return max_ticks;
      }
      covered += jump_to - service_->now();
      bool ok = service_->FastForward(jump_to);
      TWHEEL_ASSERT(ok);
    }
    Step();
    ++covered;
  }
  return covered;
}

}  // namespace twheel::sim
