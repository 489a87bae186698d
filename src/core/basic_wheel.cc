#include "src/core/basic_wheel.h"

#include "src/base/assert.h"

namespace twheel {

BasicWheel::BasicWheel(std::size_t max_interval, OverflowPolicy policy,
                       std::size_t max_timers)
    : TimerServiceBase(max_timers),
      policy_(policy),
      slots_(max_interval),
      occupancy_(max_interval) {
  TWHEEL_ASSERT_MSG(max_interval >= 2, "wheel needs at least two slots");
}

BasicWheel::~BasicWheel() {
  for (auto& slot : slots_) {
    while (TimerRecord* rec = slot.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }
}

std::size_t BasicWheel::PerTickBookkeeping() {
  ++counts_.ticks;
  ++now_;
  cursor_ = (cursor_ + 1) % slots_.size();
  return DrainCursorSlot();
}

std::size_t BasicWheel::DrainCursorSlot() {
  IntrusiveList<TimerRecord>& slot = slots_[cursor_];
  if (slot.empty()) {
    // "If the element is 0 (no list of timers waiting to expire), no more work is
    // done on that timer tick."
    ++counts_.empty_slot_checks;
    return 0;
  }
  // Every record in this slot is due exactly now: intervals are < MaxInterval, so a
  // slot can never hold timers for a future revolution. Splice the whole slot out
  // in O(1): handlers may re-arm into the wheel (never into this slot — intervals
  // are >= 1 and < MaxInterval) without racing the batch walk.
  occupancy_.Clear(cursor_);
  IntrusiveList<TimerRecord> pending;
  pending.SpliceAll(slot);
  std::size_t expired = 0;
  while (TimerRecord* rec = pending.front()) {
    TWHEEL_ASSERT(rec->expiry_tick == now_);
    // Non-final periodic fires relink the still-linked record back into the
    // wheel (delay in [1, MaxInterval), so never this slot) and dispatch.
    if (TryFirePeriodic(rec)) {
      ++expired;
      continue;
    }
    rec->Unlink();
    Expire(rec);
    ++expired;
  }
  return expired;
}

std::size_t BasicWheel::AdvanceTo(Tick target) {
  TWHEEL_ASSERT_MSG(target >= now_, "AdvanceTo target is in the past");
  ++counts_.batch_advances;
  std::size_t expired = 0;
  while (now_ < target) {
    const Duration remaining = target - now_;
    const std::optional<std::size_t> dist = occupancy_.NextSetDistance(cursor_);
    if (!dist.has_value() || *dist > remaining) {
      // Nothing due on (now, target]: jump clock and cursor in one step.
      counts_.ticks += remaining;
      counts_.slots_skipped += remaining;
      cursor_ = (cursor_ + remaining) % slots_.size();
      now_ = target;
      break;
    }
    counts_.ticks += *dist;
    counts_.slots_skipped += *dist - 1;
    cursor_ = (cursor_ + *dist) % slots_.size();
    now_ += *dist;
    expired += DrainCursorSlot();
  }
  return expired;
}

std::optional<Tick> BasicWheel::NextExpiryHint() const {
  const std::optional<std::size_t> dist = occupancy_.NextSetDistance(cursor_);
  if (!dist.has_value()) {
    return std::nullopt;
  }
  return now_ + *dist;
}

bool BasicWheel::FastForward(Tick target) {
  TWHEEL_ASSERT(target >= now_);
  const std::optional<Tick> next = NextExpiryHint();
  TWHEEL_ASSERT_MSG(!next.has_value() || target < *next,
                    "FastForward would skip an expiry");
  const Duration delta = target - now_;
  counts_.slots_skipped += delta;
  cursor_ = (cursor_ + delta) % slots_.size();
  now_ = target;
  return true;
}


template class TimerServiceBase<BasicWheel>;

}  // namespace twheel
