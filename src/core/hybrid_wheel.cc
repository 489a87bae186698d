#include "src/core/hybrid_wheel.h"

#include "src/base/assert.h"

namespace twheel {

HybridWheel::HybridWheel(std::size_t wheel_size, std::size_t max_timers)
    : TimerServiceBase(max_timers),
      slots_(wheel_size),
      occupancy_(wheel_size),
      slot_of_(wheel_size) {
  TWHEEL_ASSERT_MSG(wheel_size >= 2, "wheel needs at least two slots");
}

HybridWheel::~HybridWheel() {
  for (auto& slot : slots_) {
    while (TimerRecord* rec = slot.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }
  while (TimerRecord* rec = overflow_.front()) {
    rec->Unlink();
    ReleaseRecord(rec);
  }
}

std::size_t HybridWheel::Visit() {
  // The slot drains before the annex, so records due on one tick fire in that
  // order. A jump may stop for the annex with an empty slot under the cursor;
  // the probe is then an honest empty_slot_check, as on every other tick.
  const std::size_t expired = DrainCursorSlot();
  return expired + DrainDueOverflow();
}

std::size_t HybridWheel::DrainCursorSlot() {
  const std::size_t cursor = slot_of_(now_);
  IntrusiveList<TimerRecord>& slot = slots_[cursor];
  if (slot.empty()) {
    ++counts_.empty_slot_checks;
    return 0;
  }
  // As BasicWheel: wheel intervals are < wheel size, so everything here is due
  // exactly now; splice the whole slot out in O(1) before dispatching.
  occupancy_.Clear(cursor);
  IntrusiveList<TimerRecord> pending;
  pending.SpliceAll(slot);
  std::size_t expired = 0;
  while (TimerRecord* rec = pending.front()) {
    TWHEEL_ASSERT(rec->expiry_tick == now_);
    // Non-final periodic fires relink in place (wheel or annex, re-decided by
    // the period) before the handler runs.
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

std::size_t HybridWheel::DrainDueOverflow() {
  // Scheme 2 head check for the long timers.
  std::size_t expired = 0;
  while (true) {
    TimerRecord* head = overflow_.front();
    if (head == nullptr) {
      break;
    }
    ++counts_.comparisons;
    if (head->expiry_tick > now_) {
      break;
    }
    // A re-armed head refiles at now + period (> now), so the loop terminates.
    if (TryFirePeriodic(head)) {
      ++expired;
      continue;
    }
    head->Unlink();
    Expire(head);
    ++expired;
  }
  return expired;
}

std::optional<Tick> HybridWheel::NextVisit() const {
  const std::optional<std::size_t> dist =
      occupancy_.NextSetDistance(slot_of_(now_));
  const TimerRecord* head = overflow_.front();
  std::optional<Tick> best;
  if (dist.has_value()) {
    best = now_ + *dist;
  }
  if (head != nullptr && (!best.has_value() || head->expiry_tick < *best)) {
    best = head->expiry_tick;
  }
  return best;
}

template class TimerServiceBase<HybridWheel>;

}  // namespace twheel
