#include "src/core/hybrid_wheel.h"

#include <algorithm>

#include "src/base/assert.h"

namespace twheel {

HybridWheel::HybridWheel(std::size_t wheel_size, std::size_t max_timers)
    : TimerServiceBase(max_timers), slots_(wheel_size), occupancy_(wheel_size) {
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

std::size_t HybridWheel::PerTickBookkeeping() {
  ++counts_.ticks;
  ++now_;
  cursor_ = (cursor_ + 1) % slots_.size();
  return DrainCursorSlot() + DrainDueOverflow();
}

std::size_t HybridWheel::DrainCursorSlot() {
  IntrusiveList<TimerRecord>& slot = slots_[cursor_];
  if (slot.empty()) {
    ++counts_.empty_slot_checks;
    return 0;
  }
  // As BasicWheel: wheel intervals are < wheel size, so everything here is due
  // exactly now; splice the whole slot out in O(1) before dispatching.
  occupancy_.Clear(cursor_);
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

std::size_t HybridWheel::AdvanceTo(Tick target) {
  TWHEEL_ASSERT_MSG(target >= now_, "AdvanceTo target is in the past");
  ++counts_.batch_advances;
  std::size_t expired = 0;
  while (now_ < target) {
    const Duration remaining = target - now_;
    // Next event is the earlier of the wheel's next occupied slot and the annex
    // head (the annex is ordered, so its head is its minimum; it is strictly in
    // the future outside a drain).
    const std::optional<std::size_t> dist = occupancy_.NextSetDistance(cursor_);
    Duration step = remaining + 1;
    if (dist.has_value()) {
      step = std::min<Duration>(step, *dist);
    }
    if (const TimerRecord* head = overflow_.front()) {
      TWHEEL_ASSERT(head->expiry_tick > now_);
      step = std::min<Duration>(step, head->expiry_tick - now_);
    }
    if (step > remaining) {
      counts_.ticks += remaining;
      counts_.slots_skipped += remaining;
      cursor_ = (cursor_ + remaining) % slots_.size();
      now_ = target;
      break;
    }
    counts_.ticks += step;
    counts_.slots_skipped += step - 1;
    cursor_ = (cursor_ + step) % slots_.size();
    now_ += step;
    // The stop may be annex-driven with an empty slot under the cursor; the probe
    // is then an honest empty_slot_check, same as the per-tick loop would pay.
    expired += DrainCursorSlot();
    expired += DrainDueOverflow();
  }
  return expired;
}

std::optional<Tick> HybridWheel::NextExpiryHint() const {
  const std::optional<std::size_t> dist = occupancy_.NextSetDistance(cursor_);
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

bool HybridWheel::FastForward(Tick target) {
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


template class TimerServiceBase<HybridWheel>;

}  // namespace twheel
