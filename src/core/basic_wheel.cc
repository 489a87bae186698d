#include "src/core/basic_wheel.h"

#include "src/base/assert.h"

namespace twheel {

BasicWheel::BasicWheel(std::size_t max_interval, OverflowPolicy policy,
                       std::size_t max_timers)
    : TimerServiceBase(max_timers),
      policy_(policy),
      slots_(max_interval),
      occupancy_(max_interval),
      slot_of_(max_interval) {
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

std::size_t BasicWheel::Visit() {
  const std::size_t index = cursor();
  IntrusiveList<TimerRecord>& slot = slots_[index];
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
  occupancy_.Clear(index);
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

std::optional<Tick> BasicWheel::NextVisit() const {
  const std::optional<std::size_t> dist = occupancy_.NextSetDistance(cursor());
  if (!dist.has_value()) {
    return std::nullopt;
  }
  return now_ + *dist;
}

template class TimerServiceBase<BasicWheel>;

}  // namespace twheel
