#include "src/sim/tegas_wheel.h"

#include "src/base/assert.h"

namespace twheel::sim {

TegasWheel::TegasWheel(std::size_t cycle_length, RotatePolicy policy,
                       std::size_t max_timers)
    : TimerServiceBase(max_timers), policy_(policy), slots_(cycle_length) {
  TWHEEL_ASSERT_MSG(cycle_length >= 2, "wheel needs at least two slots");
  if (policy_ == RotatePolicy::kHalfCycle) {
    TWHEEL_ASSERT_MSG(cycle_length % 2 == 0, "half-cycle rotation needs an even wheel");
  }
  covered_until_ = cycle_length - 1;  // cycle 0 is in the array from the start
}

TegasWheel::~TegasWheel() {
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

std::size_t TegasWheel::Visit() {
  const std::size_t n = slots_.size();
  const std::size_t rotation = policy_ == RotatePolicy::kFullCycle ? n : n / 2;
  if (now_ % rotation == 0) {
    covered_until_ = now_ + n - 1;
    DrainOverflow(covered_until_);
  }

  IntrusiveList<TimerRecord>& slot = slots_[now_ % n];
  if (slot.empty()) {
    ++counts_.empty_slot_checks;
    return 0;
  }
  std::size_t expired = 0;
  while (TimerRecord* rec = slot.front()) {
    TWHEEL_ASSERT(rec->expiry_tick == now_);
    ++expired;
    // Non-final periodic fire: the relink files the record at now + period,
    // which the covered cycle maps to another slot or the overflow list (it
    // ends before now + cycle_length), never back into this one.
    if (TryFirePeriodic(rec)) {
      continue;
    }
    rec->Unlink();
    Expire(rec);
  }
  return expired;
}

void TegasWheel::DrainOverflow(Tick horizon) {
  TimerRecord* rec = overflow_.front();
  while (rec != nullptr) {
    TimerRecord* next = overflow_.Next(rec);
    // Every overflow resident is examined on every rotation — the cost the paper's
    // Scheme 4/6 per-bucket designs avoid.
    ++overflow_scans_;
    ++counts_.decrement_visits;
    if (rec->expiry_tick <= horizon) {
      rec->Unlink();
      slots_[rec->expiry_tick % slots_.size()].PushBack(rec);
      ++overflow_drains_;
      ++counts_.migrations;
    }
    rec = next;
  }
}

}  // namespace twheel::sim

template class twheel::TimerServiceBase<twheel::sim::TegasWheel>;
