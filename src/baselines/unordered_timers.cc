#include "src/baselines/unordered_timers.h"

namespace twheel {

std::size_t UnorderedTimers::Visit() {
  if (records_.empty()) {
    ++counts_.empty_slot_checks;
    return 0;
  }
  // DECREMENT every outstanding timer (Section 3.1). The population is spliced out
  // and walked via its head: expiry handlers may re-arm (new records go to the live
  // list and are not decremented until the next tick) and may stop any unvisited
  // sibling (unlinking it from the pending list without invalidating the walk).
  std::size_t expired = 0;
  IntrusiveList<TimerRecord> pending;
  pending.SpliceAll(records_);
  while (TimerRecord* rec = pending.front()) {
    ++counts_.decrement_visits;
    const bool due = mode_ == Scheme1Mode::kDecrement ? (--rec->remaining == 0)
                                                      : rec->expiry_tick <= now_;
    if (due) {
      // Non-final periodic fire: the relink moves the record from `pending`
      // back to the live list (resetting `remaining`), skipping this tick's
      // remaining decrements as a fresh start would.
      if (TryFirePeriodic(rec)) {
        ++expired;
        continue;
      }
      rec->Unlink();
      Expire(rec);
      ++expired;
    } else {
      rec->Unlink();
      records_.PushBack(rec);
    }
  }
  return expired;
}


template class TimerServiceBase<UnorderedTimers>;

}  // namespace twheel
