#include "src/baselines/sorted_list_timers.h"

namespace twheel {

void SortedListTimers::Link(TimerRecord* rec) {
  if (direction_ == SearchDirection::kFromFront) {
    // First record strictly later than the new one; insert before it. Equal keys are
    // passed over, preserving FIFO among equals.
    TimerRecord* cur = list_.front();
    while (cur != nullptr) {
      ++counts_.comparisons;
      if (cur->expiry_tick > rec->expiry_tick) {
        break;
      }
      cur = list_.Next(cur);
    }
    if (cur == nullptr) {
      list_.PushBack(rec);
    } else {
      list_.InsertBefore(rec, cur);
    }
  } else {
    // Last record due no later than the new one; insert after it (i.e. before its
    // successor). Scanning stops at the first key <= new, so equals stay FIFO.
    TimerRecord* cur = list_.back();
    while (cur != nullptr) {
      ++counts_.comparisons;
      if (cur->expiry_tick <= rec->expiry_tick) {
        break;
      }
      cur = list_.Prev(cur);
    }
    if (cur == nullptr) {
      list_.PushFront(rec);
    } else {
      TimerRecord* next = list_.Next(cur);
      if (next == nullptr) {
        list_.PushBack(rec);
      } else {
        list_.InsertBefore(rec, next);
      }
    }
  }
}

std::size_t SortedListTimers::Visit() {
  std::size_t expired = 0;
  // "PER_TICK_PROCESSING need only increment the current time of day, and compare it
  // with the head of the list" (Section 3.2).
  while (true) {
    TimerRecord* head = list_.front();
    if (head == nullptr) {
      ++counts_.empty_slot_checks;
      break;
    }
    ++counts_.comparisons;
    if (head->expiry_tick > now_) {
      break;
    }
    // A re-armed head re-inserts at now + period (> now), so the loop
    // terminates.
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


template class TimerServiceBase<SortedListTimers>;

}  // namespace twheel
