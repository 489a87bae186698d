#include "src/hw/timer_chip.h"

#include "src/base/assert.h"

namespace twheel::hw {

ChipAssistedWheel::ChipAssistedWheel(std::size_t table_size, std::size_t max_timers)
    : TimerServiceBase(max_timers),
      shift_(Log2Floor(table_size)),
      slots_(table_size),
      busy_(table_size, false) {
  TWHEEL_ASSERT_MSG(IsPowerOfTwo(table_size) && table_size >= 2,
                    "table size must be a power of two >= 2");
}

ChipAssistedWheel::~ChipAssistedWheel() {
  for (auto& slot : slots_) {
    while (TimerRecord* rec = slot.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }
}

std::size_t ChipAssistedWheel::Visit() {
  // Chip side: the counter steps; a clear busy bit costs the host nothing — note
  // that unlike the plain Scheme 6 wheel, no host-side empty_slot_check is charged.
  ++chip_scans_;
  const std::size_t slot_index = static_cast<std::size_t>(now_ & mask());
  if (!busy_[slot_index]) {
    return 0;
  }

  // "It interrupts the host and gives the host the address of the queue."
  ++host_interrupts_;
  IntrusiveList<TimerRecord>& queue = slots_[slot_index];
  TWHEEL_ASSERT_MSG(!queue.empty(), "busy bit set on an empty queue");

  std::size_t expired = 0;
  IntrusiveList<TimerRecord> pending;
  pending.SpliceAll(queue);
  while (TimerRecord* rec = pending.front()) {
    ++counts_.decrement_visits;
    if (rec->rounds != 0) {
      rec->Unlink();
      --rec->rounds;
      queue.PushBack(rec);
      continue;
    }
    TWHEEL_ASSERT(rec->expiry_tick == now_);
    ++expired;
    // Non-final periodic fire: the relink unlinks the record from `pending` and
    // files it by its next deadline (a period that is a multiple of the table
    // size lands back in `queue`, a revolution away).
    if (TryFirePeriodic(rec)) {
      continue;
    }
    rec->Unlink();
    Expire(rec);
  }
  // Reconcile the busy bit with the queue's final state. (Mid-drain, a reentrant
  // stop, restart or periodic relink can observe the spliced-out queue as empty
  // and send an early free notification, and a reentrant start a busy one; the
  // final state wins.)
  if (queue.empty() && busy_[slot_index]) {
    NotifyFree(slot_index);
  } else if (!queue.empty() && !busy_[slot_index]) {
    NotifyBusy(slot_index);
  }
  return expired;
}

}  // namespace twheel::hw

template class twheel::TimerServiceBase<twheel::hw::ChipAssistedWheel>;
