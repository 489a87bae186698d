#include "src/core/hashed_wheel_unsorted.h"

#include "src/base/assert.h"

namespace twheel {

HashedWheelUnsorted::HashedWheelUnsorted(std::size_t table_size, std::size_t max_timers)
    : TimerServiceBase(max_timers),
      shift_(Log2Floor(table_size)),
      slots_(table_size),
      occupancy_(table_size) {
  TWHEEL_ASSERT_MSG(IsPowerOfTwo(table_size) && table_size >= 2,
                    "table size must be a power of two >= 2");
}

HashedWheelUnsorted::~HashedWheelUnsorted() {
  for (auto& slot : slots_) {
    while (TimerRecord* rec = slot.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }
}

std::size_t HashedWheelUnsorted::Visit() {
  const std::size_t index = now_ & mask();
  IntrusiveList<TimerRecord>& bucket = slots_[index];
  if (bucket.empty()) {
    ++counts_.empty_slot_checks;
    return 0;
  }
  // "We must decrement the high order bits for every element in the [bucket],
  // exactly as in Scheme 1." The bucket is spliced out and walked via its head so
  // that expiry handlers may freely re-arm timers (a re-arm whose interval is a
  // multiple of TableSize lands back in *this* bucket and must wait a revolution,
  // not be visited now) and may stop any not-yet-visited sibling (which unlinks it
  // from the pending list without invalidating the walk).
  occupancy_.Clear(index);
  std::size_t expired = 0;
  IntrusiveList<TimerRecord> pending;
  pending.SpliceAll(bucket);
  while (TimerRecord* rec = pending.front()) {
    ++counts_.decrement_visits;
    if (rec->rounds == 0) {
      TWHEEL_ASSERT(rec->expiry_tick == now_);
      // Non-final periodic fire: RestartTimer relinks the still-linked record
      // (a period that is a multiple of TableSize lands back in `bucket`, a
      // revolution away — never in `pending`), then the handler runs.
      if (TryFirePeriodic(rec)) {
        ++expired;
        continue;
      }
      rec->Unlink();
      Expire(rec);
      ++expired;
    } else {
      rec->Unlink();
      --rec->rounds;
      bucket.PushBack(rec);
      occupancy_.Set(index);
    }
  }
  return expired;
}

std::optional<Tick> HashedWheelUnsorted::NextVisit() const {
  const std::optional<std::size_t> dist = occupancy_.NextSetDistance(now_ & mask());
  if (!dist.has_value()) {
    return std::nullopt;
  }
  return now_ + *dist;
}

std::optional<Tick> HashedWheelUnsorted::NextExpiryHint() const {
  std::optional<Tick> best;
  occupancy_.ForEachSet([&](std::size_t index) {
    for (const TimerRecord* rec = slots_[index].front(); rec != nullptr;
         rec = slots_[index].Next(rec)) {
      if (!best.has_value() || rec->expiry_tick < *best) {
        best = rec->expiry_tick;
      }
    }
  });
  return best;
}


template class TimerServiceBase<HashedWheelUnsorted>;

}  // namespace twheel
