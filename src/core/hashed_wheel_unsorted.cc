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

std::size_t HashedWheelUnsorted::PerTickBookkeeping() {
  ++counts_.ticks;
  ++now_;
  return VisitCursorBucket();
}

std::size_t HashedWheelUnsorted::VisitCursorBucket() {
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

std::size_t HashedWheelUnsorted::AdvanceTo(Tick target) {
  TWHEEL_ASSERT_MSG(target >= now_, "AdvanceTo target is in the past");
  ++counts_.batch_advances;
  return BatchAdvance(target, /*count_ticks=*/true);
}

std::size_t HashedWheelUnsorted::BatchAdvance(Tick target, bool count_ticks) {
  std::size_t expired = 0;
  while (now_ < target) {
    const Duration remaining = target - now_;
    // Next occupied bucket ahead of the cursor; distance table_size() means the
    // cursor's own bucket, one full revolution away. Every occupied bucket must be
    // visited (rounds decrement), so the jump stops there even if nothing is due.
    const std::optional<std::size_t> dist =
        occupancy_.NextSetDistance(now_ & mask());
    if (!dist.has_value() || *dist > remaining) {
      if (count_ticks) {
        counts_.ticks += remaining;
      }
      counts_.slots_skipped += remaining;
      now_ = target;
      break;
    }
    if (count_ticks) {
      counts_.ticks += *dist;
    }
    counts_.slots_skipped += *dist - 1;
    now_ += *dist;
    expired += VisitCursorBucket();
  }
  return expired;
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

bool HashedWheelUnsorted::FastForward(Tick target) {
  TWHEEL_ASSERT(target >= now_);
  const std::optional<Tick> next = NextExpiryHint();
  TWHEEL_ASSERT_MSG(!next.has_value() || target < *next,
                    "FastForward would skip an expiry");
  // Unlike the pure cursor jump of BasicWheel, revolution counts must still be
  // maintained: the walk visits occupied buckets it crosses (decrementing rounds)
  // but, per the precondition, can never dispatch an expiry.
  const std::size_t fired = BatchAdvance(target, /*count_ticks=*/false);
  TWHEEL_ASSERT_MSG(fired == 0, "FastForward dispatched an expiry");
  return true;
}


template class TimerServiceBase<HashedWheelUnsorted>;

}  // namespace twheel
