#include "src/core/hashed_wheel_sorted.h"

#include "src/base/assert.h"

namespace twheel {

HashedWheelSorted::HashedWheelSorted(std::size_t table_size, std::size_t max_timers)
    : TimerServiceBase(max_timers),
      shift_(Log2Floor(table_size)),
      slots_(table_size),
      occupancy_(table_size) {
  TWHEEL_ASSERT_MSG(IsPowerOfTwo(table_size) && table_size >= 2,
                    "table size must be a power of two >= 2");
}

HashedWheelSorted::~HashedWheelSorted() {
  for (auto& slot : slots_) {
    while (TimerRecord* rec = slot.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }
}

std::size_t HashedWheelSorted::Visit() {
  const std::size_t index = now_ & mask();
  IntrusiveList<TimerRecord>& bucket = slots_[index];
  if (bucket.empty()) {
    ++counts_.empty_slot_checks;
    return 0;
  }
  const std::uint64_t revolution = now_ >> shift_;
  std::size_t expired = 0;
  // Sorted bucket: only the head needs examining; expire while it is due on this
  // revolution (its expiry tick is then exactly now). A re-arm from a handler can
  // only insert for a later revolution (intervals that are multiples of TableSize
  // land back here with rounds > revolution), so the head loop terminates.
  while (TimerRecord* head = bucket.front()) {
    ++counts_.comparisons;
    if (head->rounds != revolution) {
      break;
    }
    TWHEEL_ASSERT(head->expiry_tick == now_);
    // Non-final periodic fire: the sorted refile moves the head to a later
    // expiry (same-bucket periods land at rounds > revolution), so the head
    // loop still terminates.
    if (TryFirePeriodic(head)) {
      ++expired;
      continue;
    }
    head->Unlink();
    Expire(head);
    ++expired;
  }
  if (bucket.empty()) {
    occupancy_.Clear(index);
  }
  return expired;
}

std::optional<Tick> HashedWheelSorted::NextVisit() const {
  const std::optional<std::size_t> dist = occupancy_.NextSetDistance(now_ & mask());
  if (!dist.has_value()) {
    return std::nullopt;
  }
  return now_ + *dist;
}

std::optional<Tick> HashedWheelSorted::NextExpiryHint() const {
  std::optional<Tick> best;
  occupancy_.ForEachSet([&](std::size_t index) {
    const TimerRecord* head = slots_[index].front();
    TWHEEL_ASSERT_MSG(head != nullptr, "occupancy bit set on an empty bucket");
    if (!best.has_value() || head->expiry_tick < *best) {
      best = head->expiry_tick;
    }
  });
  return best;
}

bool HashedWheelSorted::FastForward(Tick target) {
  TWHEEL_ASSERT(target >= now_);
  const std::optional<Tick> next = NextExpiryHint();
  TWHEEL_ASSERT_MSG(!next.has_value() || target < *next,
                    "FastForward would skip an expiry");
  // The cursor is now & mask, so the jump moves only the clock.
  counts_.slots_skipped += target - now_;
  now_ = target;
  return true;
}


template class TimerServiceBase<HashedWheelSorted>;

}  // namespace twheel
