#include "src/lawn/lawn_timers.h"

#include "src/base/assert.h"

namespace twheel::lawn {

LawnTimers::LawnTimers(LawnOptions options)
    : TimerServiceBase(options.max_timers),
      max_distinct_ttls_(options.max_distinct_ttls),
      slop_bits_(options.slop_bits) {}

LawnTimers::~LawnTimers() {
  for (Bucket& bucket : buckets_) {
    while (TimerRecord* rec = bucket.list.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }
  while (TimerRecord* rec = overflow_.front()) {
    rec->Unlink();
    ReleaseRecord(rec);
  }
}

void LawnTimers::Link(TimerRecord* rec) {
  const Duration ttl = rec->interval;
  auto it = index_of_ttl_.find(ttl);
  if (it != index_of_ttl_.end()) {
    rec->home_slot = it->second;
    buckets_[it->second].list.PushBack(rec);
    return;
  }
  if (max_distinct_ttls_ == 0 || buckets_.size() < max_distinct_ttls_) {
    const auto index = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
    buckets_.back().ttl = ttl;
    index_of_ttl_.emplace(ttl, index);
    rec->home_slot = index;
    buckets_[index].list.PushBack(rec);
    return;
  }
  // Cap exceeded and this TTL has no bucket: the documented fallback. The
  // record joins the shared expiry-sorted overflow list; expiries stay exact,
  // only the O(1) start guarantee is forfeited for overflow residents.
  InsertOverflow(rec);
}

void LawnTimers::InsertOverflow(TimerRecord* rec) {
  rec->home_slot = kOverflowIndex;
  // Rear search (the Scheme 2 kFromRear idiom): restarts and fresh starts
  // carry the latest clock, so their expiry usually belongs at or near the
  // tail. Insert after any equal expiry so equal deadlines stay FIFO.
  TimerRecord* pos = overflow_.back();
  while (pos != nullptr) {
    ++counts_.comparisons;
    if (pos->expiry_tick <= rec->expiry_tick) {
      break;
    }
    pos = overflow_.Prev(pos);
  }
  if (pos == nullptr) {
    overflow_.PushFront(rec);
  } else if (overflow_.Next(pos) == nullptr) {
    overflow_.PushBack(rec);
  } else {
    overflow_.InsertBefore(rec, overflow_.Next(pos));
  }
}

std::size_t LawnTimers::Visit() {
  std::size_t expired = 0;
  // Index loop re-reads size(): an expiry handler may start a timer with a
  // fresh TTL, growing the deque mid-drain. The new bucket's head is a timer
  // started this tick (expiry >= now + 1), so visiting it is a no-op probe.
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    expired += DrainListHead(buckets_[i].list);
  }
  expired += DrainListHead(overflow_);
  return expired;
}

std::size_t LawnTimers::DrainListHead(IntrusiveList<TimerRecord>& list) {
  TimerRecord* rec = list.front();
  if (rec == nullptr || rec->expiry_tick > now_) {
    // One head probe found nothing due — the per-tick cost of an idle bucket,
    // the analogue of a wheel's empty-slot check.
    ++counts_.empty_slot_checks;
    return 0;
  }
  std::size_t expired = 0;
  while (rec != nullptr && rec->expiry_tick <= now_) {
    TWHEEL_ASSERT(rec->expiry_tick == now_);
    ++counts_.decrement_visits;
    // Non-final periodic fire: the relink moves the record to its period's
    // bucket TAIL with expiry now + period, so re-reading the head makes
    // progress even when the destination is this same bucket.
    if (TryFirePeriodic(rec)) {
      ++expired;
    } else {
      rec->Unlink();
      Expire(rec);
      ++expired;
    }
    rec = list.front();
  }
  return expired;
}

std::optional<Tick> LawnTimers::NextVisit() const {
  std::optional<Tick> best;
  for (const Bucket& bucket : buckets_) {
    const TimerRecord* head = bucket.list.front();
    if (head != nullptr && (!best.has_value() || head->expiry_tick < *best)) {
      best = head->expiry_tick;
    }
  }
  const TimerRecord* head = overflow_.front();
  if (head != nullptr && (!best.has_value() || head->expiry_tick < *best)) {
    best = head->expiry_tick;
  }
  return best;
}

}  // namespace twheel::lawn

template class twheel::TimerServiceBase<twheel::lawn::LawnTimers>;
