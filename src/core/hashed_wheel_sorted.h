// Scheme 5 — hashed timing wheel with sorted per-bucket lists (Section 6.1.1).
//
// For arbitrary 2^B-bit intervals with a table of 2^k slots: the low-order k bits of
// the interval select a slot relative to the current-time pointer (a single AND when
// the table is a power of two, which this implementation requires), and the
// high-order bits — the number of remaining wheel revolutions — are "stored in a
// list pointed to by the index" (Figure 9). Each bucket is maintained exactly like a
// Scheme 2 ordered list, so PER_TICK_BOOKKEEPING only examines the bucket head:
// O(1) unless timers actually expire.
//
// Latencies: START_TIMER averages O(1) when n < TableSize and the hash spreads
// timers evenly, but its worst case is O(n) — the paper's reason for concluding that
// "Scheme 5 depends too much on the hash distribution to be generally useful."
// STOP_TIMER is O(1); "a pleasing observation is that the scheme reduces to Scheme 2
// if the array size is 1" (verified by a differential test with table_size == 1...
// we require >= 2 slots for the wheel to be a wheel, and test the reduction against
// table_size == 2 plus an explicit Scheme 2 run).
//
// Representation note: the paper says the per-tick scan "decrements" the high-order
// bits of the bucket head. Decrementing only the observable head of a sorted bucket
// once per revolution is equivalent to tracking the *absolute* revolution number
// (expiry_tick >> k) and comparing it with the current revolution (now >> k): both
// expire a record on exactly the revolution where its residue reaches zero, and the
// absolute form keeps bucket order immutable after insertion. We store the absolute
// revolution in TimerRecord::rounds; the sort key (rounds, seq) equals sorting by
// (expiry_tick, seq) because all records in a bucket share their low k bits.

#ifndef TWHEEL_SRC_CORE_HASHED_WHEEL_SORTED_H_
#define TWHEEL_SRC_CORE_HASHED_WHEEL_SORTED_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/bits.h"
#include "src/base/intrusive_list.h"
#include "src/core/timer_service.h"

namespace twheel {

class HashedWheelSorted final : public TimerServiceBase<HashedWheelSorted> {
 public:
  // `table_size` must be a power of two >= 2 (the paper's AND-instruction hash).
  explicit HashedWheelSorted(std::size_t table_size, std::size_t max_timers = 0);

  ~HashedWheelSorted() override;

  // Exact, O(occupied buckets): each occupied bucket's head is its minimum (the
  // Scheme 2 sort order), so the hint is the least head expiry over set bits.
  // NextVisit is only the next occupied bucket, whose head may be due a
  // revolution later.
  std::optional<Tick> NextExpiryHint() const final;
  // A pure clock jump rather than the base's walk: buckets are keyed by
  // absolute revolution, so dead time needs no visit, and walking the occupied
  // buckets on the way would add a head comparison at each.
  bool FastForward(Tick target) final;
  std::string_view name() const final { return "scheme5-hashed-sorted"; }

  std::size_t table_size() const { return slots_.size(); }

  // Fixed: the hash table's list heads plus the occupancy bitmap. Per record:
  // links (16) + revolution / high-order bits (8) + cookie (8) + expiry (8) + seq
  // for stable order (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.fixed_bytes = slots_.size() * sizeof(IntrusiveList<TimerRecord>) +
                          OccupancyBitmap::BytesFor(slots_.size());
    profile.essential_record_bytes = 48;
    return profile;
  }

 private:
  friend class TimerServiceBase<HashedWheelSorted>;

  // Low-order bits pick the slot; high-order bits (the revolution on which the
  // timer is due) go into the bucket, kept sorted as in Scheme 2: O(bucket)
  // comparisons. A restarted record keeps its original seq, so among
  // same-revolution entries it re-enters the bucket at its start-order
  // position — the same canonical FIFO the oracle reproduces. Both hooks keep
  // the occupancy bit in step.
  void Link(TimerRecord* rec) {
    const std::uint64_t slot_index = rec->expiry_tick & mask();
    rec->rounds = rec->expiry_tick >> shift_;
    rec->home_slot = static_cast<std::uint32_t>(slot_index);
    IntrusiveList<TimerRecord>& bucket = slots_[slot_index];
    TimerRecord* cur = bucket.front();
    while (cur != nullptr) {
      ++counts_.comparisons;
      if (cur->rounds > rec->rounds ||
          (cur->rounds == rec->rounds && cur->seq > rec->seq)) {
        break;
      }
      cur = bucket.Next(cur);
    }
    if (cur == nullptr) {
      bucket.PushBack(rec);
    } else {
      bucket.InsertBefore(rec, cur);
    }
    occupancy_.Set(slot_index);
  }
  void Unlink(TimerRecord* rec) {
    rec->Unlink();
    if (slots_[rec->home_slot].empty()) {
      occupancy_.Clear(rec->home_slot);
    }
  }

  std::uint64_t mask() const { return slots_.size() - 1; }

  // Head-compare drain of the bucket under the current time.
  std::size_t Visit();
  // The next occupied bucket. Unlike Scheme 6 a visit there mutates nothing: it
  // is one head comparison, possibly finding the head due on a later
  // revolution — still far cheaper than probing every empty slot.
  std::optional<Tick> NextVisit() const;

  std::uint32_t shift_;  // log2(table_size)
  std::vector<IntrusiveList<TimerRecord>> slots_;
  OccupancyBitmap occupancy_;
};


extern template class TimerServiceBase<HashedWheelSorted>;

}  // namespace twheel

#endif  // TWHEEL_SRC_CORE_HASHED_WHEEL_SORTED_H_
