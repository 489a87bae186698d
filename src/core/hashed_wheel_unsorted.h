// Scheme 6 — hashed timing wheel with unsorted per-bucket lists (Section 6.1.2).
//
// The paper's recommendation for a general-purpose OS timer facility (together with
// Scheme 7), and the scheme the authors implemented on a VAX for Section 7.
//
// START_TIMER is O(1) worst case: hash the expiry's low-order bits to a slot (an AND
// — table sizes must be powers of two) and append; the high-order bits are kept as a
// count of remaining wheel revolutions in TimerRecord::rounds. PER_TICK_BOOKKEEPING
// walks the *entire* bucket under the cursor, decrementing each record's revolution
// count and expiring those that reach zero — exactly Scheme 1 confined to one
// bucket.
//
// The paper's sharpest observation (reproduced by bench_sec6_burstiness): "every
// TableSize ticks we decrement once all timers that are still living. Thus for n
// timers we do n/TableSize work on average per tick" — *regardless of the hash
// distribution*. The hash only controls the variance ("burstiness"): if all n timers
// hash to one bucket we do O(n) work every TableSize-th tick and O(1) otherwise,
// with the same mean. Hence the cheap AND hash is not just adequate but preferable —
// an "arbitrary hash function... would require PER_TICK_BOOKKEEPING to compute the
// hash on each timer tick."
//
// Batched advancement caveat specific to this scheme: rounds counts *cursor visits
// remaining*, so an occupied bucket must still be visited (and its residents
// decremented) once per revolution even when nothing in it is due — only empty
// buckets can be skipped outright. NextVisit therefore names every occupied
// bucket the cursor crosses, and AdvanceTo and FastForward stop at each; with a
// sparse table that is still a popcount-sized number of stops instead of one
// probe per tick.

#ifndef TWHEEL_SRC_CORE_HASHED_WHEEL_UNSORTED_H_
#define TWHEEL_SRC_CORE_HASHED_WHEEL_UNSORTED_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/bits.h"
#include "src/base/intrusive_list.h"
#include "src/core/timer_service.h"

namespace twheel {

class HashedWheelUnsorted final : public TimerServiceBase<HashedWheelUnsorted> {
 public:
  // `table_size` must be a power of two >= 2.
  explicit HashedWheelUnsorted(std::size_t table_size, std::size_t max_timers = 0);

  ~HashedWheelUnsorted() override;

  // Exact, but O(n) in outstanding timers: the bitmap confines the scan to live
  // buckets, within which each record's absolute expiry is examined. Use for
  // jump-driving sparse wheels, not as a hot-path query. NextVisit is only the
  // next occupied bucket, which may hold nothing but round decrements.
  std::optional<Tick> NextExpiryHint() const final;
  std::string_view name() const final { return "scheme6-hashed-unsorted"; }

  std::size_t table_size() const { return slots_.size(); }
  // Occupancy of the bucket the cursor will visit next, for burstiness studies.
  std::size_t BucketSizeSlow(std::size_t index) const { return slots_[index].CountSlow(); }

  // Fixed: the hash table's list heads plus the occupancy bitmap. Per record:
  // links (16) + remaining rounds (8) + cookie (8) + expiry (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.fixed_bytes = slots_.size() * sizeof(IntrusiveList<TimerRecord>) +
                          OccupancyBitmap::BytesFor(slots_.size());
    profile.essential_record_bytes = 40;
    return profile;
  }

 private:
  friend class TimerServiceBase<HashedWheelUnsorted>;

  // O(1) worst case: slot = low-order bits of the absolute expiry (equivalently,
  // current time pointer plus the interval's remainder mod TableSize). Rounds =
  // full revolutions the cursor must still make before the expiry visit: the
  // cursor reaches this slot for the first time within the next TableSize ticks,
  // then once per revolution, so a timer of interval I waits (I - 1) / TableSize
  // *additional* visits. A restart from inside an expiry handler whose new
  // interval is a multiple of TableSize relinks into the bucket being swept —
  // safe, because the sweep walks the spliced-out pending list, so the next
  // visit is a revolution away.
  void Link(TimerRecord* rec) {
    const std::uint64_t slot_index = rec->expiry_tick & mask();
    rec->rounds = (rec->interval - 1) >> shift_;
    rec->home_slot = static_cast<std::uint32_t>(slot_index);
    slots_[slot_index].PushBack(rec);
    occupancy_.Set(slot_index);
  }
  void Unlink(TimerRecord* rec) {
    rec->Unlink();
    if (slots_[rec->home_slot].empty()) {
      occupancy_.Clear(rec->home_slot);
    }
  }

  std::uint64_t mask() const { return slots_.size() - 1; }

  // The Scheme 1 sweep of the bucket under the current time: decrement every
  // resident's revolution count, expire those reaching zero.
  std::size_t Visit();
  // The next occupied bucket ahead of the cursor; distance table_size() means
  // the cursor's own bucket, one full revolution away. Every occupied bucket
  // must be visited (rounds decrement), so a jump stops there even if nothing
  // is due.
  std::optional<Tick> NextVisit() const;

  std::uint32_t shift_;  // log2(table_size)
  std::vector<IntrusiveList<TimerRecord>> slots_;
  OccupancyBitmap occupancy_;
};


extern template class TimerServiceBase<HashedWheelUnsorted>;

}  // namespace twheel

#endif  // TWHEEL_SRC_CORE_HASHED_WHEEL_UNSORTED_H_
