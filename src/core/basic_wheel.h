// Scheme 4 — the basic timing wheel for bounded intervals (Section 5, Figure 8).
//
// "The current time is represented by a pointer to an element in a circular buffer
// with dimensions [0, MaxInterval - 1]. To set a timer at j units past current time,
// we index into Element (i + j mod MaxInterval), and put the timer at the head of a
// list of timers that will expire at a time = CurrentTime + j units."
//
// Because the wheel turns one slot per tick (unlike the logic-simulation wheels of
// Section 4.2, which rotate only once per MaxInterval or MaxInterval/2 units), every
// timer with interval < MaxInterval lands in the array — there is no overflow list.
// START_TIMER, STOP_TIMER and PER_TICK_BOOKKEEPING are all O(1); the per-tick cost
// of stepping through an empty slot is absorbed by the entity that must increment
// the clock anyway (the paper's key observation about bucket sorts vs timers).
//
// Intervals >= MaxInterval are outside the scheme's contract; OverflowPolicy selects
// between rejecting them (the paper's "guarantee that all timers are set for periods
// less than MaxInterval") and clamping to MaxInterval - 1 (useful when the caller
// tolerates early expiry, e.g. coarse failure detectors).
//
// One deliberate deviation: timers are appended to the *tail* of a slot's list, not
// its head. Both are O(1); FIFO order among timers due at the same tick gives every
// scheme in the library the same canonical expiry order, which the differential
// tests rely on.
//
// An occupancy bitmap (base/bitmap.h) mirrors slot emptiness so the base's
// AdvanceTo can jump the cursor straight to the next populated slot. Because
// intervals are < wheel size, the bitmap distance from the cursor is exactly the
// distance to the next expiry, which also makes NextExpiryHint / FastForward exact
// for this scheme. The cursor is now() mod the wheel size, so a jump moves only
// the clock.

#ifndef TWHEEL_SRC_CORE_BASIC_WHEEL_H_
#define TWHEEL_SRC_CORE_BASIC_WHEEL_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/bits.h"
#include "src/base/intrusive_list.h"
#include "src/core/timer_service.h"

namespace twheel {

class BasicWheel final : public TimerServiceBase<BasicWheel> {
 public:
  // `max_interval` is the wheel size: the longest startable timer is
  // max_interval - 1 ticks.
  explicit BasicWheel(std::size_t max_interval,
                      OverflowPolicy policy = OverflowPolicy::kReject,
                      std::size_t max_timers = 0);

  ~BasicWheel() override;

  std::string_view name() const final { return "scheme4-basic-wheel"; }

  std::size_t max_interval() const { return slots_.size(); }
  // The paper's "current time pointer".
  std::size_t cursor() const { return slot_of_(now_); }

  // Fixed: one list head per slot plus the occupancy bitmap — the memory-for-speed
  // trade of a bucket sort ("it is difficult to justify 2^32 words of memory to
  // implement 32 bit timers"). Per record: links (16) + expiry (8) + cookie (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.fixed_bytes = slots_.size() * sizeof(IntrusiveList<TimerRecord>) +
                          OccupancyBitmap::BytesFor(slots_.size());
    profile.essential_record_bytes = 32;
    return profile;
  }

 private:
  friend class TimerServiceBase<BasicWheel>;

  // Intervals >= the wheel size: kIntervalOutOfRange, or clamped to
  // max_interval - 1 under OverflowPolicy::kClamp.
  TimerError Admit(Duration* interval) const {
    if (*interval >= slots_.size()) {
      if (policy_ == OverflowPolicy::kReject) {
        return TimerError::kIntervalOutOfRange;
      }
      *interval = slots_.size() - 1;
    }
    return TimerError::kOk;
  }
  // O(1): append at slot cursor + interval / unlink, keeping the slot's
  // occupancy bit in step (a restart moves the record between two slots).
  void Link(TimerRecord* rec) {
    const std::size_t index = slot_of_(rec->expiry_tick);
    rec->home_slot = static_cast<std::uint32_t>(index);
    slots_[index].PushBack(rec);
    occupancy_.Set(index);
  }
  void Unlink(TimerRecord* rec) {
    rec->Unlink();
    if (slots_[rec->home_slot].empty()) {
      occupancy_.Clear(rec->home_slot);
    }
  }

  // Expire everything in the slot under the cursor. The whole slot is spliced into
  // a local batch first, so handlers that re-arm timers never race the walk.
  std::size_t Visit();
  // The next occupied slot. Exact, so it is also NextExpiryHint: intervals are
  // < the wheel size, so the slot under the cursor is empty outside a drain and
  // a slot's distance from the cursor is its records' distance to expiry.
  std::optional<Tick> NextVisit() const;

  OverflowPolicy policy_;
  std::vector<IntrusiveList<TimerRecord>> slots_;
  OccupancyBitmap occupancy_;
  FastModulus slot_of_;  // tick -> slot: mod the wheel size
};


extern template class TimerServiceBase<BasicWheel>;

}  // namespace twheel

#endif  // TWHEEL_SRC_CORE_BASIC_WHEEL_H_
