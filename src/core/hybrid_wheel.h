// The Section 5 hybrid: a bounded timing wheel with an ordered-list annex.
//
// "Still memory is finite: it is difficult to justify 2^32 words of memory to
// implement 32 bit timers. One solution is to implement timers within some range
// using this scheme and the allowed memory. Timers greater than this value are
// implemented using, say, Scheme 2."
//
// Intervals below the wheel size get Scheme 4's O(1) everything; longer intervals
// go to a Scheme 2 ordered list keyed by absolute expiry. PER_TICK_BOOKKEEPING is
// one slot visit plus one head comparison — still O(1) outside expiries. The trade
// is START_TIMER for long timers: O(n_long), acceptable exactly when long timers
// are rare (the common OS profile the paper assumes for this remedy). Long timers
// expire from the list directly; they never migrate into the wheel, so there is no
// periodic drain cost (contrast the TEGAS overflow rescan of Section 4.2).
//
// STOP_TIMER is O(1) for both residences: records unlink intrusively wherever they
// live.

#ifndef TWHEEL_SRC_CORE_HYBRID_WHEEL_H_
#define TWHEEL_SRC_CORE_HYBRID_WHEEL_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/bits.h"
#include "src/base/intrusive_list.h"
#include "src/core/timer_service.h"

namespace twheel {

class HybridWheel final : public TimerServiceBase<HybridWheel> {
 public:
  // Intervals in [1, wheel_size) take the wheel; longer ones take the list.
  explicit HybridWheel(std::size_t wheel_size, std::size_t max_timers = 0);

  ~HybridWheel() override;

  std::string_view name() const final { return "scheme4-2-hybrid"; }

  std::size_t wheel_size() const { return slots_.size(); }
  std::size_t OverflowCountSlow() const { return overflow_.CountSlow(); }

  // Fixed: the wheel's list heads, its occupancy bitmap, and the annex list's
  // head. Per record: links (16) + expiry (8) + cookie (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.fixed_bytes =
        (slots_.size() + 1) * sizeof(IntrusiveList<TimerRecord>) +
        OccupancyBitmap::BytesFor(slots_.size());
    profile.essential_record_bytes = 32;
    return profile;
  }

 private:
  friend class TimerServiceBase<HybridWheel>;

  // Residence is decided from the interval alone — an O(1) wheel slot below
  // the wheel size, else the sorted annex — so a restart's four transitions
  // (wheel<->wheel, wheel<->annex) are one O(1) unlink and this placement.
  void Link(TimerRecord* rec) {
    if (rec->interval < slots_.size()) {
      const std::size_t index = slot_of_(rec->expiry_tick);
      rec->home_slot = static_cast<std::uint32_t>(index);
      slots_[index].PushBack(rec);
      occupancy_.Set(index);
      return;
    }
    // Scheme 2 annex: sorted insert from the front by (expiry, FIFO among
    // equals). Annex residents have home_slot == kNoIndex.
    rec->home_slot = TimerRecord::kNoIndex;
    TimerRecord* cur = overflow_.front();
    while (cur != nullptr) {
      ++counts_.comparisons;
      if (cur->expiry_tick > rec->expiry_tick) {
        break;
      }
      cur = overflow_.Next(cur);
    }
    if (cur == nullptr) {
      overflow_.PushBack(rec);
    } else {
      overflow_.InsertBefore(rec, cur);
    }
  }
  void Unlink(TimerRecord* rec) {
    rec->Unlink();  // O(1) regardless of residence
    if (rec->home_slot != TimerRecord::kNoIndex && slots_[rec->home_slot].empty()) {
      occupancy_.Clear(rec->home_slot);
    }
  }

  // Expire the slot under the cursor (splice-drain, as BasicWheel) and then any
  // due heads of the overflow annex. Returns expiries dispatched.
  std::size_t Visit();
  std::size_t DrainCursorSlot();
  std::size_t DrainDueOverflow();
  // The earlier of the wheel's next occupied slot and the annex head. Exact, so
  // it is also NextExpiryHint: the wheel's side because intervals there are <
  // wheel size, the annex's because it is ordered by absolute expiry (its head
  // is strictly in the future outside a drain).
  std::optional<Tick> NextVisit() const;

  std::vector<IntrusiveList<TimerRecord>> slots_;
  IntrusiveList<TimerRecord> overflow_;  // Scheme 2 list, ascending absolute expiry
  OccupancyBitmap occupancy_;            // wheel slots only; the annex has a head
  FastModulus slot_of_;                  // tick -> slot: mod the wheel size
};


extern template class TimerServiceBase<HybridWheel>;

}  // namespace twheel

#endif  // TWHEEL_SRC_CORE_HYBRID_WHEEL_H_
