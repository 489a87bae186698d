// The conventional logic-simulation timing wheel (Section 4.2, Figure 7) — the
// TEGAS-2 / DECSIM mechanism the paper's Scheme 4 departs from.
//
// "The data structure into which timers are inserted is an array of lists, with a
// single overflow list for timers beyond the range of the array... The current time
// pointer is incremented modulo N. When it wraps to 0, the number of cycles is
// incremented, and the overflow list is checked; any elements due to occur in the
// current cycle are removed from the overflow list and inserted into the array of
// lists."
//
// The defect the paper identifies: "as time increases within a cycle and we travel
// down the array it becomes more likely that event records will be inserted in the
// overflow list" — the overflow list is unsorted and rescanned in full on every
// wheel rotation, so a far-future event is touched once per cycle (compare Scheme
// 6's per-bucket rounds, touched once per cycle but spread over all buckets; and
// Scheme 4, which simply refuses the situation). DECSIM's mitigation — "rotating the
// wheel half-way through the array" — is available as RotatePolicy::kHalfCycle.
//
// Implemented as a TimerService so the differential suite can verify it expires
// exactly, and the fig7-sim-wheel bench can expose the overflow-scan cost against
// Schemes 4 and 6. Overflow membership is observable via OverflowSizeSlow().
// RestartTimer and periodic laps relink the record in place like every other
// scheme (TimerServiceBase), so handles survive both, and the oracle matrix in
// tests/verify checks them.

#ifndef TWHEEL_SRC_SIM_TEGAS_WHEEL_H_
#define TWHEEL_SRC_SIM_TEGAS_WHEEL_H_

#include <cstddef>
#include <vector>

#include "src/base/intrusive_list.h"
#include "src/core/timer_service.h"

namespace twheel::sim {

enum class RotatePolicy : std::uint8_t {
  kFullCycle,  // TEGAS-2: drain overflow only when the cursor wraps to 0
  kHalfCycle,  // DECSIM: drain twice per cycle, halving overflow residency
};

class TegasWheel final : public TimerServiceBase<TegasWheel> {
 public:
  explicit TegasWheel(std::size_t cycle_length,
                      RotatePolicy policy = RotatePolicy::kFullCycle,
                      std::size_t max_timers = 0);

  ~TegasWheel() override;

  std::string_view name() const final {
    return policy_ == RotatePolicy::kFullCycle ? "tegas-wheel-full"
                                               : "tegas-wheel-half";
  }

  std::size_t cycle_length() const { return slots_.size(); }
  std::size_t OverflowSizeSlow() const { return overflow_.CountSlow(); }
  // Cumulative records moved out of the overflow list by rotations.
  std::uint64_t overflow_drains() const { return overflow_drains_; }
  // Cumulative overflow records *examined* by rotations (the rescan cost).
  std::uint64_t overflow_scans() const { return overflow_scans_; }

  // Fixed: the cycle array plus the single overflow list head. Per record: links
  // (16) + expiry (8) + cookie (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.fixed_bytes = (slots_.size() + 1) * sizeof(IntrusiveList<TimerRecord>);
    profile.essential_record_bytes = 32;
    return profile;
  }

 private:
  friend class TimerServiceBase<TegasWheel>;

  // The array slot when the expiry falls in the covered cycle, else the
  // overflow list — "any event occurring beyond the current cycle is inserted
  // into the overflow list", unsorted, rescanned at every rotation. The unlink
  // works for either residence.
  void Link(TimerRecord* rec) {
    if (rec->expiry_tick <= covered_until_) {
      slots_[rec->expiry_tick % slots_.size()].PushBack(rec);
    } else {
      overflow_.PushBack(rec);
    }
  }
  void Unlink(TimerRecord* rec) { rec->Unlink(); }

  // Rotate when the cycle (or half-cycle) turns, then expire the slot under
  // the current time.
  std::size_t Visit();
  // Move overflow entries due before `horizon` into the array.
  void DrainOverflow(Tick horizon);

  RotatePolicy policy_;
  std::vector<IntrusiveList<TimerRecord>> slots_;
  IntrusiveList<TimerRecord> overflow_;
  Tick covered_until_ = 0;  // expiries at or before this tick live in the array
  std::uint64_t overflow_drains_ = 0;
  std::uint64_t overflow_scans_ = 0;
};

}  // namespace twheel::sim

extern template class twheel::TimerServiceBase<twheel::sim::TegasWheel>;

#endif  // TWHEEL_SRC_SIM_TEGAS_WHEEL_H_
