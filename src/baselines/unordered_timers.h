// Scheme 1 — the straightforward scheme (Section 3.1).
//
// "START_TIMER finds a memory location and sets that location to the specified timer
// interval. Every T units, PER_TICK_BOOKKEEPING will decrement each outstanding
// timer; if any timer becomes zero, EXPIRY_PROCESSING is called."
//
// Latencies (Figure 4): START_TIMER O(1), STOP_TIMER O(1),
// PER_TICK_BOOKKEEPING O(n). Minimum possible space: one record per timer, no
// auxiliary structure beyond the membership list that lets the per-tick scan find
// records (the paper's "memory location" per timer; we thread them on an intrusive
// list rather than scanning a static array, which preserves both latencies).
//
// The paper deems it appropriate when there are few outstanding timers, most timers
// are stopped within a few ticks, or per-tick processing is done by hardware — the
// fig4-schemes12 bench shows exactly where it stops being appropriate.

#ifndef TWHEEL_SRC_BASELINES_UNORDERED_TIMERS_H_
#define TWHEEL_SRC_BASELINES_UNORDERED_TIMERS_H_

#include <cstddef>

#include "src/base/intrusive_list.h"
#include "src/core/timer_service.h"

namespace twheel {

// Section 3.1's footnote, made concrete: "instead of doing a DECREMENT, we can
// store the absolute time at which timers expire and do a COMPARE. This option is
// valid for all timer schemes we describe; the choice between them will depend on
// the size of the time-of-day field, the cost of each instruction, and the
// hardware." Scheme 1 demonstrates both modes; the per-tick scan is O(n) either
// way, differing only in whether it writes (decrement) or merely reads (compare)
// each record.
enum class Scheme1Mode : std::uint8_t {
  kDecrement,  // the paper's default: count each record down to zero
  kCompare,    // store absolute expiry, compare against the time of day
};

class UnorderedTimers final : public TimerServiceBase<UnorderedTimers> {
 public:
  explicit UnorderedTimers(std::size_t max_timers = 0,
                           Scheme1Mode mode = Scheme1Mode::kDecrement)
      : TimerServiceBase(max_timers), mode_(mode) {}

  ~UnorderedTimers() override {
    while (TimerRecord* rec = records_.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }

  std::string_view name() const final {
    return mode_ == Scheme1Mode::kDecrement ? "scheme1-unordered"
                                            : "scheme1-unordered-compare";
  }

  // "Scheme 1 needs the minimum space possible": no fixed structure; per record,
  // membership links (16) + count-or-expiry (8) + cookie (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.essential_record_bytes = 32;
    return profile;
  }

 private:
  friend class TimerServiceBase<UnorderedTimers>;

  // O(1): set the count and put the record at the live list's head. A restart
  // takes the same position as a fresh start, so one made from inside an
  // expiry handler is not decremented on the tick that restarted it.
  void Link(TimerRecord* rec) {
    rec->remaining = rec->interval;
    records_.PushFront(rec);
  }
  void Unlink(TimerRecord* rec) { rec->Unlink(); }
  // DECREMENT every outstanding timer; expire those reaching zero.
  std::size_t Visit();

  Scheme1Mode mode_;
  IntrusiveList<TimerRecord> records_;
};


extern template class TimerServiceBase<UnorderedTimers>;

}  // namespace twheel

#endif  // TWHEEL_SRC_BASELINES_UNORDERED_TIMERS_H_
