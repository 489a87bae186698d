// Scheme 2 — ordered list / timer queues (Section 3.2).
//
// Timers are stored in a doubly-linked list sorted by *absolute* expiry time; the
// earliest timer sits at the head (Figure 2). PER_TICK_BOOKKEEPING increments the
// time of day and expires from the head while head.expiry <= now, so its latency is
// O(1) plus actual expiries. START_TIMER pays for this with an O(n) insertion scan.
// STOP_TIMER is O(1) via the stored record pointer and double links.
//
// The insertion scan direction is configurable because the paper analyzes both:
// searching from the head costs on average 2 + (2/3)n for negative-exponential
// intervals and 2 + n/2 for uniform (results it cites from Reeves [4]); "for a
// negative exponential distribution we can reduce the average cost to 2 + n/3 by
// searching the list from the rear", and rear search is O(1) when all intervals are
// equal (new timers always belong at the tail). The sec32-insertion-cost bench
// measures elements examined per insert and compares against those closed forms.
//
// Equal expiry times are kept in FIFO order under both strategies (a new timer goes
// after existing equal ones), so differential tests across schemes see a canonical
// expiry order. VMS and UNIX used algorithms of this family (Section 3.2).

#ifndef TWHEEL_SRC_BASELINES_SORTED_LIST_TIMERS_H_
#define TWHEEL_SRC_BASELINES_SORTED_LIST_TIMERS_H_

#include <cstddef>
#include <optional>

#include "src/base/assert.h"

#include "src/base/intrusive_list.h"
#include "src/core/timer_service.h"

namespace twheel {

enum class SearchDirection : std::uint8_t {
  kFromFront,  // scan head -> tail for the first record due later than the new one
  kFromRear,   // scan tail -> head for the last record due no later than the new one
};

class SortedListTimers final : public TimerServiceBase<SortedListTimers> {
 public:
  explicit SortedListTimers(SearchDirection direction = SearchDirection::kFromFront,
                            std::size_t max_timers = 0)
      : TimerServiceBase(max_timers), direction_(direction) {}

  ~SortedListTimers() override {
    while (TimerRecord* rec = list_.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }

  std::string_view name() const final {
    return direction_ == SearchDirection::kFromFront ? "scheme2-sorted-front"
                                                     : "scheme2-sorted-rear";
  }

  // "Scheme 2 needs O(n) extra space for the forward and back pointers between
  // queue elements": links (16) + absolute expiry (8) + cookie (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.essential_record_bytes = 32;
    return profile;
  }

  // Earliest outstanding expiry, for the hardware-single-timer mode the paper
  // describes ("the hardware timer is set to expire at the time at which the timer
  // at the head of the list is due"); 0 when no timer is outstanding.
  Tick NextExpiry() const {
    const TimerRecord* head = list_.front();
    return head == nullptr ? 0 : head->expiry_tick;
  }

  // Hardware-single-timer capability: O(1) head peek, O(1) clock jump. The
  // scheme has no NextVisit for the base's FastForward to walk; nothing in the
  // list depends on the clock, so the jump is one assignment.
  std::optional<Tick> NextExpiryHint() const final {
    const TimerRecord* head = list_.front();
    return head == nullptr ? std::nullopt : std::optional<Tick>(head->expiry_tick);
  }
  bool FastForward(Tick target) final {
    TWHEEL_ASSERT(target >= now_);
    const TimerRecord* head = list_.front();
    TWHEEL_ASSERT_MSG(head == nullptr || target < head->expiry_tick,
                      "FastForward would skip an expiry");
    now_ = target;
    return true;
  }

 private:
  friend class TimerServiceBase<SortedListTimers>;

  // The O(n) insertion scan, in the configured direction, for the record's
  // absolute expiry; the O(1) unlink through the double links.
  void Link(TimerRecord* rec);
  void Unlink(TimerRecord* rec) { rec->Unlink(); }
  // Compare the head with the clock; expire while it is due.
  std::size_t Visit();

  SearchDirection direction_;
  IntrusiveList<TimerRecord> list_;
};


extern template class TimerServiceBase<SortedListTimers>;

}  // namespace twheel

#endif  // TWHEEL_SRC_BASELINES_SORTED_LIST_TIMERS_H_
