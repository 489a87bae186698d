// Scheme 3 (a) — binary min-heap priority queue (Section 4.1.1).
//
// "For large n, tree-based data structures are better... They attempt to reduce the
// latency in Scheme 2 for START_TIMER from O(n) to O(log(n))." A binary heap is the
// classic array-backed priority queue: START_TIMER is O(log n) (sift-up),
// PER_TICK_BOOKKEEPING compares the root's expiry with the clock (O(1) when nothing
// expires). STOP_TIMER is O(log n): each record stores its heap index
// (TimerRecord::heap_index), so cancellation removes the record directly — no lazy
// "mark cancelled" growth (Section 4.2 explains why a timer module can't afford
// that; the leftist-heap baseline demonstrates the lazy alternative).
//
// Keys are (expiry_tick, seq): the start-order tiebreak makes equal expiries pop in
// FIFO order, matching the canonical order used by the differential tests.

#ifndef TWHEEL_SRC_BASELINES_HEAP_TIMERS_H_
#define TWHEEL_SRC_BASELINES_HEAP_TIMERS_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/base/assert.h"

#include "src/core/timer_service.h"

namespace twheel {

class HeapTimers final : public TimerServiceBase<HeapTimers> {
 public:
  explicit HeapTimers(std::size_t max_timers = 0) : TimerServiceBase(max_timers) {}

  std::string_view name() const final { return "scheme3-heap"; }

  // Per record: expiry (8) + cookie (8) + seq tiebreak (8) + heap index (4, padded);
  // plus the pointer array itself as population-dependent auxiliary storage.
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.essential_record_bytes = 32;
    profile.auxiliary_bytes = heap_.capacity() * sizeof(TimerRecord*);
    return profile;
  }

  // Heap-order invariant check for property tests. O(n).
  bool CheckHeapInvariant() const;

  // Hardware-single-timer capability: O(1) root peek, O(1) clock jump. The
  // scheme has no NextVisit for the base's FastForward to walk; nothing in the
  // heap depends on the clock, so the jump is one assignment.
  std::optional<Tick> NextExpiryHint() const final {
    return heap_.empty() ? std::nullopt : std::optional<Tick>(heap_[0]->expiry_tick);
  }
  bool FastForward(Tick target) final {
    TWHEEL_ASSERT(target >= now_);
    TWHEEL_ASSERT_MSG(heap_.empty() || target < heap_[0]->expiry_tick,
                      "FastForward would skip an expiry");
    now_ = target;
    return true;
  }

 private:
  friend class TimerServiceBase<HeapTimers>;

  // O(log n) sift-up of a new leaf / O(log n) arbitrary delete via heap_index.
  void Link(TimerRecord* rec) {
    heap_.push_back(nullptr);
    Place(heap_.size() - 1, rec);
    SiftUp(heap_.size() - 1);
  }
  void Unlink(TimerRecord* rec) { RemoveAt(rec->heap_index); }
  // Expire while the root is due.
  std::size_t Visit();
  // A restart or periodic re-arm re-keys the record where it sits — the classic
  // decrease/increase-key: it keeps its array slot until one sift settles it
  // (only one of the two can move it). No removal, no reallocation.
  void Relink(TimerRecord* rec) {
    SiftDown(rec->heap_index);
    SiftUp(rec->heap_index);
  }

  static bool Less(const TimerRecord* a, const TimerRecord* b) {
    if (a->expiry_tick != b->expiry_tick) {
      return a->expiry_tick < b->expiry_tick;
    }
    return a->seq < b->seq;
  }

  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void Place(std::size_t i, TimerRecord* rec) {
    heap_[i] = rec;
    rec->heap_index = static_cast<std::uint32_t>(i);
  }
  // Remove the record at heap position i (any position), preserving heap order.
  void RemoveAt(std::size_t i);

  std::vector<TimerRecord*> heap_;
};


extern template class TimerServiceBase<HeapTimers>;

}  // namespace twheel

#endif  // TWHEEL_SRC_BASELINES_HEAP_TIMERS_H_
