// Scheme 3 (c) — leftist tree (mergeable heap) with lazy cancellation.
//
// Leftist trees are on the paper's list of tree-based priority queues ("these
// include unbalanced binary trees, heaps, post-order and end-order trees, and
// leftist-trees [4,6]"). This implementation deliberately pairs the structure with
// the *simulation-style* cancellation policy the paper criticizes in Section 4.2:
// "it is sufficient to mark the notice as 'Canceled' and wait until the event is
// scheduled... In a timer module, STOP_TIMER may be called frequently; such an
// approach can cause the memory needs to grow unboundedly beyond the number of
// timers outstanding at any time."
//
// STOP_TIMER is therefore O(1) (set a flag) but the record's storage is reclaimed
// only when it reaches the root. RetainedRecords() exposes the gap between allocated
// and live timers so tests and the fig6-trees bench can measure exactly the growth
// the paper warns about.
//
// Nodes are the COLD records (timer_record.h), keyed through node->hot like the
// other tree baselines — see bst_timers.h for the trade. The cancelled flag stays
// HOT: StopTimer is the one O(1) hot op this scheme has, and keeping the flag next
// to the key means the root-discard loop never touches a second line to test it.

#ifndef TWHEEL_SRC_BASELINES_LEFTIST_HEAP_TIMERS_H_
#define TWHEEL_SRC_BASELINES_LEFTIST_HEAP_TIMERS_H_

#include <cstddef>

#include "src/core/timer_service.h"

namespace twheel {

class LeftistHeapTimers final : public TimerServiceBase<LeftistHeapTimers> {
 public:
  explicit LeftistHeapTimers(std::size_t max_timers = 0) : TimerServiceBase(max_timers) {}

  ~LeftistHeapTimers() override;

  // Lazy: O(1) flag set; storage is reclaimed when the record surfaces at the
  // root. A cancelled record still holds its arena slot, and the base's
  // RestartTimer refuses it with kNoSuchTimer like any stale handle.
  TimerError StopTimer(TimerHandle handle) final;
  std::string_view name() const final { return "scheme3-leftist"; }

  // Per record: two child pointers (16) + expiry (8) + cookie (8) + seq (8) +
  // null-path length and cancel flag (8). Lazy cancellation means the *count* of
  // resident records can exceed outstanding() (see RetainedRecords).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.essential_record_bytes = 48;
    return profile;
  }

  // Outstanding excludes records cancelled but not yet physically removed.
  std::size_t outstanding() const final {
    return TimerServiceBase::outstanding() - cancelled_retained_;
  }

  // Cancelled records still occupying memory — the Section 4.2 growth.
  std::size_t RetainedRecords() const { return cancelled_retained_; }

  // Leftist invariant (heap order + null-path-length rule), for property tests.
  bool CheckLeftistInvariant() const { return CheckSubtree(root_) >= 0; }

 private:
  friend class TimerServiceBase<LeftistHeapTimers>;

  // Merge a fresh single-node tree at the root. Unlink is only ever a restart's
  // (StopTimer is lazy), and lazy cancellation cannot express a restart — an
  // earlier deadline would surface too late — so it is the eager path: the
  // node's subtree is cut out via its parent pointer, its children merge into
  // its old position, and ranks re-settle up the parent chain (stopping at the
  // first unchanged rank — the standard O(log n) arbitrary-delete).
  void Link(TimerRecord* rec) {
    ColdTimerRecord* node = &cold(rec);
    node->left = node->right = node->parent = nullptr;
    node->rank = 0;
    root_ = Merge(root_, node);
    root_->parent = nullptr;
  }
  void Unlink(TimerRecord* rec) { Detach(&cold(rec)); }
  // Discard cancelled roots and expire due ones.
  std::size_t Visit();

  static bool Less(const ColdTimerRecord* a, const ColdTimerRecord* b) {
    if (a->hot->expiry_tick != b->hot->expiry_tick) {
      return a->hot->expiry_tick < b->hot->expiry_tick;
    }
    return a->hot->seq < b->hot->seq;
  }

  // Merge maintains child->parent links (RestartTimer's detach needs them);
  // the caller owns the returned root's parent pointer.
  ColdTimerRecord* Merge(ColdTimerRecord* a, ColdTimerRecord* b);
  void PopRoot();
  // Cut `x`'s subtree out of the tree, splicing Merge(x->left, x->right) into
  // its place, and restore ranks/leftist shape up the parent chain.
  void Detach(ColdTimerRecord* x);
  void FixUpFrom(ColdTimerRecord* node);
  // Returns the subtree's null-path length, or -2 on invariant violation.
  static std::int64_t CheckSubtree(const ColdTimerRecord* node);

  ColdTimerRecord* root_ = nullptr;
  std::size_t cancelled_retained_ = 0;
};


extern template class TimerServiceBase<LeftistHeapTimers>;

}  // namespace twheel

#endif  // TWHEEL_SRC_BASELINES_LEFTIST_HEAP_TIMERS_H_
