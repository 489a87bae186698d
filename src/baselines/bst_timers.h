// Scheme 3 (b) — unbalanced binary search tree (Section 4.1.1).
//
// The paper reports (citing Myhrhaug [7]) that "unbalanced binary trees are less
// expensive than balanced binary trees" on average, but warns: "Unfortunately,
// unbalanced binary trees easily degenerate into a linear list; this can happen, for
// instance, if a set of equal timer intervals are inserted." This implementation
// exists to demonstrate both halves of that sentence: the fig6-trees bench shows
// O(log n) starts for random intervals and the linear-list collapse for constant
// intervals (keys are (expiry, seq), so a constant interval stream is strictly
// increasing and every insert walks the right spine).
//
// STOP_TIMER deletes the record's node directly (parent pointers, standard BST
// deletion) — the structural work is O(1) amortized plus an O(height) successor walk
// when the node has two children; Figure 6 lists tree stops as O(1)/O(log n).
//
// The tree links live in the COLD record (timer_record.h): nodes here are
// ColdTimerRecord*, and key comparisons hop to the hot twin through node->hot.
// The hop is a deliberate trade — the tree baselines were already O(log n)
// pointer-chasing per op, while keeping their three pointers + rank out of the
// shared hot record is what lets every wheel scheme fit one cache line.

#ifndef TWHEEL_SRC_BASELINES_BST_TIMERS_H_
#define TWHEEL_SRC_BASELINES_BST_TIMERS_H_

#include <cstddef>
#include <optional>

#include "src/base/assert.h"

#include "src/core/timer_service.h"

namespace twheel {

class BstTimers final : public TimerServiceBase<BstTimers> {
 public:
  explicit BstTimers(std::size_t max_timers = 0) : TimerServiceBase(max_timers) {}

  std::string_view name() const final { return "scheme3-bst"; }

  // Per record: three tree pointers (24) + expiry (8) + cookie (8) + seq (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.essential_record_bytes = 48;
    return profile;
  }

  // Hardware-single-timer capability: O(height) min peek, O(1) clock jump. The
  // scheme has no NextVisit for the base's FastForward to walk; nothing in the
  // tree depends on the clock, so the jump is one assignment.
  std::optional<Tick> NextExpiryHint() const final {
    if (root_ == nullptr) {
      return std::nullopt;
    }
    return MinimumConst(root_)->hot->expiry_tick;
  }
  bool FastForward(Tick target) final {
    TWHEEL_ASSERT(target >= now_);
    TWHEEL_ASSERT_MSG(root_ == nullptr || target < MinimumConst(root_)->hot->expiry_tick,
                      "FastForward would skip an expiry");
    now_ = target;
    return true;
  }

  // Diagnostics for tests / the degeneration bench.
  std::size_t HeightSlow() const { return Height(root_); }
  bool CheckBstInvariant() const { return CheckSubtree(root_, nullptr, nullptr); }

 private:
  friend class TimerServiceBase<BstTimers>;

  // O(height) descent / standard BST delete of the record's cold node; a
  // restart re-descends the same node with its new key.
  void Link(TimerRecord* rec) { InsertNode(&cold(rec)); }
  void Unlink(TimerRecord* rec) { Remove(&cold(rec)); }
  // Expire while the leftmost node is due.
  std::size_t Visit();

  static bool Less(const ColdTimerRecord* a, const ColdTimerRecord* b) {
    if (a->hot->expiry_tick != b->hot->expiry_tick) {
      return a->hot->expiry_tick < b->hot->expiry_tick;
    }
    return a->hot->seq < b->hot->seq;
  }

  // Descend from the root and attach `node` (key already set on its hot twin).
  void InsertNode(ColdTimerRecord* node);
  ColdTimerRecord* Minimum(ColdTimerRecord* node) const;
  static const ColdTimerRecord* MinimumConst(const ColdTimerRecord* node) {
    while (node->left != nullptr) {
      node = node->left;
    }
    return node;
  }
  // Replace the subtree rooted at `u` with the one rooted at `v` (v may be null).
  void Transplant(ColdTimerRecord* u, ColdTimerRecord* v);
  void Remove(ColdTimerRecord* z);

  static std::size_t Height(const ColdTimerRecord* node);
  static bool CheckSubtree(const ColdTimerRecord* node, const ColdTimerRecord* lo,
                           const ColdTimerRecord* hi);

  ColdTimerRecord* root_ = nullptr;
};


extern template class TimerServiceBase<BstTimers>;

}  // namespace twheel

#endif  // TWHEEL_SRC_BASELINES_BST_TIMERS_H_
