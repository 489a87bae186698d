// Scheme 3 (d) — balanced (AVL) binary search tree.
//
// Figure 6's footnote is specifically about this structure: "STOP_TIMER is O(1) for
// unbalanced trees and O(log(n)) — because of the need to rebalance the tree after
// a deletion — for balanced trees." And Section 4.1.1 reports (from Myhrhaug [7])
// that "unbalanced binary trees are less expensive than balanced binary trees" on
// average. This AVL implementation exists so both halves of that comparison are
// measurable: its START_TIMER and STOP_TIMER are O(log n) *worst case* — constant
// intervals cannot degenerate it the way they collapse BstTimers — but every
// operation pays rotation overhead the unbalanced tree skips.
//
// Keys are (expiry_tick, seq) like the other tree baselines; nodes are the COLD
// records (timer_record.h) with heights in ColdTimerRecord::rank, and key access
// hops to the hot twin through node->hot — see bst_timers.h for the trade.

#ifndef TWHEEL_SRC_BASELINES_AVL_TIMERS_H_
#define TWHEEL_SRC_BASELINES_AVL_TIMERS_H_

#include <cstddef>
#include <optional>

#include "src/base/assert.h"
#include "src/core/timer_service.h"

namespace twheel {

class AvlTimers final : public TimerServiceBase<AvlTimers> {
 public:
  explicit AvlTimers(std::size_t max_timers = 0) : TimerServiceBase(max_timers) {}

  std::string_view name() const final { return "scheme3-avl"; }

  // Per record: three tree pointers (24) + expiry (8) + cookie (8) + seq (8) +
  // height (4, padded to 8) — the balance bookkeeping is the "extra space" of a
  // balanced tree.
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.essential_record_bytes = 56;
    return profile;
  }

  // Hardware-single-timer capability, like the other peekable schemes. The
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

  // Diagnostics: AVL invariant (BST order, parent links, height fields, balance
  // factors in [-1, 1]) and tree height, for property tests and the fig6 bench.
  bool CheckAvlInvariant() const { return CheckSubtree(root_).valid; }
  std::size_t HeightSlow() const { return root_ == nullptr ? 0 : root_->rank; }
  std::uint64_t rotations() const { return rotations_; }

 private:
  friend class TimerServiceBase<AvlTimers>;

  // O(lg n) balanced insert / delete of the record's cold node; a restart
  // re-inserts the same node with its new key.
  void Link(TimerRecord* rec) { Insert(&cold(rec)); }
  void Unlink(TimerRecord* rec) { Remove(&cold(rec)); }
  // Expire while the leftmost node is due.
  std::size_t Visit();

  static bool Less(const ColdTimerRecord* a, const ColdTimerRecord* b) {
    if (a->hot->expiry_tick != b->hot->expiry_tick) {
      return a->hot->expiry_tick < b->hot->expiry_tick;
    }
    return a->hot->seq < b->hot->seq;
  }

  static std::int32_t HeightOf(const ColdTimerRecord* node) {
    return node == nullptr ? 0 : node->rank;
  }
  static void UpdateHeight(ColdTimerRecord* node);
  static std::int32_t BalanceOf(const ColdTimerRecord* node) {
    return HeightOf(node->left) - HeightOf(node->right);
  }
  static const ColdTimerRecord* MinimumConst(const ColdTimerRecord* node) {
    while (node->left != nullptr) {
      node = node->left;
    }
    return node;
  }

  // Replace the subtree rooted at `u` with `v` (v may be null) in u's parent.
  void Transplant(ColdTimerRecord* u, ColdTimerRecord* v);
  ColdTimerRecord* RotateLeft(ColdTimerRecord* x);
  ColdTimerRecord* RotateRight(ColdTimerRecord* x);
  // Restore the AVL property at `node`; returns the subtree's (possibly new) root.
  ColdTimerRecord* Rebalance(ColdTimerRecord* node);
  // Walk from `node` to the root, updating heights and rebalancing.
  void RetraceFrom(ColdTimerRecord* node);

  void Insert(ColdTimerRecord* node);
  void Remove(ColdTimerRecord* z);

  struct CheckResult {
    bool valid = false;
    std::int32_t height = 0;
  };
  static CheckResult CheckSubtree(const ColdTimerRecord* node);

  ColdTimerRecord* root_ = nullptr;
  std::uint64_t rotations_ = 0;
};


extern template class TimerServiceBase<AvlTimers>;

}  // namespace twheel

#endif  // TWHEEL_SRC_BASELINES_AVL_TIMERS_H_
