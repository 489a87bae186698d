#include "src/baselines/leftist_heap_timers.h"

namespace twheel {

LeftistHeapTimers::~LeftistHeapTimers() {
  // Cancelled records are still owned by the arena; nothing to do here. The arena
  // destructor reclaims all storage.
}

TimerError LeftistHeapTimers::StopTimer(TimerHandle handle) {
  ++counts_.stop_calls;
  TimerRecord* rec = Resolve(handle);
  if (rec == nullptr || rec->cancelled) {
    return TimerError::kNoSuchTimer;
  }
  rec->cancelled = true;
  ++cancelled_retained_;
  ++counts_.delete_unlink_ops;
  return TimerError::kOk;
}

std::size_t LeftistHeapTimers::Visit() {
  std::size_t expired = 0;
  while (root_ != nullptr) {
    if (root_->hot->cancelled) {
      // Discard the cancelled notice, as a simulation scheduler would.
      ColdTimerRecord* dead = root_;
      PopRoot();
      --cancelled_retained_;
      ReleaseRecord(dead->hot);
      continue;
    }
    ++counts_.comparisons;
    if (root_->hot->expiry_tick > now_) {
      break;
    }
    // A re-armed root detaches and re-merges with key now + period (> now), so
    // the loop terminates.
    if (TryFirePeriodic(root_->hot)) {
      ++expired;
      continue;
    }
    ColdTimerRecord* due = root_;
    PopRoot();
    Expire(due->hot);
    ++expired;
  }
  if (root_ == nullptr && expired == 0) {
    ++counts_.empty_slot_checks;
  }
  return expired;
}

ColdTimerRecord* LeftistHeapTimers::Merge(ColdTimerRecord* a, ColdTimerRecord* b) {
  if (a == nullptr) {
    return b;
  }
  if (b == nullptr) {
    return a;
  }
  ++counts_.comparisons;
  if (Less(b, a)) {
    ColdTimerRecord* tmp = a;
    a = b;
    b = tmp;
  }
  a->right = Merge(a->right, b);
  a->right->parent = a;
  std::int32_t left_rank = a->left ? a->left->rank : -1;
  std::int32_t right_rank = a->right ? a->right->rank : -1;
  if (left_rank < right_rank) {
    ColdTimerRecord* tmp = a->left;
    a->left = a->right;
    a->right = tmp;
    std::int32_t t = left_rank;
    left_rank = right_rank;
    right_rank = t;
  }
  a->rank = right_rank + 1;
  return a;
}

void LeftistHeapTimers::PopRoot() {
  ColdTimerRecord* old = root_;
  root_ = Merge(old->left, old->right);
  if (root_ != nullptr) {
    root_->parent = nullptr;
  }
  old->left = old->right = old->parent = nullptr;
  old->rank = 0;
}

void LeftistHeapTimers::Detach(ColdTimerRecord* x) {
  ColdTimerRecord* sub = Merge(x->left, x->right);
  ColdTimerRecord* p = x->parent;
  if (sub != nullptr) {
    sub->parent = p;
  }
  if (p == nullptr) {
    root_ = sub;
  } else {
    if (p->left == x) {
      p->left = sub;
    } else {
      p->right = sub;
    }
    FixUpFrom(p);
  }
  x->left = x->right = x->parent = nullptr;
  x->rank = 0;
}

void LeftistHeapTimers::FixUpFrom(ColdTimerRecord* node) {
  while (node != nullptr) {
    std::int32_t left_rank = node->left ? node->left->rank : -1;
    std::int32_t right_rank = node->right ? node->right->rank : -1;
    if (left_rank < right_rank) {
      ColdTimerRecord* tmp = node->left;
      node->left = node->right;
      node->right = tmp;
      const std::int32_t t = left_rank;
      left_rank = right_rank;
      right_rank = t;
    }
    const std::int32_t new_rank = right_rank + 1;
    if (node->rank == new_rank) {
      // Rank unchanged: every ancestor's shape constraint still holds.
      break;
    }
    node->rank = new_rank;
    node = node->parent;
  }
}

std::int64_t LeftistHeapTimers::CheckSubtree(const ColdTimerRecord* node) {
  if (node == nullptr) {
    return -1;
  }
  std::int64_t l = CheckSubtree(node->left);
  std::int64_t r = CheckSubtree(node->right);
  if (l == -2 || r == -2 || l < r) {
    return -2;  // leftist rule: npl(left) >= npl(right)
  }
  if (node->left != nullptr && Less(node->left, node)) {
    return -2;  // heap order
  }
  if (node->right != nullptr && Less(node->right, node)) {
    return -2;
  }
  if (node->left != nullptr && node->left->parent != node) {
    return -2;  // parent links (RestartTimer's detach relies on them)
  }
  if (node->right != nullptr && node->right->parent != node) {
    return -2;
  }
  if (node->rank != r + 1) {
    return -2;
  }
  return r + 1;
}


template class TimerServiceBase<LeftistHeapTimers>;

}  // namespace twheel
