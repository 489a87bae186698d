#include "src/baselines/bst_timers.h"

#include <algorithm>

namespace twheel {

void BstTimers::InsertNode(ColdTimerRecord* node) {
  node->left = node->right = node->parent = nullptr;

  ColdTimerRecord* parent = nullptr;
  ColdTimerRecord* cur = root_;
  bool went_left = false;
  while (cur != nullptr) {
    ++counts_.comparisons;
    parent = cur;
    went_left = Less(node, cur);
    cur = went_left ? cur->left : cur->right;
  }
  node->parent = parent;
  if (parent == nullptr) {
    root_ = node;
  } else if (went_left) {
    parent->left = node;
  } else {
    parent->right = node;
  }
}

std::size_t BstTimers::Visit() {
  std::size_t expired = 0;
  while (root_ != nullptr) {
    ColdTimerRecord* min = Minimum(root_);
    ++counts_.comparisons;
    if (min->hot->expiry_tick > now_) {
      break;
    }
    // A re-armed minimum re-descends with key now + period (> now), so the
    // loop terminates.
    if (TryFirePeriodic(min->hot)) {
      ++expired;
      continue;
    }
    Remove(min);
    Expire(min->hot);
    ++expired;
  }
  if (root_ == nullptr && expired == 0) {
    ++counts_.empty_slot_checks;
  }
  return expired;
}

ColdTimerRecord* BstTimers::Minimum(ColdTimerRecord* node) const {
  while (node->left != nullptr) {
    node = node->left;
  }
  return node;
}

void BstTimers::Transplant(ColdTimerRecord* u, ColdTimerRecord* v) {
  if (u->parent == nullptr) {
    root_ = v;
  } else if (u == u->parent->left) {
    u->parent->left = v;
  } else {
    u->parent->right = v;
  }
  if (v != nullptr) {
    v->parent = u->parent;
  }
}

void BstTimers::Remove(ColdTimerRecord* z) {
  if (z->left == nullptr) {
    Transplant(z, z->right);
  } else if (z->right == nullptr) {
    Transplant(z, z->left);
  } else {
    ColdTimerRecord* y = Minimum(z->right);  // successor; has no left child
    if (y->parent != z) {
      Transplant(y, y->right);
      y->right = z->right;
      y->right->parent = y;
    }
    Transplant(z, y);
    y->left = z->left;
    y->left->parent = y;
  }
  z->left = z->right = z->parent = nullptr;
}

std::size_t BstTimers::Height(const ColdTimerRecord* node) {
  if (node == nullptr) {
    return 0;
  }
  return 1 + std::max(Height(node->left), Height(node->right));
}

bool BstTimers::CheckSubtree(const ColdTimerRecord* node, const ColdTimerRecord* lo,
                             const ColdTimerRecord* hi) {
  if (node == nullptr) {
    return true;
  }
  if (lo != nullptr && !Less(lo, node)) {
    return false;
  }
  if (hi != nullptr && !Less(node, hi)) {
    return false;
  }
  if (node->left != nullptr && node->left->parent != node) {
    return false;
  }
  if (node->right != nullptr && node->right->parent != node) {
    return false;
  }
  return CheckSubtree(node->left, lo, node) && CheckSubtree(node->right, node, hi);
}


template class TimerServiceBase<BstTimers>;

}  // namespace twheel
