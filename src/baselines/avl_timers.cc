#include "src/baselines/avl_timers.h"

#include <algorithm>

namespace twheel {

std::size_t AvlTimers::Visit() {
  std::size_t expired = 0;
  while (root_ != nullptr) {
    ColdTimerRecord* min = const_cast<ColdTimerRecord*>(MinimumConst(root_));
    ++counts_.comparisons;
    if (min->hot->expiry_tick > now_) {
      break;
    }
    // A re-armed minimum re-inserts with key now + period (> now), so the
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

void AvlTimers::UpdateHeight(ColdTimerRecord* node) {
  node->rank = 1 + std::max(HeightOf(node->left), HeightOf(node->right));
}

void AvlTimers::Transplant(ColdTimerRecord* u, ColdTimerRecord* v) {
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

ColdTimerRecord* AvlTimers::RotateLeft(ColdTimerRecord* x) {
  ++rotations_;
  ColdTimerRecord* y = x->right;
  x->right = y->left;
  if (y->left != nullptr) {
    y->left->parent = x;
  }
  Transplant(x, y);
  y->left = x;
  x->parent = y;
  UpdateHeight(x);
  UpdateHeight(y);
  return y;
}

ColdTimerRecord* AvlTimers::RotateRight(ColdTimerRecord* x) {
  ++rotations_;
  ColdTimerRecord* y = x->left;
  x->left = y->right;
  if (y->right != nullptr) {
    y->right->parent = x;
  }
  Transplant(x, y);
  y->right = x;
  x->parent = y;
  UpdateHeight(x);
  UpdateHeight(y);
  return y;
}

ColdTimerRecord* AvlTimers::Rebalance(ColdTimerRecord* node) {
  UpdateHeight(node);
  std::int32_t balance = BalanceOf(node);
  if (balance > 1) {
    if (BalanceOf(node->left) < 0) {
      RotateLeft(node->left);  // left-right case
    }
    return RotateRight(node);
  }
  if (balance < -1) {
    if (BalanceOf(node->right) > 0) {
      RotateRight(node->right);  // right-left case
    }
    return RotateLeft(node);
  }
  return node;
}

void AvlTimers::RetraceFrom(ColdTimerRecord* node) {
  while (node != nullptr) {
    node = Rebalance(node);
    node = node->parent;
  }
}

void AvlTimers::Insert(ColdTimerRecord* node) {
  node->left = node->right = node->parent = nullptr;
  node->rank = 1;

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
    return;
  }
  if (went_left) {
    parent->left = node;
  } else {
    parent->right = node;
  }
  RetraceFrom(parent);
}

void AvlTimers::Remove(ColdTimerRecord* z) {
  // The lowest node whose subtree height may have changed; retrace from there.
  ColdTimerRecord* retrace_start;
  if (z->left == nullptr) {
    retrace_start = z->parent;
    Transplant(z, z->right);
  } else if (z->right == nullptr) {
    retrace_start = z->parent;
    Transplant(z, z->left);
  } else {
    ColdTimerRecord* y = const_cast<ColdTimerRecord*>(MinimumConst(z->right));  // successor
    if (y->parent != z) {
      retrace_start = y->parent;
      Transplant(y, y->right);
      y->right = z->right;
      y->right->parent = y;
    } else {
      retrace_start = y;
    }
    Transplant(z, y);
    y->left = z->left;
    y->left->parent = y;
    y->rank = z->rank;
  }
  if (retrace_start != nullptr) {
    RetraceFrom(retrace_start);
  }
  z->left = z->right = z->parent = nullptr;
  z->rank = 0;
}

AvlTimers::CheckResult AvlTimers::CheckSubtree(const ColdTimerRecord* node) {
  if (node == nullptr) {
    return {true, 0};
  }
  CheckResult left = CheckSubtree(node->left);
  CheckResult right = CheckSubtree(node->right);
  if (!left.valid || !right.valid) {
    return {false, 0};
  }
  if (node->left != nullptr &&
      (node->left->parent != node || !Less(node->left, node))) {
    return {false, 0};
  }
  if (node->right != nullptr &&
      (node->right->parent != node || !Less(node, node->right))) {
    return {false, 0};
  }
  std::int32_t height = 1 + std::max(left.height, right.height);
  if (node->rank != height) {
    return {false, 0};
  }
  if (left.height - right.height > 1 || right.height - left.height > 1) {
    return {false, 0};
  }
  return {true, height};
}


template class TimerServiceBase<AvlTimers>;

}  // namespace twheel
