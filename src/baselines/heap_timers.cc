#include "src/baselines/heap_timers.h"

namespace twheel {

std::size_t HeapTimers::Visit() {
  std::size_t expired = 0;
  while (!heap_.empty()) {
    TimerRecord* root = heap_[0];
    ++counts_.comparisons;
    if (root->expiry_tick > now_) {
      break;
    }
    // A re-armed root sifts to its new position (expiry > now), so the loop
    // terminates.
    if (TryFirePeriodic(root)) {
      ++expired;
      continue;
    }
    RemoveAt(0);
    Expire(root);
    ++expired;
  }
  if (heap_.empty() && expired == 0) {
    ++counts_.empty_slot_checks;
  }
  return expired;
}

void HeapTimers::SiftUp(std::size_t i) {
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    ++counts_.comparisons;
    if (!Less(heap_[i], heap_[parent])) {
      break;
    }
    TimerRecord* child = heap_[i];
    Place(i, heap_[parent]);
    Place(parent, child);
    i = parent;
  }
}

void HeapTimers::SiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t smallest = i;
    std::size_t l = 2 * i + 1;
    std::size_t r = 2 * i + 2;
    if (l < n) {
      ++counts_.comparisons;
      if (Less(heap_[l], heap_[smallest])) {
        smallest = l;
      }
    }
    if (r < n) {
      ++counts_.comparisons;
      if (Less(heap_[r], heap_[smallest])) {
        smallest = r;
      }
    }
    if (smallest == i) {
      break;
    }
    TimerRecord* tmp = heap_[i];
    Place(i, heap_[smallest]);
    Place(smallest, tmp);
    i = smallest;
  }
}

void HeapTimers::RemoveAt(std::size_t i) {
  TimerRecord* removed = heap_[i];
  std::size_t last = heap_.size() - 1;
  if (i != last) {
    Place(i, heap_[last]);
    heap_.pop_back();
    // The moved element may violate order in either direction.
    SiftDown(i);
    SiftUp(i);
  } else {
    heap_.pop_back();
  }
  removed->heap_index = TimerRecord::kNoIndex;
}

bool HeapTimers::CheckHeapInvariant() const {
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    std::size_t parent = (i - 1) / 2;
    if (Less(heap_[i], heap_[parent])) {
      return false;
    }
    if (heap_[i]->heap_index != i) {
      return false;
    }
  }
  return heap_.empty() || heap_[0]->heap_index == 0;
}


template class TimerServiceBase<HeapTimers>;

}  // namespace twheel
