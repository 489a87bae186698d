// An open-addressed hash map from 64-bit keys to small trivially copyable
// values, for lookup tables on a request path.
//
// A key's home slot is its Fibonacci hash — the key times 2^64/φ, keeping the
// top log2(capacity) bits — in a power-of-two table, so finding a slot is a
// multiply and a shift, never a division (the same reason Section 6.1.2 sizes
// the wheel as a power of two). A collision probes forward one slot at a time
// (linear probing). An erase (Take or EraseAt) closes the hole it leaves by
// shifting the later entries of its probe run back (backward-shift
// deletion), so there are no tombstones: a table churned by inserts and
// erases at a steady size never rehashes. The table starts at 64 slots,
// doubles when an insert would take it past 3/4 full, and never shrinks.
// Entries live inline in one array, so only a doubling allocates. Each
// doubling allocates, fills and frees a whole array; starting at 64 slots
// (2 KiB at 32-byte slots) spares a growing table the three smallest of them.
//
// A pointer returned by Find or FindOrInsert stays valid until the next
// FindOrInsert, Take or EraseAt on the same map: an insert may double the
// table and an erase may shift entries. For the same reason the function
// ForEach calls may change values but must not insert or erase. Not
// thread-safe.

#ifndef TWHEEL_SRC_BASE_FLAT_MAP_H_
#define TWHEEL_SRC_BASE_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/base/bits.h"

namespace twheel {

template <typename V>
class FlatMap {
 public:
  FlatMap() {
    // Checked here rather than at class scope, where a value type nested in
    // a class still being defined does not yet count as default-constructible.
    static_assert(std::is_trivially_copyable_v<V> && std::is_default_constructible_v<V>,
                  "FlatMap moves values by copy and default-constructs new ones");
    Rehash(kInitialCapacity);
  }

  // The value mapped to `key`, or nullptr.
  V* Find(std::uint64_t key) {
    const std::size_t i = Locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  const V* Find(std::uint64_t key) const {
    const std::size_t i = Locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  // The value mapped to `key`, inserting a default-constructed one if there is
  // none; `second` says whether it was inserted. One probe run either way.
  std::pair<V*, bool> FindOrInsert(std::uint64_t key) {
    std::size_t i = home(key);
    for (; slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return {&slots_[i].value, false};
      }
    }
    if ((size_ + 1) * 4 > capacity() * 3) {
      Rehash(2 * capacity());
      i = FreeSlotFor(key);
    }
    slots_[i] = Slot{key, V{}, true};
    ++size_;
    return {&slots_[i].value, true};
  }

  // Removes `key`'s entry and returns its value, in one probe run.
  std::optional<V> Take(std::uint64_t key) {
    const std::size_t i = Locate(key);
    if (i == kAbsent) {
      return std::nullopt;
    }
    const V value = slots_[i].value;
    EraseSlot(i);
    return value;
  }
  // Removes the entry `value` points to, a still-valid pointer from Find or
  // FindOrInsert, without probing for its key again.
  void EraseAt(const V* value) {
    const auto offset = reinterpret_cast<const unsigned char*>(value) -
                        reinterpret_cast<const unsigned char*>(slots_.get());
    EraseSlot(static_cast<std::size_t>(offset) / sizeof(Slot));
  }

  // Calls f(key, value) once for every entry, in slot order (which is not
  // insertion order). `f` may change the value; it must not insert or erase.
  template <typename F>
  void ForEach(F&& f) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (slots_[i].used) {
        f(slots_[i].key, slots_[i].value);
      }
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return mask_ + 1; }
  // The slot a probe for `key` starts at, under the current capacity.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  struct Slot {
    std::uint64_t key;
    V value;
    bool used;
  };

  // The slot holding `key`, or kAbsent. The table is never full, so every
  // probe run ends at an empty slot.
  std::size_t Locate(std::uint64_t key) const {
    for (std::size_t i = home(key); slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return i;
      }
    }
    return kAbsent;
  }

  std::size_t FreeSlotFor(std::uint64_t key) const {
    std::size_t i = home(key);
    while (slots_[i].used) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  // Backward-shift deletion: walk the rest of the probe run and move each
  // entry whose home is at or before the hole into it. An entry whose home
  // lies after the hole (cyclically, within the run) stays put, because Find
  // would never look for it before its home.
  void EraseSlot(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask_; slots_[j].used; j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].used = false;
    --size_;
  }

  void Rehash(std::size_t capacity) {
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const std::size_t old_capacity = old ? mask_ + 1 : 0;
    slots_ = std::make_unique<Slot[]>(capacity);  // value-initialized: all unused
    mask_ = capacity - 1;
    shift_ = 64 - Log2Floor(capacity);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i].used) {
        slots_[FreeSlotFor(old[i].key)] = old[i];
      }
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace twheel

#endif  // TWHEEL_SRC_BASE_FLAT_MAP_H_
