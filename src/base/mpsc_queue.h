// Bounded lock-free multi-producer / single-consumer ring.
//
// The submission side of the deferred-registration runtime (Appendix A.2 taken to
// its conclusion): producers publish fixed-size commands with one CAS on a shared
// ticket counter plus one release store, and the single consumer — the tick
// driver, already serialized per shard by the shard mutex — drains in ticket
// order with no atomic RMW at all. This is the classic bounded sequence-number
// ring (Vyukov), restricted to one consumer:
//
//   * every cell carries a sequence number; `sequence == ticket` means the cell
//     is free for the producer holding that ticket, `sequence == ticket + 1`
//     means it holds that ticket's value for the consumer;
//   * a producer claims a ticket by CAS on `enqueue_pos_`. The CAS only fails
//     when another producer claimed the same ticket first, i.e. every retry
//     implies system-wide progress (lock-free; wait-free in the absence of
//     producer contention). Retries are reported to the caller so the service
//     can account them (metrics::OpCounts::submit_retries);
//   * "full" is detected *before* claiming a ticket, so a rejected push
//     perturbs nothing — the reject backpressure policy is free.
//
// FIFO is by ticket order: if push A completes before push B begins (e.g. B
// holds a handle A returned), A drains before B — the property the submission
// layer's start-before-cancel reasoning leans on. The consumer stops at the
// first unpublished cell, so a claimed-but-unwritten ticket simply ends the
// drain early; the gap is consumed on the next drain.

#ifndef TWHEEL_SRC_BASE_MPSC_QUEUE_H_
#define TWHEEL_SRC_BASE_MPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/base/assert.h"
#include "src/base/bits.h"

namespace twheel {

template <typename T>
class MpscRing {
 public:
  // `capacity` must be a power of two >= 2 (index masking is an AND, matching
  // the paper's table-size recommendation).
  explicit MpscRing(std::size_t capacity)
      : mask_(capacity - 1), cells_(new Cell[capacity]) {
    TWHEEL_ASSERT_MSG(IsPowerOfTwo(capacity) && capacity >= 2,
                      "ring capacity must be a power of two >= 2");
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // Multi-producer push. Returns false when the ring is full (the caller owns
  // the backpressure policy: reject upward or spin for the consumer). When
  // `retries` is non-null it is *incremented* by the number of CAS attempts
  // that lost to another producer.
  bool TryPush(const T& value, std::uint64_t* retries = nullptr) {
    std::uint64_t ticket;
    if (!TryReserve(&ticket, retries)) {
      return false;
    }
    Publish(ticket, value);
    return true;
  }

  // First half of a two-phase push: claim a ticket (and its cell) without
  // publishing a value. The consumer stops at the first unpublished cell, so
  // nothing at or after the reserved ticket can drain until Publish — which
  // lets a producer interpose a commit action between the two halves and be
  // certain the consumer cannot observe the command before the commit's
  // outcome is decided (see ShardSubmitQueue::SubmitRestart). A reserved
  // ticket MUST be published eventually (there is no unreserve); publish a
  // caller-defined no-op value to abandon the slot. Full-detection and retry
  // accounting match TryPush.
  bool TryReserve(std::uint64_t* ticket, std::uint64_t* retries = nullptr) {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell* cell = &cells_[pos & mask_];
      const std::uint64_t seq = cell->sequence.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          *ticket = pos;
          return true;
        }
        if (retries != nullptr) {
          ++*retries;
        }
        // `pos` was reloaded by the failed CAS.
      } else if (dif < 0) {
        // The cell still holds a value the consumer has not drained: full.
        return false;
      } else {
        // Another producer advanced past us; chase the shared counter.
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  // Second half of a two-phase push: store the value into the reserved cell
  // and make it visible to the consumer.
  void Publish(std::uint64_t ticket, const T& value) {
    Cell& cell = cells_[ticket & mask_];
    cell.value = value;
    cell.sequence.store(ticket + 1, std::memory_order_release);
  }

  // Single-consumer drain, in ticket order, of at most `limit` published
  // values. Callers must serialize drains externally (the shard mutex). Stops
  // early at the first unpublished cell. When `emptied` is non-null it is set
  // to true iff nothing further was published when the drain ended: at the
  // cut, or, for a drain that stopped at `limit`, at one more load of the next
  // cell — the submission layer uses this to decide whether its
  // pending-deadline hint may be reset.
  template <typename Fn>
  std::size_t Drain(std::size_t limit, Fn&& fn, bool* emptied = nullptr) {
    std::size_t drained = 0;
    bool cut = false;
    while (drained < limit) {
      Cell& cell = cells_[dequeue_pos_ & mask_];
      const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
      if (seq != dequeue_pos_ + 1) {
        // Empty, or the ticket holder has not published yet; either way the
        // FIFO cut ends here.
        cut = true;
        break;
      }
      T value = std::move(cell.value);
      // Recycle the cell for the producer one lap ahead.
      cell.sequence.store(dequeue_pos_ + mask_ + 1, std::memory_order_release);
      ++dequeue_pos_;
      ++drained;
      fn(std::as_const(value));
    }
    if (emptied != nullptr) {
      *emptied = cut || EmptyFromConsumer();
    }
    return drained;
  }

  // Consumer-side scan, serialized with Drain by the same external lock: calls
  // `fn` on every published value not yet drained, in ticket order, without
  // consuming any. Unlike Drain it does not stop at a reserved-but-unpublished
  // cell; it skips it and reads on up to the last claimed ticket. So a value
  // whose Publish happens-before the call is always visited, whatever slower
  // ticket sits in front of it.
  template <typename Fn>
  void ForEachPending(Fn&& fn) const {
    const std::uint64_t end = enqueue_pos_.load(std::memory_order_acquire);
    for (std::uint64_t pos = dequeue_pos_; pos < end; ++pos) {
      const Cell& cell = cells_[pos & mask_];
      if (cell.sequence.load(std::memory_order_acquire) == pos + 1) {
        fn(cell.value);
      }
    }
  }

  // Consumer-side view (racy if called from a producer): true when the next
  // cell in ticket order holds no published value.
  bool EmptyFromConsumer() const {
    const Cell& cell = cells_[dequeue_pos_ & mask_];
    return cell.sequence.load(std::memory_order_acquire) != dequeue_pos_ + 1;
  }

  static std::size_t BytesFor(std::size_t capacity) {
    return capacity * sizeof(Cell);
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> sequence;
    T value;
  };

  const std::uint64_t mask_;
  std::unique_ptr<Cell[]> cells_;
  // Producers share the ticket counter; the consumer's cursor is plain because
  // drains are externally serialized. Separate cache lines keep producer CAS
  // traffic off the consumer's cursor.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::uint64_t dequeue_pos_{0};
};

}  // namespace twheel

#endif  // TWHEEL_SRC_BASE_MPSC_QUEUE_H_
