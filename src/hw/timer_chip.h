// The Appendix A.1 timer chip, structurally: busy bits in chip memory, timer
// queues in host memory, interrupts as the only chip-to-host channel.
//
// "Another possibility is a chip (actually just a counter) that steps through the
// timer arrays, and interrupts the host only if there is work to be done. When the
// host inserts a timer into an empty queue pointed to by array element X it tells
// the chip about this new queue. The chip then marks X as 'busy'. As before, the
// chip scans through the timer arrays every clock tick. During its scan, when the
// chip encounters a 'busy' location, it interrupts the host and gives the host the
// address of the queue that needs to be worked on. Similarly when the host deletes
// a timer entry from some queue and leaves behind an empty queue it needs to inform
// the chip that the corresponding array location is no longer 'busy'. Note that the
// synchronization overhead is minimal because the host can keep the actual timer
// queues in its memory which the chip need not access, and the chip can keep the
// timing arrays in its memory, which the host need not access."
//
// ChipAssistedWheel implements that division of labour over a Scheme 6 hashed wheel
// and exposes the protocol's traffic: chip scans (free), host interrupts (chip ->
// host), and busy/free notifications (host -> chip). It is a full TimerService, so
// the differential suite verifies that adding the chip changes no observable timer
// behaviour — only who pays for empty slots. RestartTimer and periodic laps relink
// the record in place like every other scheme (TimerServiceBase), so handles
// survive both.

#ifndef TWHEEL_SRC_HW_TIMER_CHIP_H_
#define TWHEEL_SRC_HW_TIMER_CHIP_H_

#include <cstddef>
#include <vector>

#include "src/base/bits.h"
#include "src/base/intrusive_list.h"
#include "src/core/timer_service.h"

namespace twheel::hw {

class ChipAssistedWheel final : public TimerServiceBase<ChipAssistedWheel> {
 public:
  // `table_size` must be a power of two >= 2 (the chip's array dimension; "the
  // array sizes need to be parameters that must be supplied to the chip on
  // initialization").
  explicit ChipAssistedWheel(std::size_t table_size, std::size_t max_timers = 0);

  ~ChipAssistedWheel() override;

  std::string_view name() const final { return "scheme6-chip-assisted"; }

  std::size_t table_size() const { return busy_.size(); }

  // Protocol traffic counters.
  std::uint64_t chip_scans() const { return chip_scans_; }            // chip-internal
  std::uint64_t host_interrupts() const { return host_interrupts_; }  // chip -> host
  std::uint64_t busy_notifications() const { return busy_notifications_; }  // host -> chip
  std::uint64_t free_notifications() const { return free_notifications_; }  // host -> chip

  // Fixed: the host's queue heads plus the chip's busy bits (one per slot, held in
  // the chip's own memory). Per record: links (16) + rounds (8) + cookie (8) +
  // expiry (8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.fixed_bytes = slots_.size() * sizeof(IntrusiveList<TimerRecord>) +
                          (busy_.size() + 7) / 8;
    profile.essential_record_bytes = 40;
    return profile;
  }

 private:
  friend class TimerServiceBase<ChipAssistedWheel>;

  // Scheme 6 placement in host memory, plus the protocol's two messages: "when
  // the host inserts a timer into an empty queue pointed to by array element X
  // it tells the chip about this new queue", and "when the host deletes a timer
  // entry from some queue and leaves behind an empty queue it needs to inform
  // the chip". A restart or periodic lap is one of each, on two queues.
  void Link(TimerRecord* rec) {
    const std::size_t slot_index = rec->expiry_tick & mask();
    rec->rounds = (rec->interval - 1) >> shift_;
    rec->home_slot = static_cast<std::uint32_t>(slot_index);
    IntrusiveList<TimerRecord>& queue = slots_[slot_index];
    if (queue.empty()) {
      NotifyBusy(slot_index);
    }
    queue.PushBack(rec);
  }
  void Unlink(TimerRecord* rec) {
    rec->Unlink();
    if (slots_[rec->home_slot].empty()) {
      NotifyFree(rec->home_slot);
    }
  }

  std::uint64_t mask() const { return busy_.size() - 1; }

  // One chip scan step; on a busy slot, the host interrupt and its Scheme 6
  // sweep of the queue.
  std::size_t Visit();

  // Host side: mark X busy/free in the chip's memory (one message each).
  void NotifyBusy(std::size_t slot_index) {
    ++busy_notifications_;
    busy_[slot_index] = true;
  }
  void NotifyFree(std::size_t slot_index) {
    ++free_notifications_;
    busy_[slot_index] = false;
  }

  // Host memory: the timer queues. A record's queue index is kept in home_slot,
  // because a relink re-stamps its expiry before unlinking it.
  std::uint32_t shift_;
  std::vector<IntrusiveList<TimerRecord>> slots_;

  // Chip memory: the busy bits.
  std::vector<bool> busy_;

  std::uint64_t chip_scans_ = 0;
  std::uint64_t host_interrupts_ = 0;
  std::uint64_t busy_notifications_ = 0;
  std::uint64_t free_notifications_ = 0;
};

}  // namespace twheel::hw

extern template class twheel::TimerServiceBase<twheel::hw::ChipAssistedWheel>;

#endif  // TWHEEL_SRC_HW_TIMER_CHIP_H_
