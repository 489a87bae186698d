// Global-lock thread-safety wrapper (Appendix A.2's baseline).
//
// "Steve Glaser has pointed out that algorithms that tie up a common data structure
// for a large period of time will reduce efficiency. For instance in Scheme 2, when
// Processor A inserts a timer into the ordered list other processors cannot process
// timer module routines until Processor A finishes and releases its semaphore."
//
// LockedService is that single semaphore: one mutex around any TimerService, so a
// timer is visible the moment StartTimer returns. Wrapped around Scheme 2 it
// reproduces the serialization the appendix criticizes — the lock is held for the
// full O(n) insertion scan; wrapped around Scheme 6 the critical sections are O(1)
// but still globally serialized; and sixteen of them around sixteen Scheme 6 wheels
// are the independent locks the appendix says Schemes 5-7 are suited for
// (bench_appA2_smp's three rows). It is one of the library's two thread-safety
// wrappers; ShardedWheel, the other, takes locks off the producer path entirely.
//
// Expiry handlers run with the lock held; handlers must not call back into the
// service from another thread's perspective (same-thread reentrancy would deadlock a
// std::mutex, so handlers must not start/stop timers, or even read now(), on *this*
// wrapper — use ShardedWheel, which dispatches outside its locks, when that is
// needed).

#ifndef TWHEEL_SRC_CONCURRENT_LOCKED_SERVICE_H_
#define TWHEEL_SRC_CONCURRENT_LOCKED_SERVICE_H_

#include <memory>
#include <mutex>
#include <utility>

#include "src/core/timer_service.h"

namespace twheel::concurrent {

class LockedService final : public TimerService {
 public:
  explicit LockedService(std::unique_ptr<TimerService> inner)
      : inner_(std::move(inner)) {}

  StartResult StartTimer(Duration interval, RequestId request_id) final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->StartTimer(interval, request_id);
  }

  StartResult StartPeriodic(Duration interval, RequestId request_id,
                            std::uint64_t repeat_for = kRepeatForever) final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->StartPeriodic(interval, request_id, repeat_for);
  }

  TimerError StopTimer(TimerHandle handle) final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->StopTimer(handle);
  }

  TimerError RestartTimer(TimerHandle handle, Duration new_interval) final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->RestartTimer(handle, new_interval);
  }

  std::size_t PerTickBookkeeping() final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->PerTickBookkeeping();
  }

  // One lock acquisition for the whole batch — the batched analogue of the
  // appendix's criticism: a long AdvanceTo on a slow inner scheme holds the
  // global lock for the full span.
  std::size_t AdvanceTo(Tick target) final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->AdvanceTo(target);
  }

  std::optional<Tick> NextExpiryHint() const final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->NextExpiryHint();
  }

  bool FastForward(Tick target) final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->FastForward(target);
  }

  Tick now() const final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->now();
  }

  std::size_t outstanding() const final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->outstanding();
  }

  metrics::OpCounts counts() const final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->counts();
  }

  std::string_view name() const final { return "locked-wrapper"; }

  SpaceProfile Space() const final {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_->Space();
  }

  void set_expiry_handler(ExpiryHandler handler) final {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_->set_expiry_handler(std::move(handler));
  }

 private:
  mutable std::mutex mutex_;
  std::unique_ptr<TimerService> inner_;
};

}  // namespace twheel::concurrent

#endif  // TWHEEL_SRC_CONCURRENT_LOCKED_SERVICE_H_
