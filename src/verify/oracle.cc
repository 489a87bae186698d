#include "src/verify/oracle.h"

#include <limits>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/core/slop.h"

namespace twheel::verify {

StartResult OracleTimers::StartTimer(Duration interval, RequestId request_id) {
  ++counts_.start_calls;
  if (interval == 0) {
    return TimerError::kZeroInterval;
  }
  interval = QuantizeIntervalUp(interval, slop_bits_);
  if (interval > std::numeric_limits<Tick>::max() - now_) {
    return TimerError::kIntervalOutOfRange;
  }
  const std::uint32_t slot = next_slot_++;
  auto it = by_expiry_.emplace(now_ + interval, Pending{request_id, slot});
  live_.emplace(slot, it);
  ++counts_.insert_link_ops;
  // Generation 1 everywhere: the oracle never recycles slots, so the generation
  // carries no information — but a handle with any other generation is garbage.
  return TimerHandle{slot, 1};
}

StartResult OracleTimers::StartPeriodic(Duration interval, RequestId request_id,
                                        std::uint64_t repeat_for) {
  StartResult started = StartTimer(interval, request_id);
  if (!started.has_value()) {
    return started;
  }
  auto it = live_.find(started.value().slot);
  it->second->second.period = QuantizeIntervalUp(interval, slop_bits_);
  it->second->second.repeats = repeat_for;
  ++counts_.periodic_starts;
  return started;
}

TimerError OracleTimers::StopTimer(TimerHandle handle) {
  ++counts_.stop_calls;
  if (!handle.valid() || handle.generation != 1) {
    return TimerError::kNoSuchTimer;
  }
  auto it = live_.find(handle.slot);
  if (it == live_.end()) {
    return TimerError::kNoSuchTimer;
  }
  by_expiry_.erase(it->second);
  live_.erase(it);
  ++counts_.delete_unlink_ops;
  return TimerError::kOk;
}

TimerError OracleTimers::RestartTimer(TimerHandle handle,
                                      Duration new_interval) {
  if (new_interval == 0) {
    return TimerError::kZeroInterval;
  }
  if (!handle.valid() || handle.generation != 1) {
    return TimerError::kNoSuchTimer;
  }
  auto it = live_.find(handle.slot);
  if (it == live_.end()) {
    return TimerError::kNoSuchTimer;
  }
  new_interval = QuantizeIntervalUp(new_interval, slop_bits_);
  if (new_interval > std::numeric_limits<Tick>::max() - now_) {
    return TimerError::kIntervalOutOfRange;
  }
  // In-place by construction: the slot number — the handle — survives; only the
  // multimap position moves. Mirrors the schemes' contract exactly: a restart
  // is neither a start nor a stop, and the handle stays usable afterwards. A
  // periodic keeps its cadence and remaining-fire budget — the Pending is
  // copied wholesale, only the key moves.
  const Pending pending = it->second->second;
  by_expiry_.erase(it->second);
  it->second = by_expiry_.emplace(now_ + new_interval, pending);
  ++counts_.restart_calls;
  ++counts_.restart_relink_ops;
  return TimerError::kOk;
}

std::size_t OracleTimers::PerTickBookkeeping() {
  ++counts_.ticks;
  ++now_;
  // Commit this tick's expiry set before dispatching anything: handlers may start
  // timers (earliest legal expiry now_ + 1) and stop future-due siblings, and
  // neither may affect what fires *now*.
  std::vector<Pending> due;
  auto range = by_expiry_.equal_range(now_);
  for (auto it = range.first; it != range.second; ++it) {
    due.push_back(it->second);
    live_.erase(it->second.slot);
  }
  by_expiry_.erase(range.first, range.second);

  // Re-arm every non-final periodic in place — same slot, key expiry + period —
  // BEFORE any handler runs, matching the schemes' relink-then-dispatch order:
  // a handler cancelling the just-fired periodic finds it live. A lap due past
  // the end of Tick is dropped, and the fire that reached it is the last.
  std::vector<std::pair<RequestId, bool>> fires;
  fires.reserve(due.size());
  for (const Pending& p : due) {
    bool last = p.period == 0 || p.repeats == 1;
    if (!last && p.period > std::numeric_limits<Tick>::max() - now_) {
      ++counts_.periodic_drops;
      last = true;
    }
    if (last) {
      ++counts_.expiries;
    } else {
      Pending next = p;
      if (next.repeats > 1) {
        --next.repeats;
      }
      auto it = by_expiry_.emplace(now_ + next.period, next);
      live_.emplace(next.slot, it);
      ++counts_.periodic_fires;
      ++counts_.periodic_rearm_relinks;
    }
    ++counts_.expiry_dispatches;
    fires.emplace_back(p.request_id, last);
  }
  if (handler_) {
    for (const auto& [id, last] : fires) {
      handler_(id, now_, last);
    }
  }
  return fires.size();
}

bool OracleTimers::FastForward(Tick target) {
  TWHEEL_ASSERT(target >= now_);
  TWHEEL_ASSERT_MSG(by_expiry_.empty() || target < by_expiry_.begin()->first,
                    "FastForward would skip an expiry");
  now_ = target;
  return true;
}

}  // namespace twheel::verify
