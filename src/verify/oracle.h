// OracleTimers — the trivially-correct reference model for differential checking.
//
// Every scheme in this repository promises *exact* expiry: a timer started with
// interval k fires on the k-th subsequent PerTickBookkeeping call, unless stopped
// first. The oracle states that contract in the most direct data structure
// available — a sorted multimap from absolute expiry tick to request — with no
// wheels, no hashing, no rounds arithmetic, no arena recycling. It is deliberately
// slow (O(log n) per operation, heap-allocating) and deliberately boring: when the
// differential driver (differential_driver.h) finds a divergence between a scheme
// and this model, the scheme is wrong.
//
// Semantics pinned by the oracle, and relied upon by the driver:
//  * Firing order within a tick is UNSPECIFIED. The oracle fires timers due at
//    tick T in an arbitrary order; drivers must compare expiry *sets* per tick,
//    never sequences (Section 4.2: "Timer modules need not meet this [FIFO]
//    restriction").
//  * Timers due at tick T are committed when T's bookkeeping begins: an expiry
//    handler running inside tick T cannot stop a sibling that is also due at T
//    (both return kNoSuchTimer by then). Handlers may freely stop siblings due at
//    later ticks, re-arm themselves, and start new timers — a re-arm's earliest
//    legal expiry is T+1 since zero intervals are rejected.
//  * Handles are never recycled: each StartTimer burns a fresh slot number, so a
//    stale handle is *always* detected, making the oracle the strictest possible
//    referee for handle-safety checks (schemes detect staleness via generation
//    counters; the oracle detects it by construction).

#ifndef TWHEEL_SRC_VERIFY_ORACLE_H_
#define TWHEEL_SRC_VERIFY_ORACLE_H_

#include <cstddef>
#include <map>
#include <unordered_map>

#include "src/core/timer_service.h"

namespace twheel::verify {

class OracleTimers final : public TimerService {
 public:
  // `slop_bits` mirrors the schemes' reduced-precision knob (src/core/slop.h):
  // the oracle applies the same QuantizeIntervalUp to every accepted interval,
  // so a slop-configured scheme and a slop-configured oracle still agree
  // tick-for-tick and differential checking stays exact-match. Periodic cadence
  // uses the quantized period, matching the schemes' StartPeriodic.
  explicit OracleTimers(std::uint32_t slop_bits = 0) : slop_bits_(slop_bits) {}

  StartResult StartTimer(Duration interval, RequestId request_id) final;
  // Native periodic model: the multimap entry re-inserts itself at expiry +
  // interval on every non-final fire, keeping its slot — so the handle stays
  // valid between fires, exactly the schemes' relink contract. Re-arms happen
  // before any of the tick's handlers run (a handler cancelling the just-fired
  // periodic gets kOk); the final fire of a finite registration retires the
  // slot like a one-shot expiry. Non-final fires count periodic_fires, never
  // expiries, so the conservation law is shared with the schemes. A lap whose
  // next deadline would pass the end of Tick is a periodic_drop that retires
  // the slot too. The oracle decides this with its own rule, so the drivers
  // can check every scheme's `last` flag against it.
  StartResult StartPeriodic(Duration interval, RequestId request_id,
                            std::uint64_t repeat_for = kRepeatForever) final;
  TimerError StopTimer(TimerHandle handle) final;
  // In-place restart: the multimap entry moves to now + new_interval but the
  // slot — and therefore the caller's handle — survives, stating the
  // handle-stability half of the RestartTimer contract by construction.
  TimerError RestartTimer(TimerHandle handle, Duration new_interval) final;
  std::size_t PerTickBookkeeping() final;

  Tick now() const final { return now_; }
  std::size_t outstanding() const final { return live_.size(); }
  metrics::OpCounts counts() const final { return counts_; }
  std::string_view name() const final { return "verify-oracle"; }
  void set_expiry_handler(ExpiryHandler handler) final {
    handler_ = std::move(handler);
  }

  // The oracle's ordered map answers the earliest expiry for free, so the §3.2
  // single-timer drivers can also be cross-checked against it.
  std::optional<Tick> NextExpiryHint() const final {
    if (by_expiry_.empty()) {
      return std::nullopt;
    }
    return by_expiry_.begin()->first;
  }
  // Exact: requires now() <= target < the next expiry, as TimerServiceBase
  // does, and moves the clock without counting the ticks crossed.
  bool FastForward(Tick target) final;

  // Not a contender in the paper's space comparison; report the honest shape of
  // the model (two node-based maps per outstanding timer).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.essential_record_bytes = 0;
    profile.actual_record_bytes = 0;
    profile.auxiliary_bytes =
        live_.size() * (sizeof(std::pair<Tick, RequestId>) * 2 + 8 * sizeof(void*));
    return profile;
  }

 private:
  struct Pending {
    RequestId request_id;
    std::uint32_t slot;
    Duration period = 0;         // 0 = one-shot
    std::uint64_t repeats = 0;   // remaining fires; kRepeatForever = unbounded
  };

  using ExpiryMap = std::multimap<Tick, Pending>;

  Tick now_ = 0;
  std::uint32_t slop_bits_ = 0;
  std::uint32_t next_slot_ = 0;
  ExpiryMap by_expiry_;
  // slot -> position in by_expiry_, so StopTimer erases exactly its own entry
  // (request ids are client cookies and need not be unique).
  std::unordered_map<std::uint32_t, ExpiryMap::iterator> live_;
  ExpiryHandler handler_;
  metrics::OpCounts counts_;
};

}  // namespace twheel::verify

#endif  // TWHEEL_SRC_VERIFY_ORACLE_H_
