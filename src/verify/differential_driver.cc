#include "src/verify/differential_driver.h"

#include <algorithm>
#include <compare>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/slop.h"
#include "src/rng/rng.h"
#include "src/verify/oracle.h"

namespace twheel::verify {
namespace {

// One live timer as the driver sees it: the same logical request mirrored by two
// unrelated handles, plus the driver's own expiry prediction (used only to select
// stop-sibling victims that cannot fire on the tick being processed).
struct Entry {
  TimerHandle sut;
  TimerHandle oracle;
  Tick expiry = 0;
  std::size_t index = 0;  // position in the live-id vector (swap-remove)
  // Periodic registrations: the cadence. A fire that is not `last` keeps the
  // entry and advances expiry by period, so the same handle pair is
  // re-verified on every lap; the oracle's `last` is compared with the SUT's.
  Duration period = 0;
};

// One dispatch, compared between the two sides as a set member: intra-tick
// order is unspecified.
struct Fire {
  Tick when;
  RequestId id;
  bool last;
  friend auto operator<=>(const Fire&, const Fire&) = default;
};

// Everything a SUT-side handler decided, for oracle-side replay.
struct TickAction {
  bool self_poke = false;
  TimerHandle self_oracle;  // the fired timer's oracle handle, stale by replay time
  RequestId rearm_id = 0;   // 0 = none (driver ids start at 1)
  Duration rearm_interval = 0;
  RequestId next_tick_id = 0;
  RequestId sibling_id = 0;
  TimerHandle sibling_oracle;
  TimerHandle sibling_sut;
  RequestId restart_sibling_id = 0;  // in-handler restart of a later-due sibling
  TimerHandle restart_sibling_oracle;
  Duration restart_sibling_interval = 0;
  // Cancel-from-own-handler on a NON-FINAL periodic fire: the expiry-path
  // re-arm precedes dispatch, so (unlike self_poke on a one-shot) the handle is
  // live and the stop must SUCCEED on both sides, ending the series.
  bool periodic_self_cancel = false;
};

class Episode {
 public:
  Episode(TimerService& sut, const DriverOptions& options)
      : sut_(sut),
        oracle_(options.slop_bits),
        options_(options),
        rng_(options.seed) {}

  DriverReport Run() {
    sut_.set_expiry_handler(
        [this](RequestId id, Tick when, bool last) { OnSutFire(id, when, last); });
    oracle_.set_expiry_handler([this](RequestId id, Tick when, bool last) {
      OnOracleFire(id, when, last);
    });

    const Tick start_now = sut_.now();
    if (oracle_.now() != 0 || start_now != 0) {
      // The driver assumes fresh services so its expiry predictions line up.
      Diverge(0, "driver requires fresh services (now() == 0)");
    }

    for (std::size_t t = 0; t < options_.ticks && report_.ok; ++t) {
      MutatePhase();
      if (!report_.ok) {
        break;
      }
      if (options_.jump_probability > 0.0 &&
          rng_.NextBool(options_.jump_probability)) {
        Jump();
      } else {
        Step();
      }
    }
    draining_ = true;
    // A periodic started on the last mutate tick may still owe up to
    // periodic_repeat_max fires, one period apart, before it exhausts.
    // Quantized: with slop, every effective interval rounds up to the grain.
    const Duration period_bound =
        std::max(Q(options_.periodic_interval), Q(options_.max_interval));
    const std::size_t periodic_span =
        options_.periodic_probability > 0.0
            ? static_cast<std::size_t>(period_bound) *
                  static_cast<std::size_t>(options_.periodic_repeat_max)
            : 0;
    const std::size_t drain_bound =
        Q(options_.max_interval) + periodic_span + options_.drain_slack;
    for (std::size_t t = 0; t < drain_bound && !live_.empty() && report_.ok; ++t) {
      Step();
    }
    if (report_.ok && !live_.empty()) {
      Diverge(now_, "timers failed to drain within max_interval + slack");
    }
    if (report_.ok && (sut_.outstanding() != 0 || oracle_.outstanding() != 0)) {
      std::ostringstream os;
      os << "post-drain outstanding: sut=" << sut_.outstanding()
         << " oracle=" << oracle_.outstanding();
      Diverge(now_, os.str());
    }
    if (report_.ok) {
      // The driver made identical routine invocations on both sides, so the
      // paper's routine-level counters must agree. (stop_calls is exempt:
      // wrappers may legitimately refuse garbage handles before the counted
      // layer.) Structural counters — comparisons, migrations — differ by
      // design between algorithms and are not compared.
      const metrics::OpCounts a = sut_.counts();
      const metrics::OpCounts b = oracle_.counts();
      if (a.start_calls != b.start_calls || a.ticks != b.ticks ||
          a.expiries != b.expiries || a.restart_calls != b.restart_calls ||
          a.periodic_starts != b.periodic_starts ||
          a.periodic_fires != b.periodic_fires) {
        std::ostringstream os;
        os << "routine counters diverge: starts " << a.start_calls << "/"
           << b.start_calls << " ticks " << a.ticks << "/" << b.ticks
           << " expiries " << a.expiries << "/" << b.expiries << " restarts "
           << a.restart_calls << "/" << b.restart_calls << " periodic_starts "
           << a.periodic_starts << "/" << b.periodic_starts
           << " periodic_fires " << a.periodic_fires << "/"
           << b.periodic_fires;
        Diverge(now_, os.str());
      }
    }
    return report_;
  }

 private:
  // ---- outside-handler mutations -------------------------------------------

  void MutatePhase() {
    // Starts: fractional rates accumulate via one Bernoulli trial.
    const double rate = options_.starts_per_tick;
    std::size_t n = static_cast<std::size_t>(rate);
    if (rng_.NextBool(rate - static_cast<double>(n))) {
      ++n;
    }
    for (std::size_t i = 0; i < n && report_.ok; ++i) {
      StartFresh();
    }
    if (report_.ok && rng_.NextBool(options_.periodic_probability)) {
      StartPeriodicFresh();
    }
    if (report_.ok && rng_.NextBool(options_.zero_interval_probability)) {
      const RequestId id = next_id_++;
      StartResult rs = sut_.StartTimer(0, id);
      StartResult ro = oracle_.StartTimer(0, id);
      if (rs.has_value() || ro.has_value() ||
          rs.error() != TimerError::kZeroInterval ||
          ro.error() != TimerError::kZeroInterval) {
        Diverge(now_, "zero-interval start was not rejected identically");
      }
    }
    if (report_.ok && rng_.NextBool(options_.stop_probability) && !live_ids_.empty()) {
      const RequestId victim =
          live_ids_[rng_.NextBounded(live_ids_.size())];
      auto it = live_.find(victim);
      const Entry e = it->second;
      const TimerError rs = sut_.StopTimer(e.sut);
      const TimerError ro = oracle_.StopTimer(e.oracle);
      if (rs != TimerError::kOk || ro != TimerError::kOk) {
        std::ostringstream os;
        os << "stop of live id " << victim << ": sut=" << TimerErrorName(rs)
           << " oracle=" << TimerErrorName(ro);
        Diverge(now_, os.str());
        return;
      }
      RemoveLive(it);
      Retire(e.sut, e.oracle);
      ++report_.stops;
    }
    if (report_.ok && rng_.NextBool(options_.restart_probability) &&
        !live_ids_.empty()) {
      RestartLive();
    }
    if (report_.ok && rng_.NextBool(options_.restart_zero_probability) &&
        !live_ids_.empty()) {
      // A zero-interval restart must be refused on both sides and must leave
      // the victim untouched: its Entry keeps the old expiry, so the usual
      // per-tick set comparison verifies it still fires at the old deadline.
      const RequestId victim = live_ids_[rng_.NextBounded(live_ids_.size())];
      const Entry& e = live_.find(victim)->second;
      const TimerError rs = sut_.RestartTimer(e.sut, 0);
      const TimerError ro = oracle_.RestartTimer(e.oracle, 0);
      if (rs != TimerError::kZeroInterval || ro != TimerError::kZeroInterval) {
        std::ostringstream os;
        os << "zero-interval restart of live id " << victim
           << " not rejected identically: sut=" << TimerErrorName(rs)
           << " oracle=" << TimerErrorName(ro);
        Diverge(now_, os.str());
        return;
      }
      ++report_.zero_restarts;
    }
    if (report_.ok && rng_.NextBool(options_.restart_stale_probability)) {
      RestartStale();
    }
    if (report_.ok && rng_.NextBool(options_.stale_poke_probability)) {
      PokeStale();
    }
  }

  // In-place restart of one random live timer: kOk on both sides, the SAME
  // handle pair stays valid afterwards (a later stop or second restart reuses
  // it — the semantic payoff over stop+start), and the driver's expiry
  // prediction moves to now + interval so every subsequent tick's set
  // comparison pins the never-fires-at-the-old-deadline half of the contract.
  void RestartLive() {
    const RequestId victim = live_ids_[rng_.NextBounded(live_ids_.size())];
    auto it = live_.find(victim);
    const Duration interval =
        options_.restart_interval != 0
            ? options_.restart_interval
            : options_.min_interval +
                  rng_.NextBounded(options_.max_interval -
                                   options_.min_interval + 1);
    const TimerError rs = sut_.RestartTimer(it->second.sut, interval);
    const TimerError ro = oracle_.RestartTimer(it->second.oracle, interval);
    if (rs != TimerError::kOk || ro != TimerError::kOk) {
      std::ostringstream os;
      os << "restart(" << interval << ") of live id " << victim
         << ": sut=" << TimerErrorName(rs) << " oracle=" << TimerErrorName(ro);
      Diverge(now_, os.str());
      return;
    }
    it->second.expiry = now_ + Q(interval);
    ++report_.restarts;
  }

  // Restart-of-expired, restart-of-cancelled (retired_ holds both), and
  // fabricated/null handles: kNoSuchTimer on both sides, nothing disturbed.
  void RestartStale() {
    ++report_.stale_restarts;
    TimerHandle sut_h;
    TimerHandle oracle_h;
    switch (rng_.NextBounded(3)) {
      case 0:
        if (retired_.empty()) {
          return;
        }
        std::tie(sut_h, oracle_h) = retired_[rng_.NextBounded(retired_.size())];
        break;
      case 1:
        sut_h = TimerHandle{static_cast<std::uint32_t>(rng_.NextBounded(1u << 20)),
                            0xDEADBEEFu};
        oracle_h = sut_h;
        break;
      default:
        sut_h = kInvalidHandle;
        oracle_h = kInvalidHandle;
        break;
    }
    const Duration interval =
        options_.min_interval +
        rng_.NextBounded(options_.max_interval - options_.min_interval + 1);
    const TimerError rs = sut_.RestartTimer(sut_h, interval);
    const TimerError ro = oracle_.RestartTimer(oracle_h, interval);
    if (rs != TimerError::kNoSuchTimer || ro != TimerError::kNoSuchTimer) {
      std::ostringstream os;
      os << "stale restart (slot " << sut_h.slot << " gen " << sut_h.generation
         << ") not refused: sut=" << TimerErrorName(rs)
         << " oracle=" << TimerErrorName(ro);
      Diverge(now_, os.str());
    }
  }

  void StartFresh() {
    const RequestId id = next_id_++;
    const Duration interval =
        options_.min_interval +
        rng_.NextBounded(options_.max_interval - options_.min_interval + 1);
    StartResult rs = sut_.StartTimer(interval, id);
    StartResult ro = oracle_.StartTimer(interval, id);
    if (rs.has_value() != ro.has_value()) {
      std::ostringstream os;
      os << "start(" << interval << ") id " << id << ": sut "
         << (rs.has_value() ? "accepted" : TimerErrorName(rs.error()))
         << ", oracle "
         << (ro.has_value() ? "accepted" : TimerErrorName(ro.error()));
      Diverge(now_, os.str());
      return;
    }
    if (!rs.has_value()) {
      return;  // both rejected identically — legal (e.g. bounded arena)
    }
    AddLive(id, rs.value(), ro.value(), now_ + Q(interval));
    ++report_.starts;
  }

  // One finite periodic registration. Once live it is fair game for the whole
  // existing alphabet — stop (cancel-between-fires), restart (moves only the
  // NEXT deadline; cadence and budget must survive, which the per-lap expiry
  // predictions verify), zero-restart, and post-exhaustion stale pokes.
  void StartPeriodicFresh() {
    const RequestId id = next_id_++;
    const Duration period =
        options_.periodic_interval != 0
            ? options_.periodic_interval
            : options_.min_interval +
                  rng_.NextBounded(options_.max_interval -
                                   options_.min_interval + 1);
    const std::uint64_t repeats =
        1 + rng_.NextBounded(options_.periodic_repeat_max);
    StartResult rs = sut_.StartPeriodic(period, id, repeats);
    StartResult ro = oracle_.StartPeriodic(period, id, repeats);
    if (rs.has_value() != ro.has_value()) {
      std::ostringstream os;
      os << "start_periodic(" << period << " x" << repeats << ") id " << id
         << ": sut "
         << (rs.has_value() ? "accepted" : TimerErrorName(rs.error()))
         << ", oracle "
         << (ro.has_value() ? "accepted" : TimerErrorName(ro.error()));
      Diverge(now_, os.str());
      return;
    }
    if (!rs.has_value()) {
      return;  // both rejected identically
    }
    // Predictions use the quantized period for both the first deadline and the
    // stored cadence: StartPeriodic's effective interval IS the cadence, and
    // QuantizeIntervalUp is idempotent, so every lap stays grain-aligned.
    AddLive(id, rs.value(), ro.value(), now_ + Q(period), Q(period));
    ++report_.starts;
    ++report_.periodic_starts;
  }

  void PokeStale() {
    ++report_.stale_pokes;
    TimerHandle sut_h;
    TimerHandle oracle_h;
    switch (rng_.NextBounded(3)) {
      case 0:  // genuinely retired pair, slots likely recycled since
        if (retired_.empty()) {
          return;
        }
        std::tie(sut_h, oracle_h) = retired_[rng_.NextBounded(retired_.size())];
        break;
      case 1:  // fabricated: plausible slot, impossible generation
        sut_h = TimerHandle{static_cast<std::uint32_t>(rng_.NextBounded(1u << 20)),
                            0xDEADBEEFu};
        oracle_h = sut_h;
        break;
      default:  // the null handle
        sut_h = kInvalidHandle;
        oracle_h = kInvalidHandle;
        break;
    }
    const TimerError rs = sut_.StopTimer(sut_h);
    const TimerError ro = oracle_.StopTimer(oracle_h);
    if (rs != TimerError::kNoSuchTimer || ro != TimerError::kNoSuchTimer) {
      std::ostringstream os;
      os << "stale handle (slot " << sut_h.slot << " gen " << sut_h.generation
         << ") not refused: sut=" << TimerErrorName(rs)
         << " oracle=" << TimerErrorName(ro);
      Diverge(now_, os.str());
    }
  }

  // ---- the lockstep tick ----------------------------------------------------

  void Step() {
    current_tick_ = now_ + 1;
    sut_fired_.clear();
    oracle_fired_.clear();
    actions_.clear();
    fired_handles_.clear();
    pending_.clear();
    claimed_siblings_.clear();
    periodic_refires_this_tick_ = 0;

    const std::size_t ns = sut_.PerTickBookkeeping();
    const std::size_t no = oracle_.PerTickBookkeeping();
    if (!report_.ok) {
      return;
    }

    if (ns != sut_fired_.size() || no != oracle_fired_.size() || ns != no) {
      std::ostringstream os;
      os << "expiry count mismatch: sut returned " << ns << " (dispatched "
         << sut_fired_.size() << "), oracle returned " << no << " (dispatched "
         << oracle_fired_.size() << ")";
      Diverge(current_tick_, os.str());
      return;
    }
    if (!SameFires("expiry sets", current_tick_)) {
      return;
    }
    // Non-final periodic dispatches are fires, not expiries: the registration
    // is still outstanding, so conservation must not count them as resolved.
    report_.expiries += ns - periodic_refires_this_tick_;
    report_.periodic_fires += periodic_refires_this_tick_;

    // Both sides have now invalidated the fired handles; only now are they stale
    // on *both* sides and safe to use as stale-poke ammunition.
    for (const auto& [sut_h, oracle_h] : fired_handles_) {
      Retire(sut_h, oracle_h);
    }
    // Handler-started timers become regular live entries once the oracle replay
    // has produced the second handle of each pair.
    for (const auto& p : pending_) {
      if (!p.oracle_armed) {
        std::ostringstream os;
        os << "oracle never fired the id whose handler started id " << p.id;
        Diverge(current_tick_, os.str());
        return;
      }
      AddLive(p.id, p.sut, p.oracle, p.expiry);
    }

    now_ = current_tick_;
    ++report_.ticks_run;

    if (sut_.now() != now_ || oracle_.now() != now_) {
      std::ostringstream os;
      os << "clock skew: sut now " << sut_.now() << ", oracle now "
         << oracle_.now() << ", driver now " << now_;
      Diverge(now_, os.str());
      return;
    }
    if (sut_.outstanding() != live_.size() ||
        oracle_.outstanding() != live_.size()) {
      std::ostringstream os;
      os << "outstanding mismatch: sut " << sut_.outstanding() << ", oracle "
         << oracle_.outstanding() << ", driver " << live_.size();
      Diverge(now_, os.str());
    }
    if (report_.ok) {
      CheckConservation();
    }
  }

  // Conservation law, checked after every tick and every jump: each accepted
  // start is resolved by exactly one of {expiry, cancel, still outstanding}.
  // Restarts are deliberately absent from both sides of the identity — a
  // restart is neither a start nor a cancel — so any implementation that
  // double-fires, leaks, or mis-reclaims a restarted record breaks the
  // equation within one tick of the defect.
  void CheckConservation() {
    const std::size_t starts = report_.starts + report_.handler_rearms +
                               report_.handler_next_tick_starts;
    const std::size_t cancels = report_.stops + report_.handler_sibling_stops +
                                report_.periodic_self_cancels;
    if (starts != report_.expiries + cancels + live_.size()) {
      std::ostringstream os;
      os << "conservation violated: starts " << starts << " != expiries "
         << report_.expiries << " + cancels " << cancels << " + outstanding "
         << live_.size() << " (restarts so far: "
         << report_.restarts + report_.handler_sibling_restarts << ")";
      Diverge(now_, os.str());
    }
  }

  // ---- the batched jump -----------------------------------------------------

  // Replaces one Step() with a single AdvanceTo(now + delta) call on each side.
  // The SUT's batched override (for the wheels: occupancy-bitmap slot skipping)
  // must dispatch exactly the same (tick, id) pairs as the oracle's loop default,
  // each in nondecreasing tick order, and leave both clocks and populations in
  // lockstep. Handlers stay passive (see OnSutFire/OnOracleFire): the
  // decide-then-replay protocol is tick-grained, so re-entrancy coverage stays
  // with Step().
  void Jump() {
    Duration delta;
    if (!options_.jump_pivots.empty() && rng_.NextBool(0.5)) {
      delta = options_.jump_pivots[rng_.NextBounded(options_.jump_pivots.size())];
    } else {
      delta = 1 + rng_.NextBounded(options_.max_jump);
    }
    jump_target_ = now_ + delta;
    sut_fired_.clear();
    oracle_fired_.clear();
    fired_handles_.clear();
    periodic_refires_this_tick_ = 0;

    jumping_ = true;
    const std::size_t ns = sut_.AdvanceTo(jump_target_);
    const std::size_t no = oracle_.AdvanceTo(jump_target_);
    jumping_ = false;
    if (!report_.ok) {
      return;
    }

    if (ns != sut_fired_.size() || no != oracle_fired_.size() || ns != no) {
      std::ostringstream os;
      os << "jump(+" << delta << ") expiry count mismatch: sut returned " << ns
         << " (dispatched " << sut_fired_.size() << "), oracle returned " << no
         << " (dispatched " << oracle_fired_.size() << ")";
      Diverge(jump_target_, os.str());
      return;
    }
    const auto by_tick = [](const Fire& a, const Fire& b) { return a.when < b.when; };
    if (!std::is_sorted(sut_fired_.begin(), sut_fired_.end(), by_tick)) {
      Diverge(jump_target_, "sut dispatched jump expiries out of tick order");
      return;
    }
    if (!std::is_sorted(oracle_fired_.begin(), oracle_fired_.end(), by_tick)) {
      Diverge(jump_target_, "oracle dispatched jump expiries out of tick order");
      return;
    }
    if (!SameFires("jump expiry sets", jump_target_)) {
      return;
    }
    report_.expiries += ns - periodic_refires_this_tick_;
    report_.periodic_fires += periodic_refires_this_tick_;

    for (const auto& [sut_h, oracle_h] : fired_handles_) {
      Retire(sut_h, oracle_h);
    }

    now_ = jump_target_;
    report_.ticks_run += static_cast<std::size_t>(delta);
    ++report_.jumps;
    report_.jump_ticks += static_cast<std::size_t>(delta);

    if (sut_.now() != now_ || oracle_.now() != now_) {
      std::ostringstream os;
      os << "clock skew after jump: sut now " << sut_.now() << ", oracle now "
         << oracle_.now() << ", driver now " << now_;
      Diverge(now_, os.str());
      return;
    }
    if (sut_.outstanding() != live_.size() ||
        oracle_.outstanding() != live_.size()) {
      std::ostringstream os;
      os << "outstanding mismatch after jump: sut " << sut_.outstanding()
         << ", oracle " << oracle_.outstanding() << ", driver " << live_.size();
      Diverge(now_, os.str());
    }
    if (report_.ok) {
      CheckConservation();
    }
  }

  // ---- expiry handlers ------------------------------------------------------

  void OnSutFire(RequestId id, Tick when, bool last) {
    if (!report_.ok) {
      return;
    }
    sut_fired_.push_back(Fire{when, id, last});
    if (jumping_) {
      auto it = live_.find(id);
      if (it == live_.end()) {
        std::ostringstream os;
        os << "sut fired unknown or doubly-fired id " << id << " during a jump";
        Diverge(when, os.str());
        return;
      }
      const Entry e = it->second;
      if (when != e.expiry || when <= now_ || when > jump_target_) {
        std::ostringstream os;
        os << "sut fired id " << id << " at tick " << when << ", due at "
           << e.expiry << " while jumping (" << now_ << ", " << jump_target_
           << "]";
        Diverge(when, os.str());
        return;
      }
      if (!last) {
        // A lap inside the jumped window: the timer stays live and may legally
        // fire again — at when + period — before the window closes. Advancing
        // the prediction in place makes the same when-vs-expiry check above
        // pin each successive lap.
        it->second.expiry = when + e.period;
        ++periodic_refires_this_tick_;
        return;
      }
      RemoveLive(it);
      fired_handles_.emplace_back(e.sut, e.oracle);
      return;  // handlers are passive across a jump
    }
    auto it = live_.find(id);
    if (it == live_.end()) {
      std::ostringstream os;
      os << "sut fired unknown or doubly-fired id " << id;
      Diverge(current_tick_, os.str());
      return;
    }
    const Entry e = it->second;
    if (when != current_tick_ || e.expiry != current_tick_) {
      std::ostringstream os;
      os << "sut fired id " << id << " at tick " << when << ", due at "
         << e.expiry << " while processing " << current_tick_;
      Diverge(current_tick_, os.str());
      return;
    }
    if (!last) {
      // A periodic lap: the registration stays live — re-armed in place by
      // the SUT's expiry path, re-inserted by the oracle — so the entry is
      // kept with its prediction advanced one period (phase-stable: the k-th
      // fire lands at start + k*period regardless of dispatch latency). It is
      // CLAIMED for the rest of the tick: whether the SUT's sweep has re-armed
      // it yet when some other handler runs is order-dependent, so same-tick
      // siblings must not stop/restart it.
      it->second.expiry = when + e.period;
      claimed_siblings_.push_back(id);
      ++periodic_refires_this_tick_;
      if (draining_) {
        return;
      }
      if (rng_.NextBool(options_.self_poke_probability)) {
        // Cancel-from-own-handler: between fires the handle is live (the
        // re-arm precedes dispatch), so this must SUCCEED and end the series.
        const TimerError r = sut_.StopTimer(e.sut);
        if (r != TimerError::kOk) {
          std::ostringstream os;
          os << "sut refused a fired periodic's own-handler cancel ("
             << TimerErrorName(r) << ")";
          Diverge(current_tick_, os.str());
          return;
        }
        RemoveLive(live_.find(id));
        TickAction action;
        action.periodic_self_cancel = true;
        action.self_oracle = e.oracle;
        actions_.emplace(id, action);
        Retire(e.sut, e.oracle);
        ++report_.periodic_self_cancels;
      }
      return;
    }
    RemoveLive(it);
    fired_handles_.emplace_back(e.sut, e.oracle);
    if (draining_) {
      return;
    }

    TickAction action;
    if (rng_.NextBool(options_.self_poke_probability)) {
      action.self_poke = true;
      action.self_oracle = e.oracle;
      const TimerError r = sut_.StopTimer(e.sut);
      if (r != TimerError::kNoSuchTimer) {
        std::ostringstream os;
        os << "sut accepted the fired timer's own handle inside its handler ("
           << TimerErrorName(r) << ")";
        Diverge(current_tick_, os.str());
        return;
      }
    }
    if (rng_.NextBool(options_.rearm_probability)) {
      const Duration d = options_.rearm_interval != 0
                             ? options_.rearm_interval
                             : options_.min_interval +
                                   rng_.NextBounded(options_.max_interval -
                                                    options_.min_interval + 1);
      action.rearm_id = HandlerStart(d);
      action.rearm_interval = d;
      if (!report_.ok) {
        return;
      }
      ++report_.handler_rearms;
    }
    if (rng_.NextBool(options_.start_next_tick_probability)) {
      action.next_tick_id = HandlerStart(1);
      if (!report_.ok) {
        return;
      }
      ++report_.handler_next_tick_starts;
    }
    if (rng_.NextBool(options_.stop_sibling_probability)) {
      // Only siblings strictly due later are legal victims: a same-tick sibling
      // may or may not have fired yet depending on the scheme's sweep order.
      // Siblings already restarted by ANOTHER handler this tick are off limits
      // too: a restarted sibling stays live, and a stop layered on top would
      // make the call results depend on which handler the oracle replays first.
      for (int probe = 0; probe < 8 && !live_ids_.empty(); ++probe) {
        const RequestId candidate =
            live_ids_[rng_.NextBounded(live_ids_.size())];
        auto sit = live_.find(candidate);
        if (sit->second.expiry <= current_tick_ || SiblingClaimed(candidate)) {
          continue;
        }
        const Entry sibling = sit->second;
        const TimerError r = sut_.StopTimer(sibling.sut);
        if (r != TimerError::kOk) {
          std::ostringstream os;
          os << "sut refused in-handler stop of future sibling " << candidate
             << ": " << TimerErrorName(r);
          Diverge(current_tick_, os.str());
          return;
        }
        RemoveLive(sit);
        action.sibling_id = candidate;
        action.sibling_oracle = sibling.oracle;
        action.sibling_sut = sibling.sut;
        claimed_siblings_.push_back(candidate);
        ++report_.handler_sibling_stops;
        break;
      }
    }
    if (rng_.NextBool(options_.restart_sibling_probability)) {
      // Same later-due victim rule as stop_sibling. The relink happens while
      // the scheme is mid-dispatch: with restart_sibling_interval set to the
      // table size it lands the sibling in the very bucket being swept, where
      // only the rounds/revolution arithmetic keeps it from firing a whole
      // wheel revolution early. The sibling STAYS live (same handles, new
      // expiry prediction) — which is exactly why it must be CLAIMED for the
      // tick: unlike a stopped sibling it remains a temptation for handlers
      // that fire later in the sweep, and a second stop/restart layered on it
      // would replay in a different order on the oracle side (intra-tick
      // dispatch order is unspecified) with visibly different call results.
      for (int probe = 0; probe < 8 && !live_ids_.empty(); ++probe) {
        const RequestId candidate =
            live_ids_[rng_.NextBounded(live_ids_.size())];
        auto sit = live_.find(candidate);
        if (sit->second.expiry <= current_tick_ ||
            candidate == action.sibling_id || SiblingClaimed(candidate)) {
          continue;
        }
        const Duration d =
            options_.restart_sibling_interval != 0
                ? options_.restart_sibling_interval
                : options_.min_interval +
                      rng_.NextBounded(options_.max_interval -
                                       options_.min_interval + 1);
        const TimerError r = sut_.RestartTimer(sit->second.sut, d);
        if (r != TimerError::kOk) {
          std::ostringstream os;
          os << "sut refused in-handler restart of future sibling " << candidate
             << ": " << TimerErrorName(r);
          Diverge(current_tick_, os.str());
          return;
        }
        sit->second.expiry = current_tick_ + Q(d);
        action.restart_sibling_id = candidate;
        action.restart_sibling_oracle = sit->second.oracle;
        action.restart_sibling_interval = d;
        claimed_siblings_.push_back(candidate);
        ++report_.handler_sibling_restarts;
        break;
      }
    }
    actions_.emplace(id, action);
  }

  // Start a timer from inside a SUT handler; returns the fresh id. The SUT handle
  // is parked in pending_ until the oracle replay arms its twin.
  RequestId HandlerStart(Duration interval) {
    const RequestId id = next_id_++;
    StartResult r = sut_.StartTimer(interval, id);
    if (!r.has_value()) {
      std::ostringstream os;
      os << "sut rejected in-handler start(" << interval
         << "): " << TimerErrorName(r.error());
      Diverge(current_tick_, os.str());
      return 0;
    }
    pending_.push_back(
        Pending{id, r.value(), TimerHandle{}, current_tick_ + Q(interval), false});
    return id;
  }

  void OnOracleFire(RequestId id, Tick when, bool last) {
    if (!report_.ok) {
      return;
    }
    oracle_fired_.push_back(Fire{when, id, last});
    if (jumping_) {
      // The SUT's pass already removed this id from live_; only the window is
      // checkable here. Set equality is established after both sides return.
      if (when <= now_ || when > jump_target_) {
        std::ostringstream os;
        os << "oracle fired id " << id << " at tick " << when
           << " while jumping (" << now_ << ", " << jump_target_ << "]";
        Diverge(when, os.str());
      }
      return;
    }
    if (when != current_tick_) {
      std::ostringstream os;
      os << "oracle fired id " << id << " at tick " << when
         << " while processing " << current_tick_;
      Diverge(current_tick_, os.str());
      return;
    }
    auto ait = actions_.find(id);
    if (ait == actions_.end()) {
      return;  // either no action was decided, or the sets diverge (caught later)
    }
    const TickAction& a = ait->second;
    if (a.periodic_self_cancel) {
      // Replay: the oracle re-armed this periodic before dispatch too, so its
      // handle must ALSO be live from inside the handler — and stopping it
      // must succeed, ending the series on both sides.
      const TimerError r = oracle_.StopTimer(a.self_oracle);
      if (r != TimerError::kOk) {
        std::ostringstream os;
        os << "oracle refused a fired periodic's own-handler cancel ("
           << TimerErrorName(r) << ")";
        Diverge(current_tick_, os.str());
      }
      return;
    }
    if (a.self_poke) {
      // Replay: the oracle, too, must refuse the fired timer's own handle.
      const TimerError r = oracle_.StopTimer(a.self_oracle);
      if (r != TimerError::kNoSuchTimer) {
        std::ostringstream os;
        os << "oracle accepted the fired timer's own handle inside its handler ("
           << TimerErrorName(r) << ")";
        Diverge(current_tick_, os.str());
        return;
      }
    }
    if (a.rearm_id != 0) {
      ReplayStart(a.rearm_interval, a.rearm_id);
    }
    if (a.next_tick_id != 0) {
      ReplayStart(1, a.next_tick_id);
    }
    if (a.sibling_id != 0) {
      const TimerError r = oracle_.StopTimer(a.sibling_oracle);
      if (r != TimerError::kOk) {
        std::ostringstream os;
        os << "oracle refused replayed sibling stop of id " << a.sibling_id
           << ": " << TimerErrorName(r);
        Diverge(current_tick_, os.str());
        return;
      }
      Retire(a.sibling_sut, a.sibling_oracle);
    }
    if (a.restart_sibling_id != 0) {
      const TimerError r = oracle_.RestartTimer(a.restart_sibling_oracle,
                                                a.restart_sibling_interval);
      if (r != TimerError::kOk) {
        std::ostringstream os;
        os << "oracle refused replayed sibling restart of id "
           << a.restart_sibling_id << ": " << TimerErrorName(r);
        Diverge(current_tick_, os.str());
        return;
      }
    }
  }

  void ReplayStart(Duration interval, RequestId id) {
    StartResult r = oracle_.StartTimer(interval, id);
    if (!r.has_value()) {
      std::ostringstream os;
      os << "oracle rejected replayed start(" << interval << ") id " << id;
      Diverge(current_tick_, os.str());
      return;
    }
    for (auto& p : pending_) {
      if (p.id == id) {
        p.oracle = r.value();
        p.oracle_armed = true;
        return;
      }
    }
    Diverge(current_tick_, "replayed start has no pending SUT twin");
  }

  // ---- bookkeeping helpers --------------------------------------------------

  void AddLive(RequestId id, TimerHandle sut, TimerHandle oracle, Tick expiry,
               Duration period = 0) {
    Entry e{sut, oracle, expiry, live_ids_.size(), period};
    live_ids_.push_back(id);
    live_.emplace(id, e);
  }

  void RemoveLive(std::unordered_map<RequestId, Entry>::iterator it) {
    const std::size_t index = it->second.index;
    const RequestId moved = live_ids_.back();
    live_ids_[index] = moved;
    live_ids_.pop_back();
    if (moved != it->first) {
      live_.find(moved)->second.index = index;
    }
    live_.erase(it);
  }

  void Retire(TimerHandle sut, TimerHandle oracle) {
    if (retired_.size() < kRetiredCap) {
      retired_.emplace_back(sut, oracle);
    } else {
      retired_[rng_.NextBounded(kRetiredCap)] = {sut, oracle};
    }
  }

  // The driver's expiry predictions mirror the schemes' effective intervals.
  Duration Q(Duration interval) const {
    return QuantizeIntervalUp(interval, options_.slop_bits);
  }

  // Compares the (tick, id, last) sets the two sides dispatched since the
  // scratch vectors were cleared; false after reporting a divergence.
  bool SameFires(const char* what, Tick at) {
    std::sort(sut_fired_.begin(), sut_fired_.end());
    std::sort(oracle_fired_.begin(), oracle_fired_.end());
    if (sut_fired_ == oracle_fired_) {
      return true;
    }
    std::size_t i = 0;
    while (i < sut_fired_.size() && i < oracle_fired_.size() &&
           sut_fired_[i] == oracle_fired_[i]) {
      ++i;
    }
    const auto describe = [i](const std::vector<Fire>& fires) {
      std::ostringstream os;
      if (i < fires.size()) {
        os << "(tick " << fires[i].when << ", id " << fires[i].id
           << (fires[i].last ? ", last)" : ", lap)");
      } else {
        os << "nothing";
      }
      return os.str();
    };
    std::ostringstream os;
    os << what << " differ at position " << i << ": sut " << describe(sut_fired_)
       << " vs oracle " << describe(oracle_fired_);
    Diverge(at, os.str());
    return false;
  }

  bool SiblingClaimed(RequestId id) const {
    return std::find(claimed_siblings_.begin(), claimed_siblings_.end(), id) !=
           claimed_siblings_.end();
  }

  void Diverge(Tick tick, const std::string& what) {
    if (!report_.ok) {
      return;
    }
    report_.ok = false;
    std::ostringstream os;
    os << "[" << sut_.name() << " @ tick " << tick << "] " << what;
    report_.divergence = os.str();
  }

  static constexpr std::size_t kRetiredCap = 256;

  struct Pending {
    RequestId id;
    TimerHandle sut;
    TimerHandle oracle;
    Tick expiry;
    bool oracle_armed;
  };

  TimerService& sut_;
  OracleTimers oracle_;
  const DriverOptions options_;
  rng::Xoshiro256 rng_;
  DriverReport report_;

  Tick now_ = 0;
  Tick current_tick_ = 0;
  RequestId next_id_ = 1;
  bool draining_ = false;
  bool jumping_ = false;
  Tick jump_target_ = 0;

  std::unordered_map<RequestId, Entry> live_;
  std::vector<RequestId> live_ids_;
  std::vector<std::pair<TimerHandle, TimerHandle>> retired_;

  // Per-tick (and per-jump) scratch: every dispatch of each side.
  std::vector<Fire> sut_fired_;
  std::vector<Fire> oracle_fired_;
  std::unordered_map<RequestId, TickAction> actions_;
  // Siblings stopped or restarted from inside a handler this tick. Each may be
  // targeted by at most ONE in-handler action: a restarted sibling stays live,
  // so two handlers hitting it in SUT dispatch order could see call results the
  // oracle's replay order cannot reproduce.
  std::vector<RequestId> claimed_siblings_;
  // Laps (fires that are not `last`) seen in the current Step()/Jump():
  // subtracted from the tick's dispatch total when crediting report_.expiries.
  std::size_t periodic_refires_this_tick_ = 0;
  std::vector<std::pair<TimerHandle, TimerHandle>> fired_handles_;
  std::vector<Pending> pending_;
};

}  // namespace

DriverReport RunDifferential(TimerService& sut, const DriverOptions& options) {
  Episode episode(sut, options);
  return episode.Run();
}

}  // namespace twheel::verify
