// The paper's four-routine timer-module model (Section 2), as an abstract interface.
//
//   START_TIMER(Interval, Request_ID, Expiry_Action)  -> StartTimer()
//   STOP_TIMER(Request_ID)                            -> StopTimer()
//   PER_TICK_BOOKKEEPING                              -> PerTickBookkeeping()
//   EXPIRY_PROCESSING                                 -> the installed ExpiryHandler
//
// Differences from the paper's sketch, and why:
//  * StartTimer returns a TimerHandle instead of the client keying stops by
//    Request_ID: the handle is the "pointer to the element" the paper says
//    START_TIMER should store so STOP_TIMER is O(1) on doubly linked lists, made
//    safe by a generation counter (stopping an already-expired timer returns
//    kNoSuchTimer instead of corrupting a recycled record).
//  * The Expiry_Action is one handler per service plus a 64-bit RequestId cookie per
//    timer, matching kernel practice and avoiding per-timer std::function allocation.
//  * Time never comes from a wall clock. The owner calls PerTickBookkeeping() once
//    per simulated tick, which is exactly the paper's model of a hardware clock
//    interrupting the host.
//
// Every implementation maintains metrics::OpCounts so benches can report costs in
// the paper's currency (elementary operations / VAX instructions) as well as in
// wall-clock time.
//
// The paper's Schemes 1-7 differ only in where a timer record is filed and
// where the tick finds its work, and the code follows suit:
// TimerServiceBase<Scheme> below writes all four routines once — START_TIMER,
// STOP_TIMER, RESTART_TIMER (and the periodic re-arm) and PER_TICK_BOOKKEEPING
// with its batched forms AdvanceTo and FastForward — and each scheme supplies
// hooks that say where its records and its per-tick work live.

#ifndef TWHEEL_SRC_CORE_TIMER_SERVICE_H_
#define TWHEEL_SRC_CORE_TIMER_SERVICE_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/base/assert.h"
#include "src/base/expected.h"
#include "src/base/slab_arena.h"
#include "src/base/types.h"
#include "src/core/timer_record.h"
#include "src/metrics/op_counts.h"

namespace twheel {

using StartResult = Expected<TimerHandle, TimerError>;

// What a bounded-range scheme does with an interval beyond its span (Schemes 4, 7).
enum class OverflowPolicy : std::uint8_t {
  kReject,  // StartTimer returns kIntervalOutOfRange
  kClamp,   // interval saturates to the scheme's maximum representable interval
};

// EXPIRY_PROCESSING: invoked synchronously from within PerTickBookkeeping for each
// expired timer, with the client's cookie, the current tick and whether this
// fire ends the timer. `last` is true for a one-shot's fire, a periodic's final
// budgeted lap, and a lap whose re-arm the scheme dropped (periodic_drops); from
// then on the timer's handle is stale. A handler that keeps per-timer state frees
// it on `last` rather than working the rule out again.
using ExpiryHandler = std::function<void(RequestId, Tick, bool last)>;

class TimerService {
 public:
  virtual ~TimerService() = default;

  // START_TIMER. `interval` is in ticks, measured from the current tick; an interval
  // of k expires on the k-th subsequent PerTickBookkeeping call. Zero intervals are
  // rejected with kZeroInterval (an "expire now" is not a timer), and an interval
  // whose deadline now() + interval would pass the end of Tick with
  // kIntervalOutOfRange.
  virtual StartResult StartTimer(Duration interval, RequestId request_id) = 0;

  // repeat_for value meaning "fire until stopped".
  static constexpr std::uint64_t kRepeatForever = 0;

  // Periodic START_TIMER: fires every `interval` ticks, `repeat_for` times in
  // total (kRepeatForever = until stopped). The first fire is at now + interval;
  // subsequent fires keep phase — each is due exactly `interval` after the
  // previous one. The returned handle stays valid across every non-final fire:
  // the arena record is relinked in place on the expiry path (never released),
  // so StopTimer/RestartTimer work between fires with the original handle and
  // generation. RestartTimer on a periodic timer moves only the NEXT deadline;
  // the cadence and remaining-fire budget continue from there. The final fire of
  // a finite registration releases the record like a one-shot expiry.
  //
  // Default: kNotSupported. TimerServiceBase provides the arena-backed
  // implementation every scheme inherits; wrappers forward.
  virtual StartResult StartPeriodic(Duration interval, RequestId request_id,
                                    std::uint64_t repeat_for = kRepeatForever) {
    (void)interval;
    (void)request_id;
    (void)repeat_for;
    return TimerError::kNotSupported;
  }

  // STOP_TIMER. Returns kOk if the timer was outstanding and is now cancelled;
  // kNoSuchTimer if the handle is stale (already expired, already stopped, invalid).
  virtual TimerError StopTimer(TimerHandle handle) = 0;

  // RESTART_TIMER — reschedule an outstanding timer to expire `new_interval`
  // ticks from now, keeping its cookie. This is the hot operation of the
  // paper's motivating clients (Section 2's TCP retransmission and keepalive
  // timers restart on every ACK; they almost never expire). Returns kOk on
  // success, kZeroInterval for new_interval == 0, kNoSuchTimer for a stale
  // handle, and kIntervalOutOfRange from bounded-range schemes under
  // OverflowPolicy::kReject or for a deadline past the end of Tick — in which
  // case the timer is left untouched at its old deadline.
  //
  // Contract on success: the handle (and its generation) REMAINS VALID — the
  // caller keeps using the same handle for later stops and restarts.
  // TimerServiceBase<Scheme> honors that for every scheme in this repository:
  // it re-stamps the record and the scheme relinks it in place (unlink / link,
  // or a heap sift), never freeing it.
  //
  // Default: kNotSupported. An earlier default implemented the semantic
  // definition as StopTimer + StartTimer through the public interface, but that
  // cannot recover the client's cookie — it silently restarted the timer with
  // RequestId{0}, so the eventual expiry delivered the wrong cookie. A restart
  // that loses the cookie is worse than no restart; services without arena
  // access must refuse rather than guess.
  virtual TimerError RestartTimer(TimerHandle handle, Duration new_interval) {
    (void)handle;
    if (new_interval == 0) {
      return TimerError::kZeroInterval;
    }
    return TimerError::kNotSupported;
  }

  // PER_TICK_BOOKKEEPING. Advances the clock by one tick and dispatches
  // EXPIRY_PROCESSING for every timer due at the new time. Returns the number of
  // timers that expired on this tick.
  virtual std::size_t PerTickBookkeeping() = 0;

  virtual Tick now() const = 0;
  virtual std::size_t outstanding() const = 0;
  // Returned by value: thread-safe services (LockedService, ShardedWheel) snapshot
  // their counters under their own locks, and a reference would escape that lock and
  // race with the next caller. Single-threaded schemes just copy 200 bytes.
  // Concurrent-dispatch contract (ShardedWheel under a DispatchPool): the snapshot
  // may be taken while N drainers are mid-dispatch, so individual fields can lag
  // each other transiently — but once the service quiesces (outstanding() == 0,
  // no driver running), the conservation law
  //   start_calls == expiries + successful cancels + outstanding
  // holds exactly whenever no start was rejected, no matter how many drainers
  // raced (ShardedWheel reports claim-point client-view counters, not its inner
  // wheels' ghost-inflated totals — see ShardedWheel::counts()).
  virtual metrics::OpCounts counts() const = 0;
  virtual std::string_view name() const = 0;

  virtual void set_expiry_handler(ExpiryHandler handler) = 0;

  // SPACE — the paper's second performance measure ("the memory required for the
  // data structures used by the timer module", Section 2). Reported in three parts
  // so the paper's space commentary is checkable: Scheme 1 "uses one record per
  // outstanding timer, the minimum space possible"; Scheme 2 "needs O(n) extra
  // space for the forward and back pointers"; Scheme 7 needs 244 slots where a flat
  // wheel needs 8.64 million.
  struct SpaceProfile {
    // Bytes of structure owned regardless of population: wheel slot arrays,
    // hierarchy levels, chip busy bits. Zero for the list/tree schemes.
    std::size_t fixed_bytes = 0;
    // Bytes per outstanding timer that this scheme's algorithm inherently needs
    // (key, cookie, links/indices) — the minimal record a scheme-specific
    // deployment would allocate.
    std::size_t essential_record_bytes = 0;
    // Bytes per record actually allocated: the shared hot/cold pair that lets one
    // arena serve every scheme (see timer_record.h for the placement rule). The
    // hot record is the per-op cache footprint; the cold twin is only touched at
    // allocation, expiry dispatch, and by the tree baselines.
    std::size_t hot_record_bytes = sizeof(TimerRecord);
    std::size_t cold_record_bytes = sizeof(ColdTimerRecord);
    std::size_t actual_record_bytes = sizeof(TimerRecord) + sizeof(ColdTimerRecord);
    // Population-dependent auxiliary storage beyond the records themselves, at its
    // current size (e.g. the binary heap's pointer array capacity).
    std::size_t auxiliary_bytes = 0;
  };
  virtual SpaceProfile Space() const = 0;

  // Optional capability behind Section 3.2's hardware-single-timer variant: "the
  // hardware timer is set to expire at the time at which the timer at the head of
  // the list is due to expire. The hardware intercepts all clock ticks and
  // interrupts the host only when a timer actually expires."
  //
  // NextExpiryHint returns the earliest outstanding expiry when the scheme can
  // answer without a full per-record scan (ordered list: head; heap: root; BST:
  // leftmost; wheels: an occupancy-bitmap scan — see each scheme for its cost and
  // exactness); nullopt when it cannot or when no timer is outstanding. Schemes
  // whose hint is a conservative lower bound (never later than the true next
  // expiry) document that on the override; callers jumping to hint-1 stay safe
  // either way. FastForward advances the clock to `target` without per-tick calls;
  // it requires now() <= target and target strictly before the next expiry, and
  // returns false (doing nothing) on schemes without the capability. Ticks crossed
  // this way are NOT counted in OpCounts ("the hardware intercepts all clock
  // ticks"). Together they let a driver sleep through dead time — see
  // sim::Simulator::RunUntilIdleJumping.
  virtual std::optional<Tick> NextExpiryHint() const { return std::nullopt; }
  virtual bool FastForward(Tick /*target*/) { return false; }

  // Batched PER_TICK_BOOKKEEPING: advance the clock to exactly `target` (which
  // must be >= now()), dispatching every expiry in between in the same order the
  // per-tick loop would, and counting every simulated tick in OpCounts::ticks.
  // Returns total expiries. This default loops PerTickBookkeeping, so every
  // wrapper — and the differential oracle — is correct by construction;
  // TimerServiceBase jumps from visit to visit for the wheel schemes and Lawn
  // (an O(popcount) occupancy-bitmap or bucket-head jump that never probes an
  // empty slot, counted in OpCounts::slots_skipped / batch_advances).
  virtual std::size_t AdvanceTo(Tick target) {
    std::size_t total = 0;
    while (now() < target) {
      total += PerTickBookkeeping();
    }
    return total;
  }

  // Convenience: run `n` ticks one at a time; returns total expiries. Kept as an
  // explicitly un-batched loop — it is the baseline AdvanceTo is benchmarked
  // against (bench/bench_sparse_tick.cc).
  std::size_t AdvanceBy(Duration n) {
    std::size_t total = 0;
    for (Duration i = 0; i < n; ++i) {
      total += PerTickBookkeeping();
    }
    return total;
  }
};

// The §2 routine contract, written once for every scheme. Scheme derives from
// TimerServiceBase<Scheme> (CRTP) and decides only where a record is filed and
// where a tick finds work; this class decides what each routine checks, counts
// and guarantees:
//
//   StartTimer    start_calls; zero interval, then Admit, then a deadline
//                 past the end of Tick, then arena capacity; Link;
//                 insert_link_ops.
//   StopTimer     stop_calls; stale handle; Unlink; delete_unlink_ops; release.
//   RestartTimer  zero interval, then stale handle, then Admit, then a deadline
//                 past the end of Tick; re-stamp and Relink the same record;
//                 restart_calls and restart_relink_ops (a restart is neither a
//                 start nor a stop, so the conservation law stays start_calls
//                 == expiries + cancels + outstanding).
//   TryFirePeriodic  Admit the next phase-stable delay and check its deadline
//                 the same way (a refusal is a periodic_drop, and its fire
//                 goes on to Expire); re-stamp and Relink the same record;
//                 periodic_rearm_relinks — then dispatch, not `last`.
//   Expire        expiries; release; dispatch with `last`.
//   PerTickBookkeeping  ticks; step now_ by one; Visit.
//   AdvanceTo     a scheme with NextVisit: target >= now_; batch_advances;
//                 then hop from visit to visit (below). Otherwise
//                 TimerService's per-tick loop.
//   FastForward   a scheme with NextVisit: now_ <= target < NextExpiryHint;
//                 the same hops with ticks uncounted; nothing may fire.
//                 Otherwise TimerService's default, false.
//
// A hop moves now_ to the earlier of NextVisit and the target, credits
// slots_skipped with SkippedProbes over the ticks the per-tick loop would have
// probed in vain — those before the visit, or all of them up to the target —
// adds the ticks crossed, and calls Visit when it lands on a visit. The hops
// therefore count, fire and order exactly what the per-tick loop would, and
// whether a scheme hops is decided at compile time by whether it defines
// NextVisit.
//
// The deadline check refuses with kIntervalOutOfRange any interval, after
// Admit, with now_ + interval > max Tick: a wrapped deadline would file the
// timer in the past.
//
// A record is never released by a restart or a periodic lap, so the caller's
// handle and generation survive both. The scheme's hooks are ordinary member
// functions bound by static type — no virtual call; the small ones live in the
// scheme's header so they inline into the routines. A scheme keeps them private
// and befriends its base:
//
//   void Link(TimerRecord* rec)      file a stamped record by its expiry_tick and
//                                    interval, counting its own comparisons.
//   void Unlink(TimerRecord* rec)    take a filed record out, keeping occupancy
//                                    bits and similar state in step. It must not
//                                    read expiry_tick or interval: a relink
//                                    re-stamps the record before unlinking it.
//   TimerError Admit(Duration* interval) const
//                                    optional: the scheme's range or slop rule,
//                                    which may rewrite the interval (clamp,
//                                    quantize). The default admits every interval.
//   void Relink(TimerRecord* rec)    optional: move a re-stamped record that is
//                                    still filed. The default is Unlink then
//                                    Link; the binary heap re-sifts in place.
//   std::size_t Visit()              the per-tick body, run at now_ after the
//                                    clock has moved: probe and drain whatever
//                                    the scheme keeps for this tick; returns
//                                    the expiries dispatched.
//   std::optional<Tick> NextVisit() const
//                                    optional: the earliest tick after now_ at
//                                    which Visit can do anything (the next
//                                    occupied slot, bucket head or level
//                                    visit); nullopt when there is none.
//                                    Defining it makes AdvanceTo and
//                                    FastForward hop, and makes it the default
//                                    NextExpiryHint.
//   Duration SkippedProbes(Tick from, Tick to) const
//                                    optional: the empty probes the per-tick
//                                    loop makes on (from, to]. The default is
//                                    one per tick; the hierarchy sums its
//                                    levels.
//
// Each scheme's Visit offers every due record to TryFirePeriodic before
// unlinking it and handing it to Expire.
template <typename Scheme>
class TimerServiceBase : public TimerService {
 public:
  // `max_timers` bounds the arena; 0 = unbounded.
  explicit TimerServiceBase(std::size_t max_timers = 0) : arena_(max_timers) {}

  StartResult StartTimer(Duration interval, RequestId request_id) final;
  // Not final: the leftist heap keeps the lazy cancellation of Section 4.2.
  TimerError StopTimer(TimerHandle handle) override;
  TimerError RestartTimer(TimerHandle handle, Duration new_interval) final;
  // Arena-backed periodic registration: a one-shot start plus the cadence
  // stamped on the record. The cadence follows the *effective* interval (after
  // Admit's clamp or quantization), which keeps every expiry-path re-arm delay
  // within the scheme's validated range by construction.
  StartResult StartPeriodic(Duration interval, RequestId request_id,
                            std::uint64_t repeat_for = kRepeatForever) final;

  std::size_t PerTickBookkeeping() final;
  std::size_t AdvanceTo(Tick target) final;
  // Not final: Scheme 5 and the ordered baselines jump the clock in one step.
  bool FastForward(Tick target) override;
  // Not final: a scheme whose exact hint is not NextVisit overrides it.
  std::optional<Tick> NextExpiryHint() const override;

  Tick now() const final { return now_; }
  // Live records in the arena. Lazy-deletion schemes (leftist heap) override this to
  // exclude cancelled-but-not-yet-reclaimed records.
  std::size_t outstanding() const override { return arena_.live(); }

  // Measured arena slab footprint — whole chunks, free slots included. These
  // are the numbers behind bench_static_dispatch's space-at-scale sweep: what
  // the record store actually costs at N live timers, not sizeof arithmetic.
  std::size_t hot_slab_bytes() const { return arena_.hot_slab_bytes(); }
  std::size_t cold_slab_bytes() const { return arena_.cold_slab_bytes(); }
  metrics::OpCounts counts() const final { return counts_; }
  void set_expiry_handler(ExpiryHandler handler) final { handler_ = std::move(handler); }

 protected:
  // The optional hooks' defaults (see the class comment).
  TimerError Admit(Duration* /*interval*/) const { return TimerError::kOk; }
  void Relink(TimerRecord* rec) {
    self().Unlink(rec);
    self().Link(rec);
  }
  Duration SkippedProbes(Tick from, Tick to) const { return to - from; }

  TimerRecord* Resolve(TimerHandle handle) const {
    return arena_.Get(SlabRef{handle.slot, handle.generation});
  }

  // The cold twin of a live hot record (same arena slot, parallel slab). Valid
  // exactly while `rec` is live; per-op hot paths must not call this — it pulls
  // a second cache line (see timer_record.h for what lives where and why).
  ColdTimerRecord& cold(const TimerRecord* rec) const {
    return *arena_.ColdOf(rec->self.slot);
  }

  // Return a record's storage to the arena (after unlinking it from any structure).
  void ReleaseRecord(TimerRecord* rec) {
    arena_.Free(SlabRef{rec->self.slot, rec->self.generation});
  }

  // Expiry-path fast path for periodic records, called by every scheme's drain
  // loop on a due record BEFORE unlinking it. A non-final periodic fire moves
  // the still-live record to the next phase-stable deadline with the same
  // Reschedule a restart uses — the arena is never touched, the handle and
  // generation survive — then dispatches the handler with `last` false.
  // Dispatch happens AFTER the re-arm, so a handler cancelling its own timer
  // (StopTimer on the just-fired handle) finds it live and gets kOk. Returns
  // true when the fire was fully handled here; false sends the record down the
  // normal Expire path (one-shot, final fire, or a re-arm Admit rejected — then
  // accounted as a periodic_drop and degraded to a final expiry).
  bool TryFirePeriodic(TimerRecord* rec) {
    ColdTimerRecord& c = cold(rec);
    if (c.period == 0 || c.repeats_left == 1) {
      return false;
    }
    const RequestId id = c.request_id;
    if (Reschedule(rec, NextPeriodicDelay(rec->expiry_tick, c.period)) !=
        TimerError::kOk) {
      // Degrade to a one-shot so the caller's Expire releases it exactly once.
      c.period = 0;
      ++counts_.periodic_drops;
      return false;
    }
    if (c.repeats_left > 1) {
      --c.repeats_left;
    }
    ++counts_.periodic_fires;
    ++counts_.periodic_rearm_relinks;
    ++counts_.expiry_dispatches;
    if (handler_) {
      handler_(id, now_, /*last=*/false);
    }
    return true;
  }

  // Dispatch EXPIRY_PROCESSING for `rec` with `last` true and release it. The
  // record must already be unlinked from the scheme's structures, and the drain
  // loop must have offered it to TryFirePeriodic first: what reaches here is a
  // one-shot, a periodic's final fire, or a dropped re-arm.
  void Expire(TimerRecord* rec) {
    const ColdTimerRecord& c = cold(rec);
    TWHEEL_ASSERT_MSG(c.period == 0 || c.repeats_left == 1,
                      "periodic lap expired without TryFirePeriodic");
    const RequestId id = c.request_id;
    ++counts_.expiries;
    ++counts_.expiry_dispatches;
    ReleaseRecord(rec);
    if (handler_) {
      handler_(id, now_, /*last=*/true);
    }
  }

  Tick now_ = 0;
  metrics::OpCounts counts_;

 private:
  Scheme& self() { return static_cast<Scheme&>(*this); }
  const Scheme& self() const { return static_cast<const Scheme&>(*this); }

  // Whether the scheme defines NextVisit, i.e. whether its batched entry points
  // hop from visit to visit.
  static constexpr bool Hops() {
    return requires(const Scheme& scheme) { scheme.NextVisit(); };
  }

  // Whether the scheme keeps NextVisit as its NextExpiryHint: it does not
  // declare its own (an inherited member's address has the base's type).
  static constexpr bool HintIsNextVisit() {
    return std::is_same_v<decltype(&Scheme::NextExpiryHint),
                          std::optional<Tick> (TimerServiceBase::*)() const>;
  }

  // The hops of AdvanceTo and FastForward (see the class comment), starting
  // from `next`, the scheme's NextVisit at the current now_. A member
  // template, so it is compiled only for schemes that hop.
  template <bool kCountTicks>
  std::size_t HopTo(Tick target, std::optional<Tick> next);

  // Allocate and pre-fill a hot/cold record pair; nullptr when the arena is full.
  // The arena placement-news both records fresh, so a recycled slot cannot
  // resurrect a previous timer's periodic cadence or tree links.
  TimerRecord* AllocateRecord(Duration interval, RequestId request_id) {
    auto [rec, ref] = arena_.Allocate();
    if (rec == nullptr) {
      return nullptr;
    }
    rec->self = TimerHandle{ref.slot, ref.generation};
    rec->seq = next_seq_++;
    rec->interval = interval;
    rec->expiry_tick = now_ + interval;
    ColdTimerRecord* c = arena_.ColdOf(ref.slot);
    c->hot = rec;
    c->request_id = request_id;
    c->start_tick = now_;
    return rec;
  }

  // The one move of a live record, shared by RestartTimer and TryFirePeriodic:
  // Admit the interval, re-stamp the schedule fields, Relink. On an Admit
  // rejection the record is untouched at its old deadline. The record keeps its
  // seq, so among equal expiries it stays in start order.
  TimerError Reschedule(TimerRecord* rec, Duration interval) {
    if (const TimerError error = AdmitDeadline(&interval); error != TimerError::kOk) {
      return error;
    }
    cold(rec).start_tick = now_;
    rec->interval = interval;
    rec->expiry_tick = now_ + interval;
    self().Relink(rec);
    return TimerError::kOk;
  }

  // The scheme's Admit, then the deadline check (see the class comment).
  TimerError AdmitDeadline(Duration* interval) const {
    if (const TimerError error = self().Admit(interval); error != TimerError::kOk) {
      return error;
    }
    return *interval > std::numeric_limits<Tick>::max() - now_
               ? TimerError::kIntervalOutOfRange
               : TimerError::kOk;
  }

  // Phase-stable re-arm target: the next multiple of `period` after the fire,
  // caught up past now_ if dispatch ran late (batched advances never do; the
  // catch-up guards derived drivers). The returned delay is in [1, period], so
  // a re-arm of an in-range period can never be rejected for Admit's range.
  // Lateness is judged from now_ - expiry_tick, so a target past the end of
  // Tick cannot wrap into a late-looking one; its delay is still exact modulo
  // 2^64, and AdmitDeadline refuses it.
  Duration NextPeriodicDelay(Tick expiry_tick, Duration period) const {
    Tick target = expiry_tick + period;
    if (expiry_tick <= now_ && now_ - expiry_tick >= period) {
      target += ((now_ - target) / period + 1) * period;
    }
    return target - now_;
  }

  PairedSlabArena<TimerRecord, ColdTimerRecord> arena_;
  ExpiryHandler handler_;
  std::uint64_t next_seq_ = 0;
};

// The routines are defined out of the class, and each scheme compiles them once
// in its own translation unit: its .cc explicitly instantiates
// TimerServiceBase<Scheme> and its header declares that instantiation extern.
// There the scheme's hooks and the arena inline into each routine. Every scheme
// is final, so a caller holding the scheme's own type binds each routine at
// compile time; it and a TimerService& caller alike make one call per routine
// into code built with the scheme in view.

template <typename Scheme>
StartResult TimerServiceBase<Scheme>::StartTimer(Duration interval,
                                                 RequestId request_id) {
  ++counts_.start_calls;
  if (interval == 0) {
    return TimerError::kZeroInterval;
  }
  if (const TimerError error = AdmitDeadline(&interval); error != TimerError::kOk) {
    return error;
  }
  TimerRecord* rec = AllocateRecord(interval, request_id);
  if (rec == nullptr) {
    return TimerError::kNoCapacity;
  }
  self().Link(rec);
  ++counts_.insert_link_ops;
  return rec->self;
}

template <typename Scheme>
TimerError TimerServiceBase<Scheme>::StopTimer(TimerHandle handle) {
  ++counts_.stop_calls;
  TimerRecord* rec = Resolve(handle);
  if (rec == nullptr) {
    return TimerError::kNoSuchTimer;
  }
  self().Unlink(rec);
  ++counts_.delete_unlink_ops;
  ReleaseRecord(rec);
  return TimerError::kOk;
}

template <typename Scheme>
TimerError TimerServiceBase<Scheme>::RestartTimer(TimerHandle handle,
                                                  Duration new_interval) {
  if (new_interval == 0) {
    return TimerError::kZeroInterval;
  }
  TimerRecord* rec = Resolve(handle);
  // A lazily cancelled record (leftist heap) still holds its arena slot but is
  // no longer a timer.
  if (rec == nullptr || rec->cancelled) {
    return TimerError::kNoSuchTimer;
  }
  if (const TimerError error = Reschedule(rec, new_interval);
      error != TimerError::kOk) {
    return error;
  }
  ++counts_.restart_calls;
  ++counts_.restart_relink_ops;
  return TimerError::kOk;
}

template <typename Scheme>
std::size_t TimerServiceBase<Scheme>::PerTickBookkeeping() {
  ++counts_.ticks;
  ++now_;
  return self().Visit();
}

template <typename Scheme>
std::size_t TimerServiceBase<Scheme>::AdvanceTo(Tick target) {
  if constexpr (Hops()) {
    TWHEEL_ASSERT_MSG(target >= now_, "AdvanceTo target is in the past");
    ++counts_.batch_advances;
    return HopTo</*kCountTicks=*/true>(target, self().NextVisit());
  } else {
    return TimerService::AdvanceTo(target);
  }
}

template <typename Scheme>
bool TimerServiceBase<Scheme>::FastForward(Tick target) {
  if constexpr (Hops()) {
    TWHEEL_ASSERT(target >= now_);
    const std::optional<Tick> next = self().NextExpiryHint();
    TWHEEL_ASSERT_MSG(!next.has_value() || target < *next,
                      "FastForward would skip an expiry");
    // "The hardware intercepts all clock ticks": the ticks crossed are not
    // counted. Visits on the way still run (Scheme 6 decrements rounds, Scheme
    // 7 migrates), and by the precondition none of them fires. Where the hint
    // is NextVisit, the value just read is the walk's first hop.
    const std::size_t fired = HopTo</*kCountTicks=*/false>(
        target, HintIsNextVisit() ? next : self().NextVisit());
    TWHEEL_ASSERT_MSG(fired == 0, "FastForward dispatched an expiry");
    return true;
  } else {
    return TimerService::FastForward(target);
  }
}

template <typename Scheme>
std::optional<Tick> TimerServiceBase<Scheme>::NextExpiryHint() const {
  if constexpr (Hops()) {
    return self().NextVisit();
  } else {
    return TimerService::NextExpiryHint();
  }
}

template <typename Scheme>
template <bool kCountTicks>
std::size_t TimerServiceBase<Scheme>::HopTo(Tick target, std::optional<Tick> next) {
  std::size_t expired = 0;
  while (now_ < target) {
    TWHEEL_ASSERT(!next.has_value() || *next > now_);
    const bool visit = next.has_value() && *next <= target;
    const Tick stop = visit ? *next : target;
    counts_.slots_skipped += self().SkippedProbes(now_, visit ? stop - 1 : stop);
    if constexpr (kCountTicks) {
      counts_.ticks += stop - now_;
    }
    now_ = stop;
    if (visit) {
      expired += self().Visit();
      // Re-read after every visit: a handler's start may file a visit inside
      // the remaining span.
      next = self().NextVisit();
    }
  }
  return expired;
}

template <typename Scheme>
StartResult TimerServiceBase<Scheme>::StartPeriodic(Duration interval,
                                                    RequestId request_id,
                                                    std::uint64_t repeat_for) {
  StartResult started = TimerServiceBase::StartTimer(interval, request_id);
  if (!started.has_value()) {
    return started;
  }
  TimerRecord* rec = Resolve(started.value());
  ColdTimerRecord& c = cold(rec);
  c.period = rec->interval;
  c.repeats_left = repeat_for;
  ++counts_.periodic_starts;
  return started;
}

}  // namespace twheel

#endif  // TWHEEL_SRC_CORE_TIMER_SERVICE_H_
