// Deferred-registration submission runtime for the sharded wheel.
//
// Appendix A.2 wants O(1), independent critical sections; the sharded wheel
// delivers that, but producers still contend with the tick path on the shard
// mutex. This layer removes the producer-side lock entirely: StartTimer and
// StopTimer become lock-free enqueues of start/cancel *commands* onto a bounded
// per-shard MPSC ring (base/mpsc_queue.h), and the tick driver drains the ring
// at tick/batch boundaries — before advancing — while it already holds the
// shard mutex. The visible semantics move from "registered immediately" to
// "registered at the next drain" (Netty's HashedWheelTimer popularized the
// shape); the timer still fires at exactly `enqueue-time now + interval`
// whenever its command drains before that tick is crossed, because the command
// carries the absolute deadline minted at enqueue time.
//
// Handles are minted at enqueue time from a per-shard registration table: a
// fixed slab of entries with a lock-free (tagged Treiber) free list and one
// atomic registration word per entry:
//
//   bit 63        48 47        40 39        32 31                        0
//      [    zero    |  restarts  |   state    |        generation         ]
//
// The word is the single linearization point for every race in the system,
// and registration::Transition defines the protocol. It is a pure constexpr
// function of (word, the caller's generation, event) that returns a verdict
// and, for a write, the next word; it is the only code that builds or reads a
// word, and every write to one, CAS or store, writes its result. The states
// (g is the entry's generation):
//
//                publish           drain start            final claim
//   kFree(g) ──────────► kPending ───────────► kRegistered ──────────► kFree(g+1)
//                 rollback │ │ ↺ restart          │ ↺ restart, drain restart,
//     kFree(g+1) ◄─────────┘ │                    │   lap claim
//                     cancel │             cancel │
//                            ▼                    ▼
//                 kCancelledPending     kCancelledRegistered
//                            │ reclaim            │ reclaim
//                            ▼                    ▼
//                       kFree(g+1)           kFree(g+1)
//
// A rollback also leaves kCancelledPending. A cancel zeroes the restart count;
// a drain or claim that finds the cancel returns Verdict::kReclaim, and the
// driver then runs the reclaim: the start's drain on kCancelledPending, the
// drain of a cancel or restart and either claim on kCancelledRegistered.
//
// RestartTimer adds no state — it rides a saturating in-flight counter, the
// word's restarts byte. SubmitRestart is reserve-commit-publish: it
// reserves a ring ticket (unpublished, so the drainer parks before it), then
// *commits* with one CAS that increments the counter while the state is still
// kPending or kRegistered, and only then publishes the kRestart command into
// the reserved cell (the new absolute deadline travels in the command, never
// through shared entry fields; a failed commit publishes an inert kNoop
// instead). Committing strictly before the command becomes drainable is what
// makes Apply's counter accounting sound: a drained live-state kRestart
// command always finds its own commit's increment still pending (counter>0),
// so it can never be dropped with an orphaned suppression ticket left behind.
// The commit CAS is the restart-vs-fire-vs-cancel referee:
//
//   * A final claim takes the word only when the counter is zero; a nonzero
//     counter suppresses the dispatch WITHOUT reclaiming (the queued restart
//     command re-registers the timer at its new deadline, minting a fresh inner
//     record if the old one was consumed by the suppressed expiry). So a
//     committed restart can never fire at the old deadline.
//   * If the fire's claim CAS wins first, the restarter's commit CAS observes
//     the bumped generation and returns kNoSuchTimer — exactly one of
//     {old-deadline fire, restart} happens, never both.
//   * A cancel zeroes the counter as it commits; in-flight restart commands
//     then observe the cancelled state at drain and help reclaim instead of
//     relinking (covering a dropped cancel command after a suppressed fire).
//   * A restart that finds the start command still pending commits the same
//     way (counter bump on kPending); it coalesces onto the SAME registration
//     entry — one handle, one table slot, no second allocation — and the
//     relink command drains right behind the start in FIFO order. These are
//     counted restart_coalesced.
//
//   * A cancel is *committed* by one CAS on the word (StopTimer returns kOk
//     synchronously); the cancel command in the ring only makes the inner-wheel
//     removal prompt. If the ring is full the command is simply dropped and the
//     removal happens lazily — at the start command's drain (cancel arrived
//     before its start drained: the pending-cancel reconciliation) or at the
//     inner expiry (the claim pass sees kCancelledRegistered and suppresses the
//     dispatch).
//   * Expiry dispatch claims the word (kRegistered → kFree, generation bumped)
//     *before* any client handler runs, so a cancel racing an expiry resolves
//     to exactly one of {fired, cancelled}, and a handler stopping a same-tick
//     sibling gets kNoSuchTimer — the same committed-at-tick-start contract the
//     differential oracle pins.
//   * Stale handles (fired, cancelled, fabricated) fail the generation check.
//
// Backpressure when a ring or the table fills is a policy: kReject surfaces
// kNoCapacity from StartTimer (and drops cancel commands, falling back to lazy
// reclamation); kSpin waits for the drainer, trading wait-freedom for
// lossless submission.
//
// Periodic timers ride the same word, and nothing in it marks them. An entry's
// client id, period and requested lap budget are plain fields, like its
// deadline: the producer writes them before the release store that publishes
// kPending, nothing writes them later, and they are read only under the shard
// mutex after a generation match. Every later write of that generation's word
// is a read-modify-write, so each such read lies in the publish's release
// sequence; and an entry whose generation matched cannot be recycled
// underneath the reader, because every reclaim holds the same mutex. The inner
// wheel is registered with the true cadence and budget, so its own expiry path
// re-arms the inner record in place, and every fire surfaces through ClaimFire
// with the inner wheel's `last` flag (see ExpiryHandler): whether a fire ends
// the timer is the inner wheel's decision, and this layer keeps no copy of the
// lap budget or of the end-of-Tick rule. A last fire's claim moves
// kRegistered to kFree(g+1). A lap claim must keep the entry (the handle
// survives between fires), so it CASes the word onto itself. A successful
// same-value CAS is still a read-modify-write in the word's modification
// order: a cancel or restart that commits first makes the claim fail and
// re-resolve, and one that commits after is ordered after the lap. No ABA fits
// between the claim's load and its CAS: a word returns to an earlier value
// only by a drain lowering its restart count, and drains hold the claim's
// mutex. A committed restart re-phases the NEXT lap: the in-flight restart
// counter suppresses (defers to the moved deadline) only a last fire, whose
// inner record the expiry consumed, and the restart's drain registers that
// one fire again as a one-shot: it is all that is left of the series, the
// final fire of a finite budget or a forever series' fire whose next lap
// would pass the end of Tick (and still would from the moved deadline, which
// is later). A lap has already consumed its share of the budget via the inner
// re-arm and is delivered at the old cadence, so the series never
// under-delivers its budget.
//
// An accepted producer call touches no counter. A start pays the free-list CAS
// and the ring ticket, a stop the word CAS and the ticket, a restart the ticket
// and the word CAS. The calls are counted from the commands instead: each accepted
// start, committed cancel and committed restart publishes exactly one command
// (a start flagged periodic or not, a restart flagged coalesced or not), the
// drain tallies them in plain fields under the shard mutex, and Count() adds
// the published cells the drain has not reached, under the same mutex (see
// Tally). Calls that publish nothing keep a rare-path atomic: refused starts,
// cancels whose command a full ring dropped, stop misses and CAS retries.
//
// The driver side holds the shard mutex throughout — Drain, ClaimFire,
// ReturnFreed and Count all require it — so reclaim needs no CAS: producers
// CAS only from kPending or kRegistered, so a release store moves a word out
// of a cancelled state, and the entries one shard step reclaims go back to the
// free list as one chain with one CAS (ReturnFreed).

#ifndef TWHEEL_SRC_CONCURRENT_SUBMISSION_H_
#define TWHEEL_SRC_CONCURRENT_SUBMISSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "src/base/assert.h"
#include "src/base/bits.h"
#include "src/base/mpsc_queue.h"
#include "src/base/types.h"
#include "src/core/timer_service.h"

namespace twheel::concurrent {

// The registration word's protocol (see the file comment).
namespace registration {

enum class State : std::uint8_t {
  kFree = 0,
  kPending = 1,              // start command enqueued, not yet drained
  kRegistered = 2,           // live in the inner wheel
  kCancelledPending = 3,     // cancelled before the start command drained
  kCancelledRegistered = 4,  // cancelled while live in the inner wheel
};

enum class Event : std::uint8_t {
  // Producers.
  kPublish,   // a start publishes a free entry (a store)
  kRollback,  // the start's ring refused its command (a store)
  kCancel,    // StopTimer commits
  kRestart,   // RestartTimer commits
  // The driver, under the shard mutex.
  kDrainStart,    // the start's command registers the timer
  kDrainRestart,  // a restart's command has relinked; release its count
  kDrainCancel,   // a cancel's command asks for prompt removal
  kLapClaim,      // a fire the inner wheel does not mark last
  kFinalClaim,    // a fire the inner wheel marks last
  kReclaim,       // a cancelled entry goes back to the free list (a store)
};

enum class Verdict : std::uint8_t {
  kWrite,      // write Step::next
  kCoalesce,   // kRestart onto a start still in the ring: write Step::next
  kRefuse,     // a stale generation, or a state the event cannot leave
  kSaturated,  // kRestart with 255 restarts in flight; nothing to write
  kReclaim,    // a cancel won: the driver reclaims (Event::kReclaim)
};

struct Step {
  Verdict verdict = Verdict::kRefuse;
  std::uint64_t next = 0;        // kWrite and kCoalesce: the word to write
  std::uint32_t generation = 0;  // kPublish: the generation the handle carries
};

// The protocol's one transition: what `event` does to `word` for a caller
// holding `generation`. A publish takes the free entry's own generation and
// ignores `generation`; every other event refuses a word of another one.
constexpr Step Transition(std::uint64_t word, std::uint32_t generation,
                          Event event) {
  const auto pack = [](std::uint32_t gen, State state, std::uint64_t restarts) {
    return restarts << 40 | static_cast<std::uint64_t>(state) << 32 | gen;
  };
  const State state = static_cast<State>(word >> 32 & 0xff);
  const std::uint64_t restarts = word >> 40 & 0xff;
  const bool live = state == State::kPending || state == State::kRegistered;
  if (event == Event::kPublish) {
    generation = static_cast<std::uint32_t>(word);
  } else if (static_cast<std::uint32_t>(word) != generation) {
    return Step{};
  }
  const Step freed{Verdict::kWrite, pack(generation + 1, State::kFree, 0)};
  switch (event) {
    case Event::kPublish:
      return state == State::kFree
                 ? Step{Verdict::kWrite, pack(generation, State::kPending, 0),
                        generation}
                 : Step{};
    case Event::kRollback:
      return state == State::kPending || state == State::kCancelledPending
                 ? freed
                 : Step{};
    case Event::kCancel:
      return live ? Step{Verdict::kWrite,
                         pack(generation,
                              state == State::kPending
                                  ? State::kCancelledPending
                                  : State::kCancelledRegistered,
                              0)}
                  : Step{};
    case Event::kRestart:
      if (!live || restarts == 0xff) {
        return Step{live ? Verdict::kSaturated : Verdict::kRefuse};
      }
      return Step{state == State::kPending ? Verdict::kCoalesce : Verdict::kWrite,
                  pack(generation, state, restarts + 1)};
    case Event::kDrainStart:
      // A restart coalesced onto the pending start keeps its count: its
      // relink command drains right behind this one.
      if (state != State::kPending) {
        return Step{state == State::kCancelledPending ? Verdict::kReclaim
                                                      : Verdict::kRefuse};
      }
      return Step{Verdict::kWrite, pack(generation, State::kRegistered, restarts)};
    case Event::kReclaim:
      return state == State::kCancelledPending ||
                     state == State::kCancelledRegistered
                 ? freed
                 : Step{};
    case Event::kDrainRestart:
      if (state == State::kRegistered && restarts != 0) {
        return Step{Verdict::kWrite,
                    pack(generation, State::kRegistered, restarts - 1)};
      }
      break;
    case Event::kFinalClaim:
      // A nonzero count defers the fire: a committed restart moves it.
      if (state == State::kRegistered && restarts == 0) {
        return freed;
      }
      break;
    case Event::kLapClaim:
      if (state == State::kRegistered) {
        return Step{Verdict::kWrite, word};
      }
      break;
    case Event::kDrainCancel:
      break;
  }
  // The drain of a cancel or restart, or a claim: a cancel that won while the
  // timer was registered hands the entry over to the reclaim.
  return Step{state == State::kCancelledRegistered ? Verdict::kReclaim
                                                   : Verdict::kRefuse};
}

}  // namespace registration

// What a producer does when a submission ring (or the registration table) is
// full: reject the operation upward, or spin until the tick driver drains.
enum class SubmitPolicy : std::uint8_t { kReject, kSpin };

struct SubmitOptions {
  // Per-shard command ring capacity; power of two >= 2. Bounds how many
  // start/cancel commands may await one drain.
  std::size_t ring_capacity = 1024;
  // Per-shard registration table capacity (concurrent live + pending timers per
  // shard); must be <= 2^24 so the entry index fits the handle's slot bits.
  std::size_t registration_capacity = 4096;
  SubmitPolicy on_full = SubmitPolicy::kReject;
};

// One shard's submission state: command ring + registration table. All methods
// prefixed Submit*/Earliest, CountRefusedStart and the atomic counters are
// producer-safe (lock-free); the driver side (Drain, ClaimFire, ReturnFreed,
// Count, drained_commands) must run under the shard mutex.
class ShardSubmitQueue {
 public:
  explicit ShardSubmitQueue(const SubmitOptions& options)
      : policy_(options.on_full),
        capacity_(options.registration_capacity),
        entries_(new Entry[options.registration_capacity]),
        next_(new std::atomic<std::uint32_t>[options.registration_capacity]),
        ring_(options.ring_capacity) {
    TWHEEL_ASSERT_MSG(capacity_ >= 2 && capacity_ <= (1u << 24),
                      "registration capacity must be in [2, 2^24]");
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      next_[i].store(i + 1 == capacity_ ? kNilIndex : i + 1,
                     std::memory_order_relaxed);
    }
    free_head_.store(FreeHead(0, 0), std::memory_order_relaxed);
  }

  // ---- Producer side -------------------------------------------------------

  // Mint a handle and enqueue the start command. `deadline` is the absolute
  // expiry tick captured by the caller (now + interval). The returned handle's
  // slot is the *local* entry index; the wheel ORs in its shard bits. A
  // nonzero `period` starts a periodic: the first fire is at `deadline`,
  // subsequent fires every `period` ticks, `repeats` times in total (0 =
  // forever). The cadence and requested budget travel in entry fields written
  // before the publish.
  StartResult SubmitStart(RequestId client_id, Tick deadline, Duration period = 0,
                          std::uint64_t repeats = 0) {
    std::uint64_t retries = 0;
    std::uint32_t index;
    while (!AllocEntry(&index, &retries)) {
      if (policy_ == SubmitPolicy::kReject) {
        FlushRetries(retries);
        CountRefusedStart();
        return TimerError::kNoCapacity;
      }
      std::this_thread::yield();  // kSpin: wait for the drainer to reclaim
      ++retries;
    }
    Entry& entry = entries_[index];
    const Step publish = registration::Transition(
        entry.word.load(std::memory_order_relaxed), 0, Event::kPublish);
    const std::uint32_t generation = publish.generation;
    entry.client_id = client_id;
    entry.deadline = deadline;
    entry.inner = kInvalidHandle;
    entry.period = period;
    entry.repeats = repeats;
    entry.word.store(publish.next, std::memory_order_release);
    // Record the deadline for NextExpiryHint *before* publishing the command,
    // so a hint computed after a completed submission is never later than this
    // timer's expiry (see EarliestPending for the reset protocol).
    UpdateEarliest(deadline);
    if (!Push(Command{Command::Kind::kStart, period != 0, index, generation},
              &retries)) {
      // Ring full under kReject. Nobody else holds the handle yet, so the
      // rollback is private: retire the generation and free the entry.
      entry.word.store(
          registration::Transition(publish.next, generation, Event::kRollback).next,
          std::memory_order_release);
      PushFree(index, index);
      FlushRetries(retries);
      CountRefusedStart();
      return TimerError::kNoCapacity;
    }
    FlushRetries(retries);
    return TimerHandle{index, generation};
  }

  // A start refused before its command was published: by the wheel (a zero
  // interval, or a deadline past the end of Tick) or by a full table or ring.
  // It is a start_calls entry that no command carries.
  void CountRefusedStart() {
    refused_starts_.fetch_add(1, std::memory_order_relaxed);
  }

  // Commit a cancel (one CAS on the word) and enqueue the removal command.
  // Returns kOk iff this call won the timer — i.e. the timer can no longer
  // fire. The command enqueue is best-effort under kReject (lazy reclamation
  // covers a dropped command).
  TimerError SubmitCancel(std::uint32_t index, std::uint32_t generation) {
    if (index >= capacity_) {
      return StopMiss();
    }
    Entry& entry = entries_[index];
    std::uint64_t word = entry.word.load(std::memory_order_acquire);
    std::uint64_t retries = 0;
    // Zeroing the restart counter is deliberate: committed-but-undrained
    // restart commands observe the cancelled state at drain and help reclaim.
    if (Cas(entry, &word, generation, Event::kCancel, &retries).verdict !=
        Verdict::kWrite) {
      FlushRetries(retries);
      return StopMiss();  // fired, reclaimed, fabricated or already cancelled
    }
    // The published command is what counts this cancel; one the full ring
    // drops is counted here instead, after the commit (see dropped_cancels()).
    if (!Push(Command{Command::Kind::kCancel, false, index, generation},
              &retries)) {
      dropped_cancels_.fetch_add(1, std::memory_order_release);
    }
    FlushRetries(retries);
    return TimerError::kOk;
  }

  // Commit an in-place restart to `new_deadline`. Reserve-commit-publish: a
  // ring ticket is reserved FIRST (if the ring is full under kReject the call
  // returns kNoCapacity with no state changed and the timer unmoved at its old
  // deadline), then one CAS increments the word's restart counter while the
  // entry is still kPending/kRegistered, and only then is the kRestart command
  // published into the reserved cell. The drainer parks at the unpublished
  // cell, so it can never observe the command before the commit's outcome is
  // decided — a drained live-state kRestart command is therefore always
  // committed (counter > 0 at its drain), and a committed restart always has
  // its relink command in the ring. kOk is authoritative: the timer will not
  // fire at its old deadline (a nonzero counter suppresses the claim in
  // ClaimFire) and the handle stays valid. If a fire or cancel wins the word
  // first, the reserved cell is published as an inert kNoop and the caller
  // gets kNoSuchTimer — exactly-once either way.
  TimerError SubmitRestart(std::uint32_t index, std::uint32_t generation,
                           Tick new_deadline) {
    if (index >= capacity_) {
      return TimerError::kNoSuchTimer;
    }
    Entry& entry = entries_[index];
    std::uint64_t retries = 0;
    for (;;) {
      std::uint64_t word = entry.word.load(std::memory_order_acquire);
      const Verdict check =
          registration::Transition(word, generation, Event::kRestart).verdict;
      if (check == Verdict::kRefuse) {
        FlushRetries(retries);
        return TimerError::kNoSuchTimer;  // fired, reclaimed, fabricated or cancelled
      }
      if (check != Verdict::kSaturated) {
        // Record the (possibly earlier) deadline for NextExpiryHint before the
        // command can become drainable — same protocol as SubmitStart. A
        // failed commit leaves the hint stale-early, which the contract allows.
        UpdateEarliest(new_deadline);
        std::uint64_t ticket;
        if (!Reserve(&ticket, &retries)) {
          FlushRetries(retries);
          return TimerError::kNoCapacity;  // nothing changed; old deadline stands
        }
        const Step commit = Cas(entry, &word, generation, Event::kRestart, &retries);
        // Publish the reserved cell whatever the commit's outcome — the
        // drainer (and every later ticket) is parked behind it. A failed
        // commit must not publish the kRestart command: a matching-generation
        // live-state drain would steal a committed restart's decrement. kNoop
        // is inert. A commit that found the counter saturated (255 OTHER
        // commits landed since the check above) abandons its ticket too:
        // waiting for a decrement while holding it would deadlock, since the
        // commands that decrement may sit behind the unpublished cell.
        const bool committed = commit.verdict == Verdict::kWrite ||
                               commit.verdict == Verdict::kCoalesce;
        ring_.Publish(ticket, committed
                                  ? Command{Command::Kind::kRestart,
                                            commit.verdict == Verdict::kCoalesce,
                                            index, generation, new_deadline}
                                  : Command{Command::Kind::kNoop});
        if (commit.verdict != Verdict::kSaturated) {
          FlushRetries(retries);
          return committed ? TimerError::kOk : TimerError::kNoSuchTimer;
        }
      }
      // 255 undrained restarts: the drainer has stalled.
      if (policy_ == SubmitPolicy::kReject) {
        FlushRetries(retries);
        return TimerError::kNoCapacity;  // nothing changed
      }
      // kSpin: wait for the drainer to retire in-flight restarts. Safe to
      // wait here — no ring ticket is held, so the drainer is not parked
      // behind this producer.
      std::this_thread::yield();
      ++retries;
    }
  }

  // Conservative earliest deadline among commands that may still be awaiting a
  // drain; nullopt when none are known. Never later than the true earliest for
  // any submission whose Push completed before this call (it may be stale-early
  // for commands that have since drained — the inner wheel's own hint covers
  // those exactly).
  std::optional<Tick> EarliestPending() const {
    const Tick t = earliest_pending_.load(std::memory_order_acquire);
    if (t == kNoPending) {
      return std::nullopt;
    }
    return t;
  }

  // ---- Driver side ---------------------------------------------------------

  // Drain up to one ring's worth of commands into `wheel`, registering starts
  // (at `deadline - wheel.now()`, clamped to 1 for deadlines the clock already
  // passed) and removing cancelled timers. MUST run under the shard mutex —
  // that is what serializes ring consumption and entry registration. Returns
  // the number of commands consumed.
  std::size_t Drain(TimerService& wheel) {
    const Tick observed = earliest_pending_.load(std::memory_order_acquire);
    bool emptied = false;
    const std::size_t drained = ring_.Drain(
        ring_.capacity(),
        [&](const Command& cmd) {
          TallyCommand(cmd, &drained_);
          Apply(cmd, wheel);
        },
        &emptied);
    drained_commands_ += drained;
    if (emptied && observed != kNoPending) {
      // Everything published up to the cut is now in the wheel, so the hint
      // this drain observed is covered by the inner wheel. Reset it — unless a
      // producer recorded a new deadline meanwhile, in which case the CAS fails
      // and the (conservative) newer minimum survives.
      Tick expected = observed;
      earliest_pending_.compare_exchange_strong(expected, kNoPending,
                                                std::memory_order_acq_rel);
    }
    return drained;
  }

  // Driver-side, MUST run under the shard mutex, once per shard step: hand
  // every entry the step reclaimed (drained cancels, claimed final fires) back
  // to the free list as one chain, with one CAS. Until then those entries are
  // unreachable, so a step that reclaims must end with this call.
  void ReturnFreed() {
    if (freed_head_ != kNilIndex) {
      PushFree(freed_head_, freed_tail_);
      freed_head_ = kNilIndex;
    }
  }

  // Resolve the inner-wheel expiry of entry (index, generation) from `wheel`,
  // `last` as the inner wheel dispatched it. Returns whether to deliver the
  // fire, and fills `client_id` when it does. A last fire claims the word
  // (generation bump, entry reclaimed); a lap claims it by a CAS onto itself,
  // so the handle survives — either way the claim is a CAS, so a racing cancel
  // or restart resolves exactly once. A cancelled entry is reclaimed here,
  // after its re-armed inner record, if a lap left one, is stopped in `wheel`.
  // Thread-safe against producers, but MUST run under the shard mutex: it
  // reads the entry's plain fields and reclaims (a plain store, see Reclaim),
  // both of which the mutex serializes against the drain. The wheel calls it
  // for every collected expiry *before* dispatching any client handler, which
  // is what commits a tick's expiry set at the start of the tick.
  bool ClaimFire(std::uint32_t index, std::uint32_t generation, bool last,
                 TimerService& wheel, RequestId* client_id) {
    Entry& entry = entries_[index];
    std::uint64_t word = entry.word.load(std::memory_order_acquire);
    const Step claim = Cas(entry, &word, generation,
                           last ? Event::kFinalClaim : Event::kLapClaim);
    if (claim.verdict == Verdict::kReclaim) {
      // A cancel won. A last fire consumed the inner record; a lap re-armed
      // it, and it must be stopped, or it would fire as a ghost forever.
      Reclaim(index, word, generation, last ? nullptr : &wheel);
      return false;
    }
    if (claim.verdict != Verdict::kWrite) {
      // A stale generation: a drained cancel already reclaimed the entry. Or
      // a committed restart is awaiting its drain: suppress this
      // (old-deadline) last dispatch but do NOT reclaim — the expiry consumed
      // the inner record, so the restart command re-registers it at the moved
      // deadline and the deferred fire still arrives: the budget is
      // conserved, just re-phased. A lap is never refused for a restart: the
      // inner re-arm already consumed its share of the budget, so it is
      // delivered at the old cadence and the restart re-phases the next one.
      return false;
    }
    *client_id = entry.client_id;
    if (last) {
      Retire(index);
    }
    return true;
  }

  // ---- Accounting ----------------------------------------------------------

  // Counts of the client calls this shard's commands carry. Every accepted start,
  // committed cancel and committed restart publishes exactly one command, so
  // the drained commands' tally plus the published cells still in the ring
  // count those calls exactly, with no counter on the producer path.
  struct Tally {
    std::uint64_t starts = 0;              // accepted starts
    std::uint64_t periodic_starts = 0;     // of which StartPeriodic
    std::uint64_t cancels = 0;             // committed cancels with a command
    std::uint64_t restarts = 0;            // committed restarts
    std::uint64_t coalesced_restarts = 0;  // of which onto a pending start

    Tally& operator+=(const Tally& other) {
      starts += other.starts;
      periodic_starts += other.periodic_starts;
      cancels += other.cancels;
      restarts += other.restarts;
      coalesced_restarts += other.coalesced_restarts;
      return *this;
    }
  };

  // MUST run under the shard mutex, which holds the drain still: the drained
  // tally plus every published, undrained cell. A command whose publish
  // happens-before the call is counted, whatever unpublished ticket is ahead
  // of it (MpscRing::ForEachPending), and each count only grows from one call
  // to the next, since a cell moves from the scan to the tally under the lock.
  Tally Count() const {
    Tally tally = drained_;
    ring_.ForEachPending(
        [&tally](const Command& cmd) { TallyCommand(cmd, &tally); });
    return tally;
  }
  // Commands consumed by drains; under the shard mutex, like Count().
  std::uint64_t drained_commands() const { return drained_commands_; }

  // The rare paths keep atomics. Starts refused before publishing a command.
  std::uint64_t refused_starts() const {
    return refused_starts_.load(std::memory_order_relaxed);
  }
  // Committed cancels whose command a full ring dropped (kReject). Each is
  // counted after its commit, which follows its start's publish, so a reader
  // that loads this (acquire) before Count() has the start of every timer it
  // counts as ended here.
  std::uint64_t dropped_cancels() const {
    return dropped_cancels_.load(std::memory_order_acquire);
  }
  // Cancels that found no live timer (fired, cancelled, stale or fabricated).
  std::uint64_t stop_misses() const {
    return stop_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t submit_retries() const {
    return submit_retries_.load(std::memory_order_relaxed);
  }

  std::size_t FixedBytes() const {
    return MpscRing<Command>::BytesFor(ring_.capacity()) +
           capacity_ * (sizeof(Entry) + sizeof(std::atomic<std::uint32_t>));
  }

  // The inner wheel's RequestId for a registration carries the entry identity;
  // the wheel's collected expiries come back through ClaimFire with it. The
  // shard index rides in bits the wheel adds (see ShardedWheel).
  static constexpr RequestId InnerId(std::uint32_t index,
                                     std::uint32_t generation) {
    return (static_cast<RequestId>(generation) << 32) | index;
  }
  static constexpr std::uint32_t InnerIdIndex(RequestId id) {
    return static_cast<std::uint32_t>(id) & 0x00ffffffu;
  }
  static constexpr std::uint32_t InnerIdGeneration(RequestId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

 private:
  using Event = registration::Event;
  using Verdict = registration::Verdict;
  using Step = registration::Step;

  struct Command {
    // kNoop fills a reserved-then-abandoned cell (a restart whose commit CAS
    // lost to a fire/cancel, or hit counter saturation); Apply ignores it.
    enum class Kind : std::uint8_t { kStart, kCancel, kRestart, kNoop };
    Kind kind;
    // kStart: a periodic start. kRestart: a restart that coalesced onto a
    // start still in the ring. Read only by the counts (see Tally).
    bool flag = false;
    std::uint32_t index = 0;
    std::uint32_t generation = 0;
    // kRestart only: the new absolute deadline. Carried in the command (not an
    // entry field) so a racing producer can never scribble a stale deadline
    // over a recycled entry — the command's generation check gates its use.
    Tick deadline = 0;
  };

  struct Entry {
    // {restarts:8 | state:8 | generation:32}, written only with
    // registration::Transition's Step::next — the linearization point (see
    // the file comment).
    std::atomic<std::uint64_t> word{0};
    // Written by the producer before the release store that publishes
    // kPending, and read afterwards only under the shard mutex after a
    // generation match (see the file comment). `repeats` is the budget the
    // client asked for (0 = forever); only a drain that registers the inner
    // record reads it.
    RequestId client_id = 0;
    Tick deadline = 0;
    Duration period = 0;
    std::uint64_t repeats = 0;
    TimerHandle inner = kInvalidHandle;  // driver-only, valid in *Registered
  };

  static constexpr std::uint32_t kNilIndex =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr Tick kNoPending = std::numeric_limits<Tick>::max();

  static constexpr std::uint64_t FreeHead(std::uint32_t tag, std::uint32_t index) {
    return (static_cast<std::uint64_t>(tag) << 32) | index;
  }

  void FlushRetries(std::uint64_t retries) {
    if (retries != 0) {
      submit_retries_.fetch_add(retries, std::memory_order_relaxed);
    }
  }

  TimerError StopMiss() {
    stop_misses_.fetch_add(1, std::memory_order_relaxed);
    return TimerError::kNoSuchTimer;
  }

  static void TallyCommand(const Command& cmd, Tally* tally) {
    switch (cmd.kind) {
      case Command::Kind::kStart:
        ++tally->starts;
        tally->periodic_starts += cmd.flag ? 1 : 0;
        break;
      case Command::Kind::kCancel:
        ++tally->cancels;
        break;
      case Command::Kind::kRestart:
        ++tally->restarts;
        tally->coalesced_restarts += cmd.flag ? 1 : 0;
        break;
      case Command::Kind::kNoop:
        break;
    }
  }

  // Tagged Treiber free list. The tag bumps on every successful pop so a
  // pop-use-repush cycle by another thread cannot ABA a stale head.
  bool AllocEntry(std::uint32_t* index, std::uint64_t* retries) {
    std::uint64_t head = free_head_.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t idx = static_cast<std::uint32_t>(head);
      if (idx == kNilIndex) {
        return false;  // table exhausted
      }
      const std::uint32_t next = next_[idx].load(std::memory_order_relaxed);
      const std::uint64_t desired =
          FreeHead(static_cast<std::uint32_t>(head >> 32) + 1, next);
      if (free_head_.compare_exchange_weak(head, desired,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        *index = idx;
        return true;
      }
      ++*retries;
    }
  }

  // Push the chain first -> ... -> last (linked through next_) onto the free
  // list with one CAS.
  void PushFree(std::uint32_t first, std::uint32_t last) {
    std::uint64_t head = free_head_.load(std::memory_order_relaxed);
    for (;;) {
      next_[last].store(static_cast<std::uint32_t>(head),
                        std::memory_order_relaxed);
      const std::uint64_t desired =
          FreeHead(static_cast<std::uint32_t>(head >> 32) + 1, first);
      if (free_head_.compare_exchange_weak(head, desired,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        return;
      }
    }
  }

  // Under the shard mutex: queue a reclaimed entry for ReturnFreed.
  void Retire(std::uint32_t index) {
    if (freed_head_ == kNilIndex) {
      freed_tail_ = index;
    }
    next_[index].store(freed_head_, std::memory_order_relaxed);
    freed_head_ = index;
  }

  // The one CAS loop on a word: moves `entry`'s word by `event` from `*word`,
  // the value the caller last saw, and re-resolves against the value each
  // lost CAS reloads (counted in `retries`, when given). Returns the last
  // step; a write verdict (kWrite, kCoalesce) means its CAS landed.
  static Step Cas(Entry& entry, std::uint64_t* word, std::uint32_t generation,
                  Event event, std::uint64_t* retries = nullptr) {
    for (;;) {
      const Step step = registration::Transition(*word, generation, event);
      if ((step.verdict != Verdict::kWrite && step.verdict != Verdict::kCoalesce) ||
          entry.word.compare_exchange_weak(*word, step.next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return step;
      }
      if (retries != nullptr) {
        ++*retries;
      }
    }
  }

  // Under the shard mutex, once a drain or claim got Verdict::kReclaim for
  // `word`: stop the entry's inner record in `wheel`, when a wheel still holds
  // one (nullptr when the record never registered or its expiry consumed it),
  // and free the entry. The mutex makes a second reclaim of the same entry see
  // the bumped generation. Producers CAS only from kPending or kRegistered, so
  // no CAS can move `word` out of its cancelled state, and a release store
  // suffices.
  void Reclaim(std::uint32_t index, std::uint64_t word, std::uint32_t generation,
               TimerService* wheel) {
    Entry& entry = entries_[index];
    if (wheel != nullptr) {
      (void)wheel->StopTimer(entry.inner);
    }
    entry.word.store(
        registration::Transition(word, generation, Event::kReclaim).next,
        std::memory_order_release);
    Retire(index);
  }

  // Enqueue `cmd`; false when the ring is full under kReject.
  bool Push(const Command& cmd, std::uint64_t* retries) {
    std::uint64_t ticket;
    if (!Reserve(&ticket, retries)) {
      return false;
    }
    ring_.Publish(ticket, cmd);
    return true;
  }

  // Policy-aware ticket reservation (first half of a two-phase push — the
  // caller MUST Publish the ticket, a kNoop if the operation is abandoned).
  bool Reserve(std::uint64_t* ticket, std::uint64_t* retries) {
    for (;;) {
      if (ring_.TryReserve(ticket, retries)) {
        return true;
      }
      if (policy_ == SubmitPolicy::kReject) {
        return false;
      }
      std::this_thread::yield();  // kSpin: bounded by the drainer's progress
      ++*retries;
    }
  }

  void UpdateEarliest(Tick deadline) {
    Tick current = earliest_pending_.load(std::memory_order_relaxed);
    while (deadline < current &&
           !earliest_pending_.compare_exchange_weak(
               current, deadline, std::memory_order_release,
               std::memory_order_relaxed)) {
    }
  }

  // Register (or re-register) an entry's inner-wheel record due in `remaining`
  // ticks — as a periodic of the requested budget at cadence `period`, or a
  // one-shot when `period` is 0. Runs under the shard mutex.
  void RegisterInner(Entry& entry, std::uint32_t index, std::uint32_t generation,
                     Duration remaining, Duration period, TimerService& wheel) {
    const RequestId inner_id = InnerId(index, generation);
    if (period > remaining && period > std::numeric_limits<Tick>::max() - wheel.now()) {
      // A start drained after the tick its deadline was minted at (only then
      // is remaining short of the period), so close to the end of Tick that a
      // lap from now would pass it: the inner wheel refuses that cadence, and
      // the first fire, no earlier than now + 1, is the series' only one.
      // Register it as a one-shot.
      period = 0;
    }
    // The inner record carries the true cadence and budget, so the inner
    // wheel's own expiry path re-arms it in place between fires. When the
    // first fire is off-cadence (remaining != period), the in-place relink
    // moves just that first deadline; the record's period is untouched.
    StartResult result = period != 0
                             ? wheel.StartPeriodic(period, inner_id, entry.repeats)
                             : wheel.StartTimer(remaining, inner_id);
    TWHEEL_ASSERT_MSG(result.has_value(),
                      "inner wheel rejected a drained registration");
    if (period != 0 && remaining != period) {
      (void)wheel.RestartTimer(result.value(), remaining);
    }
    entry.inner = result.value();
  }

  // Applies one drained command. Runs under the shard mutex.
  void Apply(const Command& cmd, TimerService& wheel) {
    if (cmd.kind == Command::Kind::kNoop) {
      return;  // an abandoned reservation; carries no entry identity
    }
    Entry& entry = entries_[cmd.index];
    std::uint64_t word = entry.word.load(std::memory_order_acquire);
    // A previous incarnation's command refuses every event: the entry moved on.
    if (cmd.kind == Command::Kind::kStart) {
      // A CAS lost to a coalescing restarter (count bump) retries with the new
      // count; one lost to a canceller turns into the reclaim below.
      const Step step = Cas(entry, &word, cmd.generation, Event::kDrainStart);
      if (step.verdict == Verdict::kWrite) {
        const Tick now = wheel.now();
        const Duration remaining = entry.deadline > now ? entry.deadline - now : 1;
        RegisterInner(entry, cmd.index, cmd.generation, remaining, entry.period,
                      wheel);
      } else if (step.verdict == Verdict::kReclaim) {
        // The pending-cancel reconciliation: cancel committed before this start
        // drained, so the timer is never registered at all.
        Reclaim(cmd.index, word, cmd.generation, nullptr);
      }
      // kRegistered/kCancelledRegistered with a matching generation would mean
      // a double drain of the same start; the FIFO ring makes that impossible.
    } else if (cmd.kind == Command::Kind::kRestart) {
      // A kRestart command is published only AFTER its commit CAS succeeded
      // (reserve-commit-publish; an uncommitted reservation is published as
      // kNoop), and the publish happens-before this drain observes the cell.
      // So a drained restart command with a matching generation and a live
      // state carries a commit whose counter increment has not yet been
      // consumed — a nonzero counter is guaranteed here, and the relink
      // happens exactly once per commit, in ring FIFO order — the
      // last-drained deadline wins.
      const Step step =
          registration::Transition(word, cmd.generation, Event::kDrainRestart);
      if (step.verdict == Verdict::kReclaim) {
        // A cancel won after this restart committed; help reclaim (covers a
        // dropped cancel command when the suppressed expiry already passed).
        Reclaim(cmd.index, word, cmd.generation, &wheel);
      }
      if (step.verdict != Verdict::kWrite) {
        // kPending is unreachable (this entry's start precedes every restart
        // in the FIFO ring); kCancelledPending means the start never
        // registered.
        return;
      }
      const Tick now = wheel.now();
      const Duration remaining = cmd.deadline > now ? cmd.deadline - now : 1;
      // A periodic's inner record survives its laps — the relink just moves
      // its next deadline and the cadence rides along untouched.
      if (wheel.RestartTimer(entry.inner, remaining) != TimerError::kOk) {
        // The old inner record was consumed by a suppressed (counter > 0) last
        // fire, the only one the series has left (see the file comment):
        // re-register it as a one-shot under the same entry identity.
        RegisterInner(entry, cmd.index, cmd.generation, remaining, /*period=*/0,
                      wheel);
      }
      // Release this commit's suppression ticket. Stop if a cancel slips in
      // concurrently — it zeroes the counter itself.
      Cas(entry, &word, cmd.generation, Event::kDrainRestart);
    } else if (registration::Transition(word, cmd.generation, Event::kDrainCancel)
                   .verdict == Verdict::kReclaim) {
      // Prompt removal. The StopTimer misses when a final fire that a pending
      // restart deferred already consumed the inner record; the reclaim stands.
      // kCancelledPending: unreachable while the ring is FIFO (the start
      // command precedes its cancel); if it ever surfaces, the start command's
      // drain reclaims. Other states: the entry was already resolved.
      Reclaim(cmd.index, word, cmd.generation, &wheel);
    }
  }

  const SubmitPolicy policy_;
  const std::uint32_t capacity_;
  std::unique_ptr<Entry[]> entries_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> next_;
  alignas(64) std::atomic<std::uint64_t> free_head_{0};
  alignas(64) std::atomic<Tick> earliest_pending_{kNoPending};
  MpscRing<Command> ring_;

  // Driver-side, under the shard mutex: the drained commands' tally and the
  // chain of entries reclaimed since the last ReturnFreed.
  Tally drained_;
  std::uint64_t drained_commands_ = 0;
  std::uint32_t freed_head_ = kNilIndex;
  std::uint32_t freed_tail_ = kNilIndex;

  std::atomic<std::uint64_t> refused_starts_{0};
  std::atomic<std::uint64_t> dropped_cancels_{0};
  std::atomic<std::uint64_t> stop_misses_{0};
  std::atomic<std::uint64_t> submit_retries_{0};
};

}  // namespace twheel::concurrent

#endif  // TWHEEL_SRC_CONCURRENT_SUBMISSION_H_
