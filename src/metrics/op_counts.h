// Elementary-operation accounting, the paper's currency of evaluation.
//
// The 1987 evaluation (Section 7) reports costs in "cheap VAX instructions": 13 to
// insert a timer, 7 to delete, 4 to skip an empty array location per tick, 6 to
// decrement a timer and move on, 9 to expire one. Wall-clock nanoseconds on a 2020s
// machine cannot be compared with that, but operation counts can: every scheme in
// this library bumps the same OpCounts fields at the same algorithmic events, and
// metrics::VaxCostModel weights them with the paper's constants to regenerate its
// numbers (e.g. "average cost per tick is 4 + 15 * n/TableSize").

#ifndef TWHEEL_SRC_METRICS_OP_COUNTS_H_
#define TWHEEL_SRC_METRICS_OP_COUNTS_H_

#include <cstdint>

namespace twheel::metrics {

// Every counter, declared once, in declaration order: TWHEEL_OP_COUNT_FIELDS(X)
// expands X(name) for each field, and the members, operator+= and operator- below
// are all generated from it, so a new counter is one X(...) line. The order is part
// of the type: designated initializers and byte-wise snapshot comparisons rely on it.
#define TWHEEL_OP_COUNT_FIELDS(X)                                                       \
  /* Routine invocations (the paper's four-routine model, Section 2). */                \
  X(start_calls)                                                                        \
  X(stop_calls)                                                                         \
  X(ticks)                                                                              \
  X(expiries)                                                                           \
                                                                                        \
  /* Elementary operations. */                                                          \
  /* A per-tick inspection of a wheel slot / list head that found nothing to do         \
     ("4 instructions to skip an empty array location"). */                             \
  X(empty_slot_checks)                                                                  \
  /* One record visited and decremented (or its round count examined) during            \
     PER_TICK_BOOKKEEPING ("6 instructions to decrement a timer and move on"). */       \
  X(decrement_visits)                                                                   \
  /* One record linked into a list / heap / tree ("13 cheap VAX instructions to         \
     insert a timer"). */                                                               \
  X(insert_link_ops)                                                                    \
  /* One record unlinked ("7 to delete a timer"). */                                    \
  X(delete_unlink_ops)                                                                  \
  /* One expired record removed and its EXPIRY_PROCESSING dispatched ("a further 9      \
     instructions"). */                                                                 \
  X(expiry_dispatches)                                                                  \
  /* Key comparisons made while searching for an insertion point (sorted lists,         \
     trees, heaps). This is the quantity Section 3.2's 2 + 2n/3 formulas predict. */    \
  X(comparisons)                                                                        \
  /* Scheme 7 only: one timer moved from a coarser wheel to a finer one. */             \
  X(migrations)                                                                         \
  /* Batched advancement (AdvanceTo): empty slot probes the occupancy bitmap let a      \
     wheel skip outright. Each skipped slot would have cost an empty_slot_check ("4     \
     instructions to skip an empty array location") under the per-tick loop, so         \
     slots_skipped * 4 is the VAX-instruction saving in the paper's currency. */        \
  X(slots_skipped)                                                                      \
  /* Number of batched AdvanceTo invocations that took a bitmap fast path (the          \
     default loop implementation does not count here). */                               \
  X(batch_advances)                                                                     \
  /* Deferred-registration submission runtime (concurrent::ShardedWheel's lock-free     \
     submission). Start commands accepted into a per-shard submission ring; the         \
     client saw kOk but the wheel sees the timer only at the next drain. */             \
  X(enqueued_starts)                                                                    \
  /* Commands (starts and cancels) the tick driver has consumed from the rings. */      \
  X(drained_commands)                                                                   \
  /* CAS attempts lost to a concurrent producer while enqueueing a command or           \
     allocating a registration entry — the price of lock-freedom, in the same           \
     spirit as the paper's elementary-operation accounting. Zero under no               \
     contention (the enqueue is then wait-free: one CAS, one store). */                 \
  X(submit_retries)                                                                     \
  /* RestartTimer invocations that found a live timer and rescheduled it. A restart     \
     is neither a start nor a stop: the conservation law is start_calls == expiries     \
     + cancels + outstanding regardless of restarts. */                                 \
  X(restart_calls)                                                                      \
  /* Elementary relink work done by in-place restarts: one unlink from the old          \
     position plus one link at the new one counts 1 here (the wheels' O(1) move);       \
     sift/rebalance steps in the comparison-based schemes add their comparisons to      \
     `comparisons` as usual. */                                                         \
  X(restart_relink_ops)                                                                 \
  /* Deferred-mode restarts that never became a command because the timer's start       \
     was still pending in the submission ring: the new deadline was coalesced into      \
     the registration entry in place. */                                                \
  X(restart_coalesced)                                                                  \
  /* StartPeriodic invocations accepted (also counted in start_calls: a periodic        \
     registration is one client START_TIMER that re-arms itself). */                    \
  X(periodic_starts)                                                                    \
  /* Non-final periodic expiries: the handler ran and the record re-armed in place.     \
     Final fires of a finite periodic count in `expiries` instead, so the               \
     conservation law start_calls == expiries + cancels + outstanding holds. */         \
  X(periodic_fires)                                                                     \
  /* Expiry-path re-arms performed as O(1) relinks of the live record (no arena         \
     release, handle and generation preserved). */                                      \
  X(periodic_rearm_relinks)                                                             \
  /* Periodic re-arms the service had to abandon (the scheme's range check rejected     \
     the next delay): the timer degrades to a final expiry instead of aborting. */      \
  X(periodic_drops)                                                                     \
  /* Multi-drainer dispatch (concurrent::DispatchPool over ShardedWheel): per-shard     \
     expiry batches published for dispatch after a shard advance. */                    \
  X(dispatch_batches)                                                                   \
  /* Batches dispatched by a drainer that does not own the batch's shard — the          \
     work-stealing path (an idle core borrowing a burst-hit shard's delivery). */       \
  X(dispatch_steals)

struct OpCounts {
#define TWHEEL_OP_COUNT_DECLARE(name) std::uint64_t name = 0;
  TWHEEL_OP_COUNT_FIELDS(TWHEEL_OP_COUNT_DECLARE)
#undef TWHEEL_OP_COUNT_DECLARE

  OpCounts& operator+=(const OpCounts& o) {
#define TWHEEL_OP_COUNT_ADD(name) name += o.name;
    TWHEEL_OP_COUNT_FIELDS(TWHEEL_OP_COUNT_ADD)
#undef TWHEEL_OP_COUNT_ADD
    return *this;
  }

  friend OpCounts operator-(OpCounts a, const OpCounts& b) {
#define TWHEEL_OP_COUNT_SUB(name) a.name -= b.name;
    TWHEEL_OP_COUNT_FIELDS(TWHEEL_OP_COUNT_SUB)
#undef TWHEEL_OP_COUNT_SUB
    return a;
  }

  // Total bookkeeping work done inside PER_TICK_BOOKKEEPING calls, in elementary ops
  // (slot checks + record visits + expiry removals). Used for burstiness studies.
  std::uint64_t TickWork() const {
    return empty_slot_checks + decrement_visits + expiry_dispatches + migrations;
  }
};

// A field declared outside TWHEEL_OP_COUNT_FIELDS would be missed by += and -.
#define TWHEEL_OP_COUNT_ONE(name) +1
static_assert(sizeof(OpCounts) ==
                  (0 TWHEEL_OP_COUNT_FIELDS(TWHEEL_OP_COUNT_ONE)) * sizeof(std::uint64_t),
              "declare every OpCounts field in TWHEEL_OP_COUNT_FIELDS");
#undef TWHEEL_OP_COUNT_ONE

}  // namespace twheel::metrics

#endif  // TWHEEL_SRC_METRICS_OP_COUNTS_H_
