// Sharded-lock hashed wheel for symmetric multiprocessors (Appendix A.2).
//
// "Scheme 5, 6, and 7 seem suited for implementation in symmetric multiprocessors"
// because their critical sections are O(1) and independent: this class runs K
// independent Scheme 6 wheels, each behind its own mutex. START_TIMER picks a shard
// round-robin and locks only it; STOP_TIMER decodes the shard from the handle and
// locks only it. Contention falls by ~K versus a single global lock, which the
// bench_appA2_smp benchmark measures against LockedService around Scheme 2 (the
// appendix's criticized single-semaphore configuration).
//
// PER_TICK_BOOKKEEPING ticks every shard, collecting expiries under each shard's
// lock but dispatching the client's ExpiryHandler after release, so handlers may
// freely start and stop timers. Every entry point — PerTickBookkeeping, AdvanceTo
// and the DispatchPool's AdvanceShard — runs the same per-shard step, so one tick
// costs the same counted work whichever of them delivers it.
//
// Deferred-registration (MPSC) mode — the three-argument constructor — removes
// the shard mutex from the producer path entirely: StartTimer/StopTimer become
// lock-free enqueues of start/cancel commands onto a per-shard bounded MPSC ring
// (src/concurrent/submission.h), which the tick driver drains at tick/batch
// boundaries *before* advancing, while it already holds each shard's mutex. A
// timer becomes visible to the wheel at that drain; it still fires at exactly
// `now-at-StartTimer + interval` whenever its command drains before that tick is
// crossed (drain-before-advance guarantees this for any submission that completed
// before the AdvanceTo/PerTickBookkeeping call began), and at the first tick
// after the drain otherwise. Driven single-threaded, the mode is observationally
// equivalent to the locked mode — every differential-oracle test runs both.
//
// Handles encode the shard in the top byte of the slot index; each shard may hold
// up to 2^24 concurrent timers (locked mode: inner arena slot; MPSC mode:
// registration-table index, bounded by SubmitOptions::registration_capacity).

#ifndef TWHEEL_SRC_CONCURRENT_SHARDED_WHEEL_H_
#define TWHEEL_SRC_CONCURRENT_SHARDED_WHEEL_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/bits.h"
#include "src/concurrent/submission.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/timer_service.h"

namespace twheel::concurrent {

class ShardedWheel final : public TimerService {
 public:
  // Locked mode: `shards` must be a power of two in [1, 256]; `table_size` is
  // per-shard.
  ShardedWheel(std::size_t shards, std::size_t table_size);
  // Deferred-registration mode: same wheel geometry plus a per-shard submission
  // runtime (ring + registration table) configured by `submit`.
  ShardedWheel(std::size_t shards, std::size_t table_size,
               const SubmitOptions& submit);

  // Locked mode: registers under the shard mutex. MPSC mode: lock-free — mints
  // a generation-checked handle, captures `now() + interval` as the absolute
  // deadline, and enqueues a start command; kNoCapacity under
  // SubmitPolicy::kReject when the shard's ring or table is full.
  StartResult StartTimer(Duration interval, RequestId request_id) final;
  // Periodic registration. Locked mode: forwards to the inner wheel under the
  // shard mutex (the inner record re-arms itself in place on every non-final
  // fire, so the handle survives between fires). MPSC mode: lock-free — the
  // registration entry carries a sticky periodic bit plus the cadence, the
  // inner wheel is registered with the true repeat budget at drain, and each
  // collected fire resolves against the entry word: non-final fires claim by
  // bumping the word's fire-epoch bits (handle and generation preserved),
  // the final fire claims and reclaims like a one-shot expiry.
  StartResult StartPeriodic(Duration interval, RequestId request_id,
                            std::uint64_t repeat_for = kRepeatForever) final;
  // Locked mode: removes under the shard mutex. MPSC mode: lock-free — commits
  // the cancel with one CAS (the result is authoritative: kOk means the timer
  // will never fire) and enqueues a best-effort prompt-removal command.
  TimerError StopTimer(TimerHandle handle) final;
  // Locked mode: in-place relink under the shard mutex (the inner Scheme 6
  // wheel's O(1) RestartTimer). MPSC mode: lock-free — reserves a ring cell,
  // commits with one CAS on the entry word, then publishes a kRestart command
  // carrying `now() + new_interval` into the reserved cell (see
  // ShardSubmitQueue::SubmitRestart). kOk is authoritative:
  // the timer cannot fire at its old deadline and the handle stays valid; a
  // restart losing the word to a fire or cancel gets kNoSuchTimer, so
  // restart-vs-fire resolves exactly once. A restart whose start command has
  // not drained yet coalesces onto the same registration entry.
  TimerError RestartTimer(TimerHandle handle, Duration new_interval) final;
  // One tick is a one-tick AdvanceTo: the shard step ticks each inner wheel
  // with its own PerTickBookkeeping, so the counts match a per-tick loop.
  std::size_t PerTickBookkeeping() final { return AdvanceTo(now() + 1); }
  // Batched tick advancement: one lock acquisition per shard per *batch* instead
  // of per tick, with each shard's inner wheel jumping its dead slots via the
  // occupancy bitmap. In MPSC mode each shard's submission ring is drained
  // under that same lock acquisition, before the shard advances — so no start
  // whose enqueue completed before this call can be skipped past. Every
  // shard's expiries are claimed before any handler runs; a multi-tick batch
  // is re-merged into chronological order (FIFO within a tick) before
  // dispatch outside the locks.
  std::size_t AdvanceTo(Tick target) final;
  // Minimum of the shards' hints; in MPSC mode also folds in each shard's
  // pending-submission deadline minimum, so a hint taken after a completed
  // StartTimer is never later than that timer's deadline even though its
  // command has not drained yet. Concurrent starts *during* the scan can still
  // make the hint stale-late; AdvanceTo/FastForward stay correct regardless
  // because they drain before advancing and dispatch (never skip) anything that
  // comes due.
  std::optional<Tick> NextExpiryHint() const final;
  bool FastForward(Tick target) final;
  Tick now() const final { return now_.load(std::memory_order_relaxed); }
  std::size_t outstanding() const final;
  // Snapshot merged across shards; by value so nothing shared escapes the locks.
  // MPSC mode adds the submission counters (enqueued_starts, drained_commands,
  // submit_retries).
  metrics::OpCounts counts() const final;
  std::string_view name() const final {
    return deferred() ? "scheme6-sharded-mpsc" : "scheme6-sharded";
  }
  void set_expiry_handler(ExpiryHandler handler) final;

  std::size_t num_shards() const { return shards_.size(); }
  bool deferred() const { return shards_[0]->submit != nullptr; }

  // ---- Concurrent per-shard advancement (the DispatchPool protocol) ----
  //
  // A multi-drainer driver replaces the global AdvanceTo with two per-shard
  // halves that different threads may run for different shards at once:
  //
  //   AdvanceShard(s, target)   run shard s's tick step to the absolute tick
  //                             `target` (drain, advance, claim — the step
  //                             AdvanceTo runs for every shard) and publish the
  //                             survivors as a FireBatch on the shard's stack.
  //                             Serialized per shard by the shard mutex;
  //                             concurrent calls for distinct shards never
  //                             contend. Never dispatches handlers.
  //   DispatchShard(s, owner)   deliver shard s's published batches, oldest
  //                             first, if the shard's dispatch rights are free
  //                             (a single CAS). Any thread may call this — a
  //                             non-owner dispatching is a *steal* — and the
  //                             per-batch claim is all-or-nothing: a batch is
  //                             only ever published after its shard advance
  //                             completed, so a thief can never see a
  //                             half-drained bucket.
  //   CommitNow(target)         publish the global clock after the caller has
  //                             proven every shard's cursor reached `target`
  //                             (monotone max; DispatchPool's barrier).
  //
  // Exactly-once across stealing: expiries are claimed against the
  // registration word inside the shard step (under the shard mutex), before the
  // batch becomes visible; dispatch rights make batch delivery per-shard
  // serial; and the batch pointer itself transfers via an atomic exchange, so
  // each fire is delivered by exactly one drainer no matter who wins.
  std::size_t AdvanceShard(std::uint32_t shard, Tick target);
  std::size_t DispatchShard(std::uint32_t shard, bool owner = true);
  void CommitNow(Tick target);
  // Shard s's completed clock (≥ now() while a pool is mid-epoch).
  Tick ShardCursor(std::uint32_t shard) const;
  // True if shard s has published batches awaiting dispatch, or a dispatch in
  // flight. Reading the stack head (acquire) before the rights flag makes
  // "false" proof that everything published so far was delivered: seeing the
  // head empty synchronizes with the holder's pop, which its rights
  // acquisition precedes, so a stale "rights free" read is impossible.
  bool HasPendingBatches(std::uint32_t shard) const;
  // Batches delivered out of per-shard FIFO order or with non-monotone `when`
  // — 0 by protocol; exposed so torture tests can assert the invariant rather
  // than trust it.
  std::uint64_t dispatch_order_violations() const {
    return dispatch_order_violations_.load(std::memory_order_relaxed);
  }

  // MPSC mode: drain every shard's command ring into its wheel without
  // advancing the clock (each shard under its own mutex). Returns commands
  // consumed. Exposed for tests and for drivers that want registration latency
  // tighter than their tick period. No-op in locked mode.
  std::size_t DrainSubmissions();

  // Sum of the shards' structures; per-record needs match Scheme 6's. MPSC
  // mode adds the rings and registration tables to fixed_bytes.
  SpaceProfile Space() const final;

 private:
  static constexpr std::uint32_t kShardShift = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kShardShift) - 1;

  // One shard advance's worth of claimed, dispatch-ready expiries. Built and
  // sequenced under the shard mutex, then published onto the shard's batch
  // stack with a release CAS; consumed whole (atomic exchange of the stack
  // head) by whichever drainer holds the shard's dispatch rights.
  struct FireBatch {
    std::uint64_t seq;  // per-shard publication order, 1-based
    std::vector<std::pair<RequestId, Tick>> fires;
    FireBatch* next;
  };

  // Cache-line aligned: shards are stored contiguously and ticked/drained by
  // different threads, so without the alignas the tail of one shard's atomics
  // and the head of the next would share a line and ping-pong between cores.
  // Each shard also owns its own inner wheel, whose TimerServiceBase holds a
  // private (cache-line-aligned) record arena — allocations from different
  // shards never interleave within one line.
  struct alignas(kSlabCacheLine) Shard {
    std::mutex mutex;
    // Expiries the inner wheel reported, staged under `mutex` until the shard
    // step claims them for dispatch outside all locks. Declared before `wheel`
    // so it outlives the wheel (whose permanently installed expiry handler
    // appends here) during shard destruction.
    std::vector<std::pair<RequestId, Tick>> collected;
    std::unique_ptr<HashedWheelUnsorted> wheel;
    // Deferred-registration runtime; nullptr in locked mode.
    std::unique_ptr<ShardSubmitQueue> submit;

    // ---- DispatchPool state ----
    // The shard's completed clock: released after the inner wheel reaches the
    // advance target, acquired by the pool's completion barrier and by
    // CommitNow's min scan.
    std::atomic<Tick> cursor{0};
    // Treiber stack of published batches (newest first; DispatchShard
    // re-reverses into FIFO by seq).
    std::atomic<FireBatch*> batch_head{nullptr};
    // Dispatch rights: exactly one drainer delivers this shard's batches at a
    // time, so per-shard delivery stays serial and in order even when stolen.
    std::atomic<bool> dispatch_busy{false};
    // Next seq to assign; written under `mutex` only.
    std::uint64_t published_seq = 0;
    // Delivery-order bookkeeping; written under dispatch rights only.
    std::uint64_t dispatched_seq = 0;
    Tick last_dispatched_when = 0;

    ~Shard();  // frees batches left on the stack (defensive; Stop() drains)
  };

  void Construct(std::size_t shards, std::size_t table_size,
                 const SubmitOptions* submit);
  // The one per-shard tick step, run with the shard's mutex held: drain the
  // submission ring (MPSC mode), advance the inner wheel to the absolute tick
  // `target` (PerTickBookkeeping for one tick, AdvanceTo for more, nothing if
  // the shard is already there), then claim the collected expiries against
  // their registration words in place and append the survivors to `fires`.
  // Claiming before the caller dispatches ANY handler commits a tick's expiry
  // set when the tick begins (a handler stopping a same-tick sibling gets
  // kNoSuchTimer, matching the oracle and the locked mode). Never dispatches;
  // the caller publishes the shard cursor.
  void StepShard(Shard& shard, Tick target,
                 std::vector<std::pair<RequestId, Tick>>& fires);
  std::size_t Dispatch(const std::vector<std::pair<RequestId, Tick>>& fires);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_shard_{0};
  std::atomic<Tick> now_{0};
  // MPSC mode: started minus {fired, cancelled}, maintained without locks.
  std::atomic<std::uint64_t> live_{0};
  // MPSC mode: client-level StartTimer invocations (including rejects). The
  // inner wheels count start_calls only at drain, and a cancelled-before-drain
  // start never reaches them, so counts() reports this instead.
  std::atomic<std::uint64_t> client_starts_{0};
  // MPSC mode: committed (kOk) RestartTimer calls; the client-level analogue
  // of restart_calls (inner wheels only see the drained relinks).
  std::atomic<std::uint64_t> client_restarts_{0};
  // MPSC mode: successful client StartPeriodic calls (the inner wheels count
  // periodic_starts only at drain).
  std::atomic<std::uint64_t> client_periodic_starts_{0};
  // MPSC mode: client-visible deliveries and stop attempts. The inner wheels'
  // expiries include suppressed ghost fires (a cancelled timer whose prompt
  // removal lost the race to its own expiry), and their stop_calls only count
  // drained removal commands, so a counts() snapshot built from inner totals
  // cannot satisfy the conservation law under concurrent drainers. These count
  // at the claim / submit commit points instead: client_expiries_ on
  // kDeliverFinal (one-shot fires and final periodic laps), client_fired_laps_
  // on kDeliver (non-final laps), client_stops_ on every StopTimer attempt —
  // the same semantics the locked inner wheels give those fields.
  std::atomic<std::uint64_t> client_expiries_{0};
  std::atomic<std::uint64_t> client_fired_laps_{0};
  std::atomic<std::uint64_t> client_stops_{0};
  // DispatchPool accounting (see OpCounts::dispatch_batches/dispatch_steals).
  std::atomic<std::uint64_t> dispatch_batches_{0};
  std::atomic<std::uint64_t> dispatch_steals_{0};
  std::atomic<std::uint64_t> dispatch_order_violations_{0};

  std::mutex handler_mutex_;
  ExpiryHandler handler_;
};

}  // namespace twheel::concurrent

#endif  // TWHEEL_SRC_CONCURRENT_SHARDED_WHEEL_H_
