#include "src/concurrent/sharded_wheel.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/base/assert.h"

namespace twheel::concurrent {

ShardedWheel::Shard::~Shard() {
  // Batches are normally drained before the wheel is torn down (DispatchPool
  // dispatches everything pending in Stop()); free stragglers regardless so an
  // aborted test cannot leak them.
  FireBatch* chain = batch_head.exchange(nullptr, std::memory_order_acquire);
  while (chain != nullptr) {
    FireBatch* next = chain->next;
    delete chain;
    chain = next;
  }
}

ShardedWheel::ShardedWheel(std::size_t shards, std::size_t table_size,
                           const SubmitOptions& submit) {
  TWHEEL_ASSERT_MSG(IsPowerOfTwo(shards) && shards >= 1 && shards <= 256,
                    "shard count must be a power of two in [1, 256]");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->wheel = std::make_unique<HashedWheelUnsorted>(table_size);
    shard->submit = std::make_unique<ShardSubmitQueue>(submit);
    // Install the collector exactly once, pointing at storage that lives as long
    // as the shard itself. Installing a lambda that captures a tick-local vector
    // would leave the wheel's handler dangling after the tick returns — any expiry
    // dispatched outside that call (a future destructor drain, an overlapping
    // tick) would then write through a dead stack frame. Shard::collected is only
    // touched under Shard::mutex, which every wheel call already holds.
    Shard* raw = shard.get();
    raw->wheel->set_expiry_handler([raw](RequestId id, Tick when, bool last) {
      raw->collected.push_back(Fire{id, when, last});
    });
    shards_.push_back(std::move(shard));
  }
}

StartResult ShardedWheel::StartTimer(Duration interval, RequestId request_id) {
  return Submit(interval, request_id, /*period=*/0, /*repeat_for=*/0);
}

StartResult ShardedWheel::StartPeriodic(Duration interval, RequestId request_id,
                                        std::uint64_t repeat_for) {
  // The cadence and repeat budget travel in the registration entry (see
  // ShardSubmitQueue::SubmitStart).
  return Submit(interval, request_id, /*period=*/interval, repeat_for);
}

StartResult ShardedWheel::Submit(Duration interval, RequestId request_id,
                                 Duration period, std::uint64_t repeat_for) {
  // Round-robin placement is a balance heuristic, not a contract: producers
  // racing the load and store may pick the same shard, which costs nothing.
  const std::uint64_t placed = next_shard_.load(std::memory_order_relaxed);
  next_shard_.store(placed + 1, std::memory_order_relaxed);
  const std::uint32_t index =
      static_cast<std::uint32_t>(placed & (shards_.size() - 1));
  ShardSubmitQueue& submit = *shards_[index]->submit;
  // Capture the absolute deadline now, enqueue the command. A tick racing this
  // call may advance the clock before the command drains; the drain then
  // registers the remaining interval (min 1), so the timer fires at
  // max(deadline, drain tick + 1). A zero interval, or a deadline past the end
  // of Tick, is refused as the inner wheel would refuse it.
  const Tick now = now_.load(std::memory_order_acquire);
  if (interval == 0 || interval > std::numeric_limits<Tick>::max() - now) {
    submit.CountRefusedStart();
    return interval == 0 ? TimerError::kZeroInterval
                         : TimerError::kIntervalOutOfRange;
  }
  StartResult result = submit.SubmitStart(request_id, now + interval, period, repeat_for);
  if (!result.has_value()) {
    return result;
  }
  const TimerHandle local = result.value();
  return TimerHandle{(index << kShardShift) | local.slot, local.generation};
}

TimerError ShardedWheel::StopTimer(TimerHandle handle) {
  if (!handle.valid()) {
    return TimerError::kNoSuchTimer;
  }
  const std::uint32_t index = handle.slot >> kShardShift;
  if (index >= shards_.size()) {
    return TimerError::kNoSuchTimer;
  }
  // The CAS inside SubmitCancel is the commit point; kOk means the timer can no
  // longer fire, whether or not its start command has even drained yet
  // (pending-cancel reconciliation).
  return shards_[index]->submit->SubmitCancel(handle.slot & kSlotMask,
                                              handle.generation);
}

TimerError ShardedWheel::RestartTimer(TimerHandle handle, Duration new_interval) {
  if (!handle.valid()) {
    return TimerError::kNoSuchTimer;
  }
  const std::uint32_t index = handle.slot >> kShardShift;
  if (index >= shards_.size()) {
    return TimerError::kNoSuchTimer;
  }
  if (new_interval == 0) {
    return TimerError::kZeroInterval;  // match the inner wheel's policy
  }
  // Capture the new absolute deadline and commit via the entry word
  // (reserve-commit-publish, see SubmitRestart). A restart is neither a start
  // nor a cancel, so outstanding() is untouched either way.
  const Tick now = now_.load(std::memory_order_acquire);
  if (new_interval > std::numeric_limits<Tick>::max() - now) {
    return TimerError::kIntervalOutOfRange;
  }
  return shards_[index]->submit->SubmitRestart(
      handle.slot & kSlotMask, handle.generation, now + new_interval);
}

std::size_t ShardedWheel::DrainSubmissions() {
  std::size_t total = 0;
  for (auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    total += shard_ptr->submit->Drain(*shard_ptr->wheel);
    shard_ptr->submit->ReturnFreed();
  }
  return total;
}

std::size_t ShardedWheel::AdvanceTo(Tick target) {
  const Tick base = now_.load(std::memory_order_relaxed);
  TWHEEL_ASSERT_MSG(target >= base, "AdvanceTo target is in the past");
  if (target == base) {
    return 0;
  }
  // One lock acquisition per shard for the whole batch. Targets are absolute
  // (not now()+delta per shard): shard clocks normally tick in lockstep, but a
  // DispatchPool stopped mid-advance leaves shards at unequal cursors, so a
  // shard whose cursor already passed `target` is skipped rather than
  // over-advanced — driving the wheel afterwards re-converges every shard onto
  // `target`.
  std::vector<Fire> fires = std::move(fires_);
  fires.clear();
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    StepShard(shard, target, fires);
    shard.cursor.store(shard.wheel->now(), std::memory_order_release);
  }
  CommitNow(target);

  // Each shard's stage is already chronological; for a multi-tick batch the
  // stable merge re-establishes cross-shard tick order while keeping FIFO order
  // within a tick (shards are visited in index order). A one-tick step's fires
  // all carry `target` and need no merge.
  if (target - base > 1) {
    std::stable_sort(fires.begin(), fires.end(),
                     [](const Fire& a, const Fire& b) { return a.when < b.when; });
  }
  const std::size_t dispatched = Dispatch(fires);
  fires.clear();
  fires_ = std::move(fires);
  return dispatched;
}

void ShardedWheel::StepShard(Shard& shard, Tick target, std::vector<Fire>& fires) {
  // Drain before advancing: a start whose enqueue completed before this step
  // is registered before any slot it could land in is crossed, which is what
  // makes the NextExpiryHint contract sound for callers that jump.
  shard.submit->Drain(*shard.wheel);
  const Tick inner_now = shard.wheel->now();
  if (inner_now + 1 == target) {
    shard.wheel->PerTickBookkeeping();
  } else if (inner_now < target) {
    shard.wheel->AdvanceTo(target);
  }
  // Claim while still holding the shard mutex: every fire is committed against
  // its registration word before any handler runs or the batch becomes visible
  // to a dispatcher, so a thief can only ever claim a fully-drained,
  // fully-claimed bucket. Last fires bump their entry's generation (StopTimer
  // on them now returns kNoSuchTimer); a periodic's lap CASes the word onto
  // itself, keeping the handle live; entries whose cancel won the race are
  // suppressed and reclaimed inside ClaimFire, which also stops a cancelled
  // periodic's re-armed inner record.
  for (const Fire& fire : shard.collected) {
    RequestId client_id = 0;
    if (shard.submit->ClaimFire(ShardSubmitQueue::InnerIdIndex(fire.id),
                                ShardSubmitQueue::InnerIdGeneration(fire.id),
                                fire.last, *shard.wheel, &client_id)) {
      fires.push_back(Fire{client_id, fire.when, fire.last});
      ++(fire.last ? shard.expiries : shard.fired_laps);
    }
  }
  shard.collected.clear();
  // Entries this step reclaimed, at the drain and in the claims, go back to
  // the free list together.
  shard.submit->ReturnFreed();
}

std::size_t ShardedWheel::AdvanceShard(std::uint32_t shard_index, Tick target) {
  TWHEEL_ASSERT_MSG(shard_index < shards_.size(), "AdvanceShard: no such shard");
  Shard& shard = *shards_[shard_index];
  std::vector<Fire> fires;
  std::lock_guard<std::mutex> lock(shard.mutex);
  StepShard(shard, target, fires);
  const std::size_t claimed = fires.size();
  if (claimed != 0) {
    auto* batch = new FireBatch{++shard.published_seq, std::move(fires), nullptr};
    // Release so the dispatcher's acquire exchange of batch_head sees the
    // fully-built batch; the failure order can stay relaxed because a failed
    // CAS publishes nothing.
    FireBatch* head = shard.batch_head.load(std::memory_order_relaxed);
    do {
      batch->next = head;
    } while (!shard.batch_head.compare_exchange_weak(
        head, batch, std::memory_order_release, std::memory_order_relaxed));
    dispatch_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  // Publish the cursor last (release): once the pool's barrier observes
  // cursor >= target, every batch this advance produced is already on the
  // stack, so "all cursors reached the target and all stacks are empty" is a
  // sound quiesce condition.
  shard.cursor.store(shard.wheel->now(), std::memory_order_release);
  return claimed;
}

std::size_t ShardedWheel::DispatchShard(std::uint32_t shard_index, bool owner) {
  TWHEEL_ASSERT_MSG(shard_index < shards_.size(), "DispatchShard: no such shard");
  Shard& shard = *shards_[shard_index];
  std::size_t delivered = 0;
  // Dispatch rights: one drainer at a time delivers this shard's batches, so
  // per-shard delivery stays serial and FIFO even when stolen. Losers leave
  // immediately — the rights holder re-checks the stack before releasing, so a
  // batch published while it was dispatching is never stranded.
  while (shard.batch_head.load(std::memory_order_acquire) != nullptr) {
    if (shard.dispatch_busy.exchange(true, std::memory_order_acquire)) {
      break;
    }
    // Sole rights holder from here: take the whole stack in one exchange and
    // reverse the newest-first chain into publication order.
    FireBatch* chain = shard.batch_head.exchange(nullptr, std::memory_order_acquire);
    FireBatch* fifo = nullptr;
    while (chain != nullptr) {
      FireBatch* next = chain->next;
      chain->next = fifo;
      fifo = chain;
      chain = next;
    }
    while (fifo != nullptr) {
      FireBatch* next = fifo->next;
      // Protocol self-check, surfaced as a counter instead of trusted: batches
      // arrive in exactly the order the shard advances published them (seq is
      // dense), and expiry ticks never run backwards within a shard.
      if (fifo->seq != shard.dispatched_seq + 1 ||
          (!fifo->fires.empty() &&
           fifo->fires.front().when < shard.last_dispatched_when)) {
        dispatch_order_violations_.fetch_add(1, std::memory_order_relaxed);
      }
      shard.dispatched_seq = fifo->seq;
      if (!fifo->fires.empty()) {
        shard.last_dispatched_when = fifo->fires.back().when;
      }
      if (!owner) {
        dispatch_steals_.fetch_add(1, std::memory_order_relaxed);
      }
      delivered += Dispatch(fifo->fires);
      delete fifo;
      fifo = next;
    }
    shard.dispatch_busy.store(false, std::memory_order_release);
  }
  return delivered;
}

void ShardedWheel::CommitNow(Tick target) {
  // Monotone max: now() is the globally *completed* clock, so it only moves
  // once the caller (DispatchPool's barrier, or the single-driver paths) has
  // seen every shard reach `target`.
  Tick cur = now_.load(std::memory_order_relaxed);
  while (cur < target && !now_.compare_exchange_weak(cur, target,
                                                     std::memory_order_release,
                                                     std::memory_order_relaxed)) {
  }
}

Tick ShardedWheel::ShardCursor(std::uint32_t shard_index) const {
  TWHEEL_ASSERT_MSG(shard_index < shards_.size(), "ShardCursor: no such shard");
  return shards_[shard_index]->cursor.load(std::memory_order_acquire);
}

bool ShardedWheel::HasPendingBatches(std::uint32_t shard_index) const {
  TWHEEL_ASSERT_MSG(shard_index < shards_.size(),
                    "HasPendingBatches: no such shard");
  const Shard& shard = *shards_[shard_index];
  // Head before rights flag — see the header comment for why this order makes
  // a false return authoritative.
  if (shard.batch_head.load(std::memory_order_acquire) != nullptr) {
    return true;
  }
  return shard.dispatch_busy.load(std::memory_order_acquire);
}

std::size_t ShardedWheel::Dispatch(const std::vector<Fire>& fires) {
  ExpiryHandler handler;
  {
    std::lock_guard<std::mutex> lock(handler_mutex_);
    handler = handler_;
  }
  if (handler) {
    for (const Fire& fire : fires) {
      handler(fire.id, fire.when, fire.last);
    }
  }
  return fires.size();
}

std::optional<Tick> ShardedWheel::NextExpiryHint() const {
  std::optional<Tick> best;
  const auto fold = [&best](std::optional<Tick> hint) {
    if (hint.has_value() && (!best.has_value() || *hint < *best)) {
      best = hint;
    }
  };
  for (const auto& shard_ptr : shards_) {
    // Pending (not-yet-drained) submissions first: EarliestPending is never
    // later than the deadline of any submission completed before this call,
    // so the merged hint cannot skip past one.
    fold(shard_ptr->submit->EarliestPending());
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    fold(shard_ptr->wheel->NextExpiryHint());
  }
  return best;
}

bool ShardedWheel::FastForward(Tick target) {
  // The single-writer precondition (nothing due before target) cannot be verified
  // atomically across shards, so delegate to AdvanceTo: anything that does come
  // due — including timers whose start commands are still queued and drain at
  // the head of the batch — is dispatched rather than silently skipped, and
  // dead time is still crossed in one batch per shard.
  AdvanceTo(target);
  return true;
}

std::size_t ShardedWheel::outstanding() const {
  // Per shard, accepted starts minus final fires and committed cancels. The
  // dropped-cancel count is read before the commands are counted, so every
  // timer counted as ended has its start counted too (see
  // ShardSubmitQueue::dropped_cancels): the difference cannot underflow.
  std::uint64_t live = 0;
  for (const auto& shard_ptr : shards_) {
    const ShardSubmitQueue& submit = *shard_ptr->submit;
    const std::uint64_t dropped = submit.dropped_cancels();
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    const ShardSubmitQueue::Tally tally = submit.Count();
    live += tally.starts - tally.cancels - dropped - shard_ptr->expiries;
  }
  return static_cast<std::size_t>(live);
}

metrics::OpCounts ShardedWheel::counts() const {
  metrics::OpCounts merged;
  std::uint64_t expiries = 0;
  std::uint64_t fired_laps = 0;
  std::uint64_t drained = 0;
  ShardSubmitQueue::Tally calls;
  // Client calls that publish no command: refused starts, cancels whose
  // command a full ring dropped, and stops that missed.
  std::uint64_t refused = 0;
  std::uint64_t uncommanded_stops = 0;
  for (const auto& shard_ptr : shards_) {
    const ShardSubmitQueue& submit = *shard_ptr->submit;
    {
      std::lock_guard<std::mutex> lock(shard_ptr->mutex);
      merged += shard_ptr->wheel->counts();
      expiries += shard_ptr->expiries;
      fired_laps += shard_ptr->fired_laps;
      drained += submit.drained_commands();
      calls += submit.Count();
    }
    refused += submit.refused_starts();
    uncommanded_stops += submit.dropped_cancels() + submit.stop_misses();
    merged.submit_retries += submit.submit_retries();
  }
  // Ticks are per-shard internally; report wall ticks.
  merged.ticks = now_.load(std::memory_order_relaxed);
  // The client's view of the routines, which the inner wheels see only at
  // drain or not at all: a cancelled-before-drain start never reaches them, a
  // committed restart may surface as a relink, a fresh inner start (after a
  // suppressed fire) or nothing, and a drained periodic's off-cadence first
  // fire is an inner relink that no client asked for. Every term only grows,
  // so start_calls never decreases between two reads.
  merged.start_calls = calls.starts + refused;
  merged.enqueued_starts = calls.starts;
  merged.periodic_starts = calls.periodic_starts;
  merged.restart_calls = calls.restarts;
  merged.restart_coalesced = calls.coalesced_restarts;
  merged.stop_calls = calls.cancels + uncommanded_stops;
  merged.drained_commands = drained;
  // Client-view deliveries: the inner wheels count ghost expiries (a cancelled
  // timer whose prompt removal lost the race to its own collection — the claim
  // suppresses the fire, but the inner wheel already counted it). Under N
  // concurrent drainers those races are routine, so the snapshot reports the
  // claim-point counters instead; with them the conservation law
  //   start_calls == expiries + successful cancels + outstanding
  // is exact at quiesce whenever no start was rejected, no matter how many
  // drainers raced (each start resolves exactly once as a delivered final
  // fire, a committed cancel, or a live registration).
  merged.expiries = expiries;
  merged.periodic_fires = fired_laps;
  merged.dispatch_batches = dispatch_batches_.load(std::memory_order_relaxed);
  merged.dispatch_steals = dispatch_steals_.load(std::memory_order_relaxed);
  return merged;
}

TimerService::SpaceProfile ShardedWheel::Space() const {
  SpaceProfile profile;
  for (const auto& shard_ptr : shards_) {
    profile.fixed_bytes += shard_ptr->submit->FixedBytes();
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    SpaceProfile shard_profile = shard_ptr->wheel->Space();
    profile.fixed_bytes += shard_profile.fixed_bytes;
    profile.essential_record_bytes = shard_profile.essential_record_bytes;
  }
  return profile;
}

void ShardedWheel::set_expiry_handler(ExpiryHandler handler) {
  std::lock_guard<std::mutex> lock(handler_mutex_);
  handler_ = std::move(handler);
}

}  // namespace twheel::concurrent
