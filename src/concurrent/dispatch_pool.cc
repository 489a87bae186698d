#include "src/concurrent/dispatch_pool.h"

#include <algorithm>
#include <chrono>

#include "src/base/assert.h"

namespace twheel::concurrent {

DispatchPool::DispatchPool(ShardedWheel& wheel, DispatchOptions options)
    : wheel_(wheel), options_(options) {
  TWHEEL_ASSERT_MSG(options_.drainers >= 1, "pool needs at least one drainer");
  TWHEEL_ASSERT_MSG(options_.max_chunk_ticks >= 1, "chunk must cover >= 1 tick");
  threads_.reserve(options_.drainers);
  for (std::size_t i = 0; i < options_.drainers; ++i) {
    threads_.emplace_back([this, i] { DrainerLoop(i); });
  }
}

DispatchPool::~DispatchPool() { Stop(); }

void DispatchPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      return;
    }
    stopping_.store(true, std::memory_order_relaxed);
  }
  wakeup_.notify_all();
  done_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  // All drainers have exited; anything still on a batch stack was claimed but
  // not delivered (a burst abandoned between chunks never *publishes* partial
  // work, but a drainer can be stopped between publish and dispatch). Deliver
  // it serially here so exactly-once holds across shutdown — these calls run
  // on the caller's thread, before Stop returns, so the "no bookkeeping after
  // Stop" contract is kept.
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    fires_dispatched_.fetch_add(wheel_.DispatchShard(s, /*owner=*/true),
                                std::memory_order_relaxed);
  }
  CommitCompletedClock();
}

std::size_t DispatchPool::AdvanceTo(Tick target) {
  const std::uint64_t before = fires_dispatched_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Tick cur = target_.load(std::memory_order_relaxed);
    while (cur < target &&
           !target_.compare_exchange_weak(cur, target,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
  }
  wakeup_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Timed re-check instead of a bare predicate wait: the barrier condition
    // is a function of lock-free wheel state (cursors, batch stacks, rights
    // flags), not of anything guarded by mutex_, so a notification can never
    // be relied on to pair with the final state transition.
    while (!stopping_.load(std::memory_order_relaxed) && !EpochDone(target)) {
      done_.wait_for(lock, std::chrono::microseconds(200));
    }
  }
  CommitCompletedClock();
  return static_cast<std::size_t>(
      fires_dispatched_.load(std::memory_order_relaxed) - before);
}

void DispatchPool::DrainerLoop(std::size_t index) {
  // Advance to each published target, then keep stealing until the whole
  // epoch is delivered (an idle drainer lending its core to a burst-hit shard
  // is exactly the scaling mechanism under test).
  Tick completed = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    const Tick t = target_.load(std::memory_order_acquire);
    if (t > completed) {
      lock.unlock();
      if (AdvanceOwned(index, t)) {
        completed = t;
      }
      while (options_.steal && !stopping_.load(std::memory_order_relaxed) &&
             !EpochDone(t)) {
        if (StealSweep(index) == 0) {
          std::this_thread::yield();
        }
      }
      CommitCompletedClock();
      done_.notify_all();
      lock.lock();
      continue;
    }
    wakeup_.wait(lock, [this, completed] {
      return stopping_.load(std::memory_order_relaxed) ||
             target_.load(std::memory_order_relaxed) > completed;
    });
  }
}

bool DispatchPool::AdvanceOwned(std::size_t index, Tick target) {
  const std::size_t n = options_.drainers;
  // Interleave chunks across the owned shards instead of running each shard to
  // completion: during a long catch-up every owned shard's clock lags by at
  // most one chunk relative to its siblings, and Stop() is honored between
  // every chunk.
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (std::uint32_t s = static_cast<std::uint32_t>(index);
         s < wheel_.num_shards(); s += static_cast<std::uint32_t>(n)) {
      if (stopping_.load(std::memory_order_relaxed)) {
        return false;
      }
      const Tick cursor = wheel_.ShardCursor(s);
      if (cursor >= target) {
        continue;
      }
      const Tick next = std::min<Tick>(cursor + options_.max_chunk_ticks, target);
      wheel_.AdvanceShard(s, next);
      fires_dispatched_.fetch_add(wheel_.DispatchShard(s, /*owner=*/true),
                                  std::memory_order_relaxed);
      if (next < target) {
        all_done = false;
      }
    }
  }
  return true;
}

std::size_t DispatchPool::StealSweep(std::size_t index) {
  if (!options_.steal) {
    return 0;
  }
  std::size_t fired = 0;
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    if (s % options_.drainers == index) {
      continue;  // own shards are dispatched inline by AdvanceOwned
    }
    if (wheel_.HasPendingBatches(s)) {
      fired += wheel_.DispatchShard(s, /*owner=*/false);
    }
  }
  fires_dispatched_.fetch_add(fired, std::memory_order_relaxed);
  return fired;
}

bool DispatchPool::EpochDone(Tick target) const {
  // Order matters: a shard's batches are published before its cursor (release)
  // reaches the target, and HasPendingBatches reads the stack head before the
  // rights flag, so "cursor reached target, stack empty, rights free" read in
  // this order proves the shard's epoch work is fully delivered.
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    if (wheel_.ShardCursor(s) < target) {
      return false;
    }
  }
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    if (wheel_.HasPendingBatches(s)) {
      return false;
    }
  }
  return true;
}

void DispatchPool::CommitCompletedClock() {
  Tick min_cursor = 0;
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    const Tick c = wheel_.ShardCursor(s);
    min_cursor = s == 0 ? c : std::min(min_cursor, c);
  }
  wheel_.CommitNow(min_cursor);
}

}  // namespace twheel::concurrent
