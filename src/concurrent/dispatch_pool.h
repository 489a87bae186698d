// DispatchPool — the MPMC half of the concurrent wheel: N drainer threads
// advance and deliver a ShardedWheel's shards in parallel, with work stealing
// over published expiry batches.
//
// PR 3 made *submission* scale (wait-free MPSC enqueues), but the tick side
// stayed a single drainer sweeping every shard, so expiry throughput was flat
// no matter how many cores existed — the Appendix A.2 criticism, one layer up.
// DispatchPool completes the pipeline: shards are partitioned round-robin
// across drainers (shard s belongs to drainer s % N), and each drainer runs
// ShardedWheel's split tick protocol for its shards:
//
//   AdvanceShard(s, t)   owner-only — run s's tick step to the absolute tick t
//                        (drain the submission ring, advance the inner wheel,
//                        claim the collected expiries against the registration
//                        words, all under s's mutex) and publish the survivors
//                        as one FireBatch on s's lock-free batch stack.
//   DispatchShard(s)     anyone — take s's dispatch rights with one CAS,
//                        deliver the published batches oldest-first, release.
//
// Work stealing happens at the dispatch step: a drainer that has finished its
// own shards sweeps the other shards' batch stacks and delivers whatever is
// sitting there (counted in OpCounts::dispatch_steals). Because batches are
// only published after the owning advance fully claimed them, a thief can
// never touch a half-drained bucket, and because delivery is serialized by the
// per-shard rights flag, per-shard expiry order survives stealing. Clock
// advancement itself is never stolen — the drain-under-mutex contract keeps a
// single advancer per shard at a time.
//
// The pool never reads a wall clock: one caller drives it with
// AdvanceTo(target), which blocks until every shard reached the target and
// every batch was delivered. Benchmarks and lockstep tests call it directly;
// a wall-clock deployment puts a TickerThread (ticker.h, the library's only
// wall-clock reader) in front of it:
//
//   DispatchPool pool(wheel, {.drainers = 4});
//   TickerThread ticker(pool, std::chrono::microseconds(100));
//
// Declared in that order, the ticker stops before the pool. The pool assumes
// its driver is the service's only clock driver while running (other threads
// may start/stop/restart timers freely — that is the point).

#ifndef TWHEEL_SRC_CONCURRENT_DISPATCH_POOL_H_
#define TWHEEL_SRC_CONCURRENT_DISPATCH_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/concurrent/sharded_wheel.h"

namespace twheel::concurrent {

struct DispatchOptions {
  // Drainer threads. May exceed the shard count: surplus drainers own no
  // shards and act as pure stealers (dispatch helpers).
  std::size_t drainers = 2;
  // Allow drainers to deliver batches of shards they do not own.
  bool steal = true;
  // The most ticks one AdvanceShard call may cover. Stop() can only interrupt
  // between calls, so this bounds shutdown latency to one chunk's worth of
  // expiry work per drainer.
  std::uint64_t max_chunk_ticks = 1024;
};

class DispatchPool {
 public:
  // Does not take ownership; `wheel` must outlive the pool. Threads start
  // immediately and wait for the first AdvanceTo.
  DispatchPool(ShardedWheel& wheel, DispatchOptions options);

  DispatchPool(const DispatchPool&) = delete;
  DispatchPool& operator=(const DispatchPool&) = delete;

  ~DispatchPool();

  // Publish `target`, wake the drainers, and block until every shard's cursor
  // reached it, every published batch was delivered, and the wheel's now()
  // committed. Returns the number of fires dispatched by the
  // pool during the wait (all epochs' worth since the previous call). Must not
  // be called concurrently with itself; returns early (with the fires so far)
  // if Stop() is called mid-advance.
  std::size_t AdvanceTo(Tick target);

  // Idempotent; blocks until every drainer exited, then delivers any batches
  // still sitting on the stacks (serially, on this thread) and commits now()
  // to the minimum shard cursor. No bookkeeping runs after Stop returns. An
  // advance in flight is abandoned between chunks, never waited out.
  void Stop();

  // The wheel's committed clock; with AdvanceTo this makes the pool a clock a
  // TickerThread can drive.
  Tick now() const { return wheel_.now(); }
  std::size_t drainers() const { return threads_.size(); }
  bool owns(std::size_t drainer, std::uint32_t shard) const {
    return shard % threads_.size() == drainer;
  }
  std::uint64_t fires_dispatched() const {
    return fires_dispatched_.load(std::memory_order_relaxed);
  }

 private:
  void DrainerLoop(std::size_t index);
  // Advance the shards `index` owns toward `target` in bounded chunks,
  // dispatching after every chunk. Returns false if aborted by Stop().
  bool AdvanceOwned(std::size_t index, Tick target);
  // One pass over the other drainers' shards, delivering any published
  // batches. Returns fires delivered.
  std::size_t StealSweep(std::size_t index);
  // True once every shard reached `target` with nothing left to deliver.
  bool EpochDone(Tick target) const;
  // now() := min over shard cursors (monotone; safe to race).
  void CommitCompletedClock();

  ShardedWheel& wheel_;
  const DispatchOptions options_;

  std::mutex mutex_;
  std::condition_variable wakeup_;   // drainers wait here for a new target
  std::condition_variable done_;     // AdvanceTo's barrier wait
  std::atomic<Tick> target_{0};      // latest requested target
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> fires_dispatched_{0};

  std::vector<std::thread> threads_;  // last: started after everything else
};

}  // namespace twheel::concurrent

#endif  // TWHEEL_SRC_CONCURRENT_DISPATCH_POOL_H_
