// Deferred-registration (MPSC) mode of ShardedWheel, driven single-threaded:
// visibility point, exact deadlines, pending-cancel reconciliation, backpressure
// policies, generation-checked handles, the new OpCounts fields, and the
// NextExpiryHint/AdvanceTo ordering fix (a start enqueued before AdvanceTo is
// drained before the batch advances, so the hint can never cause it to be
// skipped).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include "src/concurrent/sharded_wheel.h"
#include "src/core/hashed_wheel_unsorted.h"

namespace twheel::concurrent {
namespace {

SubmitOptions Generous() {
  SubmitOptions submit;
  submit.ring_capacity = 1024;
  submit.registration_capacity = 1024;
  submit.on_full = SubmitPolicy::kReject;
  return submit;
}

using FireLog = std::vector<std::pair<RequestId, Tick>>;

void Capture(ShardedWheel& wheel, FireLog& log) {
  wheel.set_expiry_handler(
      [&log](RequestId id, Tick when, bool) { log.emplace_back(id, when); });
}

TEST(MpscSubmitTest, DeferredStartFiresAtExactDeadline) {
  ShardedWheel wheel(1, 64, Generous());
  EXPECT_EQ(wheel.name(), "scheme6-sharded-mpsc");
  FireLog log;
  Capture(wheel, log);

  auto handle = wheel.StartTimer(5, 42);
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(wheel.outstanding(), 1u) << "pending timers count as outstanding";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(wheel.PerTickBookkeeping(), 0u);
  }
  EXPECT_EQ(wheel.PerTickBookkeeping(), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair<RequestId, Tick>{42, 5}));
  EXPECT_EQ(wheel.outstanding(), 0u);
}

TEST(MpscSubmitTest, ZeroIntervalRejected) {
  ShardedWheel wheel(1, 64, Generous());
  auto result = wheel.StartTimer(0, 1);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), TimerError::kZeroInterval);
  EXPECT_EQ(wheel.outstanding(), 0u);
}

TEST(MpscSubmitTest, CancelBeforeDrainNeverRegisters) {
  ShardedWheel wheel(1, 64, Generous());
  FireLog log;
  Capture(wheel, log);

  auto handle = wheel.StartTimer(3, 7);
  ASSERT_TRUE(handle.has_value());
  // The start command has NOT drained yet; the cancel must still win
  // synchronously (pending-cancel reconciliation).
  EXPECT_EQ(wheel.StopTimer(handle.value()), TimerError::kOk);
  EXPECT_EQ(wheel.outstanding(), 0u);
  for (int i = 0; i < 8; ++i) {
    wheel.PerTickBookkeeping();
  }
  EXPECT_TRUE(log.empty()) << "cancelled-before-drain timer fired";
  // Both commands were still consumed from the ring.
  EXPECT_GE(wheel.counts().drained_commands, 2u);
}

TEST(MpscSubmitTest, CancelAfterDrainRemoves) {
  ShardedWheel wheel(1, 64, Generous());
  FireLog log;
  Capture(wheel, log);

  auto handle = wheel.StartTimer(10, 7);
  ASSERT_TRUE(handle.has_value());
  wheel.PerTickBookkeeping();  // drains: the timer is now in the inner wheel
  EXPECT_EQ(wheel.StopTimer(handle.value()), TimerError::kOk);
  EXPECT_EQ(wheel.outstanding(), 0u);
  for (int i = 0; i < 16; ++i) {
    wheel.PerTickBookkeeping();
  }
  EXPECT_TRUE(log.empty());
}

TEST(MpscSubmitTest, StaleHandlesAlwaysRefused) {
  ShardedWheel wheel(1, 64, Generous());
  FireLog log;
  Capture(wheel, log);

  auto fired = wheel.StartTimer(2, 1);
  ASSERT_TRUE(fired.has_value());
  wheel.PerTickBookkeeping();
  wheel.PerTickBookkeeping();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(wheel.StopTimer(fired.value()), TimerError::kNoSuchTimer);

  auto cancelled = wheel.StartTimer(5, 2);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(wheel.StopTimer(cancelled.value()), TimerError::kOk);
  EXPECT_EQ(wheel.StopTimer(cancelled.value()), TimerError::kNoSuchTimer);

  EXPECT_EQ(wheel.StopTimer(kInvalidHandle), TimerError::kNoSuchTimer);
}

TEST(MpscSubmitTest, RecycledEntryBumpsGeneration) {
  ShardedWheel wheel(1, 64, Generous());
  auto first = wheel.StartTimer(5, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(wheel.StopTimer(first.value()), TimerError::kOk);
  wheel.PerTickBookkeeping();  // reclaim the entry
  // The freed entry is reused; the old handle must stay dead even if the slot
  // coincides.
  auto second = wheel.StartTimer(50, 2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(wheel.StopTimer(first.value()), TimerError::kNoSuchTimer);
  EXPECT_EQ(wheel.StopTimer(second.value()), TimerError::kOk);
}

TEST(MpscSubmitTest, RejectPolicySurfacesNoCapacityAndRecovers) {
  SubmitOptions submit;
  submit.ring_capacity = 2;
  submit.registration_capacity = 8;
  submit.on_full = SubmitPolicy::kReject;
  ShardedWheel wheel(1, 64, submit);

  auto a = wheel.StartTimer(10, 1);
  auto b = wheel.StartTimer(10, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Ring full (2 undrained start commands): reject, with full rollback.
  auto c = wheel.StartTimer(10, 3);
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error(), TimerError::kNoCapacity);
  EXPECT_EQ(wheel.outstanding(), 2u);
  wheel.PerTickBookkeeping();  // drain frees the ring
  EXPECT_TRUE(wheel.StartTimer(10, 4).has_value());
}

TEST(MpscSubmitTest, RegistrationTableExhaustionRejects) {
  SubmitOptions submit;
  submit.ring_capacity = 16;
  submit.registration_capacity = 2;
  submit.on_full = SubmitPolicy::kReject;
  ShardedWheel wheel(1, 64, submit);

  auto a = wheel.StartTimer(10, 1);
  auto b = wheel.StartTimer(10, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  auto c = wheel.StartTimer(10, 3);
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error(), TimerError::kNoCapacity);
  // Cancelling one start (still pending) frees its entry at the next drain.
  EXPECT_EQ(wheel.StopTimer(a.value()), TimerError::kOk);
  wheel.PerTickBookkeeping();
  EXPECT_TRUE(wheel.StartTimer(10, 4).has_value());
}

// A cancel whose command the full ring drops leaves a periodic's inner record
// armed. The claim of its next lap finds the cancel: it suppresses the fire and
// stops the re-armed inner record, so the inner wheel dispatches no later lap.
TEST(MpscSubmitTest, DroppedCancelStopsAPeriodicAtItsNextLap) {
  SubmitOptions submit;
  submit.ring_capacity = 2;
  submit.registration_capacity = 8;
  submit.on_full = SubmitPolicy::kReject;
  ShardedWheel wheel(1, 64, submit);
  FireLog log;
  Capture(wheel, log);

  auto periodic = wheel.StartPeriodic(4, 1);
  ASSERT_TRUE(periodic.has_value());
  wheel.PerTickBookkeeping();  // registered; laps due at 4, 8, 12, ...
  auto a = wheel.StartTimer(20, 2);
  auto b = wheel.StartTimer(20, 3);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // The ring holds the two starts, so this cancel's command is dropped.
  EXPECT_EQ(wheel.StopTimer(periodic.value()), TimerError::kOk);
  while (wheel.now() < 16) {
    wheel.PerTickBookkeeping();  // one tick per step: each lap is claimed alone
  }
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(wheel.counts().periodic_fires, 0u);
  EXPECT_EQ(wheel.counts().expiry_dispatches, 1u);  // the inner lap at 4 only
  EXPECT_EQ(wheel.outstanding(), 2u);
}

// At most 255 restarts of one timer may await a drain: the next is refused
// with nothing changed, and the timer then fires once, at the deadline of the
// last restart accepted.
TEST(MpscSubmitTest, RestartsSaturateAt255InFlight) {
  ShardedWheel wheel(1, 64, Generous());
  FireLog log;
  Capture(wheel, log);

  auto timer = wheel.StartTimer(5, 7);
  ASSERT_TRUE(timer.has_value());
  for (Duration i = 1; i <= 255; ++i) {
    ASSERT_EQ(wheel.RestartTimer(timer.value(), 10 + i), TimerError::kOk);
  }
  EXPECT_EQ(wheel.RestartTimer(timer.value(), 1000), TimerError::kNoCapacity);
  EXPECT_EQ(wheel.counts().restart_calls, 255u);
  wheel.AdvanceTo(300);
  EXPECT_EQ(log, (FireLog{{7, 265}}));
  EXPECT_EQ(wheel.outstanding(), 0u);
}

TEST(MpscSubmitTest, CountsExposeSubmissionTraffic) {
  ShardedWheel wheel(1, 64, Generous());
  FireLog log;
  Capture(wheel, log);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(wheel.StartTimer(3, i).has_value());
  }
  auto counts = wheel.counts();
  EXPECT_EQ(counts.enqueued_starts, 5u);
  EXPECT_EQ(counts.drained_commands, 0u) << "nothing drained yet";
  for (int i = 0; i < 3; ++i) {
    wheel.PerTickBookkeeping();
  }
  counts = wheel.counts();
  EXPECT_EQ(counts.enqueued_starts, 5u);
  EXPECT_EQ(counts.drained_commands, 5u);
  EXPECT_EQ(counts.submit_retries, 0u) << "single-threaded: wait-free";
  EXPECT_EQ(log.size(), 5u);
}

TEST(MpscSubmitTest, RoundRobinAcrossShardsStillExact) {
  ShardedWheel wheel(4, 64, Generous());
  FireLog log;
  Capture(wheel, log);
  for (RequestId id = 0; id < 8; ++id) {
    ASSERT_TRUE(wheel.StartTimer(3, id).has_value());
  }
  EXPECT_EQ(wheel.outstanding(), 8u);
  EXPECT_EQ(wheel.AdvanceTo(3), 8u);
  EXPECT_EQ(log.size(), 8u);
  for (const auto& [id, when] : log) {
    EXPECT_EQ(when, 3u);
  }
}

// --- The NextExpiryHint / AdvanceTo ordering fix -----------------------------

TEST(MpscSubmitTest, HintCoversPendingSubmissions) {
  ShardedWheel wheel(4, 64, Generous());
  EXPECT_FALSE(wheel.NextExpiryHint().has_value());
  auto handle = wheel.StartTimer(7, 1);
  ASSERT_TRUE(handle.has_value());
  // The command has not drained — no inner wheel knows about the timer — yet
  // the hint must already cover it.
  auto hint = wheel.NextExpiryHint();
  ASSERT_TRUE(hint.has_value());
  EXPECT_LE(*hint, 7u);
}

TEST(MpscSubmitTest, StartEnqueuedBeforeAdvanceIsNeverSkipped) {
  ShardedWheel wheel(4, 64, Generous());
  FireLog log;
  Capture(wheel, log);
  // Enqueue, then immediately batch-advance far past the deadline in one call.
  // The batch path must drain first, register the timer at its exact deadline,
  // and dispatch it inside the batch — not discover the slot after crossing it.
  ASSERT_TRUE(wheel.StartTimer(7, 99).has_value());
  EXPECT_EQ(wheel.AdvanceTo(40), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair<RequestId, Tick>{99, 7}));
}

TEST(MpscSubmitTest, FastForwardToHintDispatchesThePendingTimer) {
  ShardedWheel wheel(4, 64, Generous());
  FireLog log;
  Capture(wheel, log);
  ASSERT_TRUE(wheel.StartTimer(7, 5).has_value());
  const auto hint = wheel.NextExpiryHint();
  ASSERT_TRUE(hint.has_value());
  // A driver sleeping until the hint then fast-forwarding must not lose the
  // still-queued start: FastForward delegates to the draining batch path.
  EXPECT_TRUE(wheel.FastForward(*hint));
  wheel.PerTickBookkeeping();  // cross the deadline tick itself if hint < 7
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 7u);
  EXPECT_EQ(wheel.outstanding(), 0u);
}

TEST(MpscSubmitTest, HintFallsBackToInnerWheelAfterDrain) {
  ShardedWheel wheel(1, 64, Generous());
  FireLog log;
  Capture(wheel, log);
  ASSERT_TRUE(wheel.StartTimer(5, 1).has_value());
  wheel.PerTickBookkeeping();  // drained: now the inner wheel owns the deadline
  auto hint = wheel.NextExpiryHint();
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, 5u);
  wheel.AdvanceTo(5);
  ASSERT_EQ(log.size(), 1u);
  // Everything fired and the pending hint was reset by the drain: no hint.
  EXPECT_FALSE(wheel.NextExpiryHint().has_value());
}

// A drain takes at most one ring's worth of commands. One that takes exactly
// that many and leaves the ring empty must still clear the pending-deadline
// hint; it used to keep it until a later drain found the ring empty.
TEST(MpscSubmitTest, DrainThatEmptiesAFullRingClearsTheHint) {
  SubmitOptions submit;
  submit.ring_capacity = 2;
  submit.registration_capacity = 4;
  submit.on_full = SubmitPolicy::kReject;
  ShardedWheel wheel(1, 64, submit);
  const StartResult a = wheel.StartTimer(20, 1);
  const StartResult b = wheel.StartTimer(20, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(wheel.DrainSubmissions(), 2u);
  EXPECT_EQ(wheel.StopTimer(a.value()), TimerError::kOk);
  EXPECT_EQ(wheel.StopTimer(b.value()), TimerError::kOk);
  EXPECT_EQ(wheel.DrainSubmissions(), 2u);
  EXPECT_EQ(wheel.outstanding(), 0u);
  EXPECT_FALSE(wheel.NextExpiryHint().has_value());
}

// A periodic start that lands while a tick runs drains a tick after the one
// its deadline was minted at. Due at the end of Tick, its first fire is its
// only one, since a lap after it would pass the end; the drain used to ask the
// inner wheel for that lap's cadence, which it refuses, and the process
// aborted. AdvanceShard steps the shard without moving the clock a producer
// reads, which opens that window on one thread.
TEST(MpscSubmitTest, PeriodicDrainedLateAtTheEndOfTickFiresOnce) {
  const Tick end = std::numeric_limits<Tick>::max();
  ShardedWheel wheel(1, 64, Generous());
  std::vector<std::pair<Tick, bool>> fires;
  wheel.set_expiry_handler(
      [&fires](RequestId, Tick when, bool last) { fires.emplace_back(when, last); });
  wheel.AdvanceTo(end - 10);
  EXPECT_EQ(wheel.AdvanceShard(0, end - 9), 0u);
  const StartResult started = wheel.StartPeriodic(10, 7);  // due at `end`
  ASSERT_TRUE(started.has_value());
  wheel.CommitNow(end - 9);
  wheel.AdvanceTo(end);
  EXPECT_EQ(fires, (std::vector<std::pair<Tick, bool>>{{end, true}}));
  EXPECT_EQ(wheel.outstanding(), 0u);
  EXPECT_EQ(wheel.StopTimer(started.value()), TimerError::kNoSuchTimer);
}

TEST(MpscSubmitTest, SpaceIncludesSubmissionStructures) {
  ShardedWheel wheel(2, 64, Generous());
  const std::size_t per_shard = HashedWheelUnsorted(64).Space().fixed_bytes +
                                ShardSubmitQueue(Generous()).FixedBytes();
  EXPECT_EQ(wheel.Space().fixed_bytes, 2 * per_shard)
      << "rings and registration tables must be accounted";
}

// The counting contract: counts() and outstanding() are exact right after
// every client call, with no tick or drain in between, whichever way the call
// ends. One shard, a ring of 4 and a table of 4, so each refusal is reached on
// purpose.
struct CallCounts {
  std::uint64_t start_calls = 0;
  std::uint64_t enqueued_starts = 0;
  std::uint64_t periodic_starts = 0;
  std::uint64_t stop_calls = 0;
  std::uint64_t restart_calls = 0;
  std::uint64_t restart_coalesced = 0;
  std::uint64_t drained_commands = 0;
  std::uint64_t outstanding = 0;
  bool operator==(const CallCounts&) const = default;
};

void PrintTo(const CallCounts& c, std::ostream* os) {
  *os << "{starts " << c.start_calls << ", enqueued " << c.enqueued_starts
      << ", periodic " << c.periodic_starts << ", stops " << c.stop_calls
      << ", restarts " << c.restart_calls << ", coalesced "
      << c.restart_coalesced << ", drained " << c.drained_commands
      << ", outstanding " << c.outstanding << "}";
}

CallCounts Read(const ShardedWheel& wheel) {
  const metrics::OpCounts counts = wheel.counts();
  return {counts.start_calls,       counts.enqueued_starts,
          counts.periodic_starts,   counts.stop_calls,
          counts.restart_calls,     counts.restart_coalesced,
          counts.drained_commands,  wheel.outstanding()};
}

TEST(MpscSubmitTest, CountsAreExactRightAfterEveryCall) {
  SubmitOptions submit;
  submit.ring_capacity = 4;
  submit.registration_capacity = 4;
  submit.on_full = SubmitPolicy::kReject;
  ShardedWheel wheel(1, 64, submit);
  FireLog log;
  Capture(wheel, log);
  wheel.PerTickBookkeeping();  // now() == 1, so a deadline can pass Tick's end
  EXPECT_EQ(Read(wheel), (CallCounts{0, 0, 0, 0, 0, 0, 0, 0}));

  // Ring: one-shot a, periodic p (4 ticks, 2 laps).
  const StartResult a = wheel.StartTimer(10, 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(Read(wheel), (CallCounts{1, 1, 0, 0, 0, 0, 0, 1})) << "one-shot start";
  const StartResult p = wheel.StartPeriodic(4, 2, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(Read(wheel), (CallCounts{2, 2, 1, 0, 0, 0, 0, 2})) << "periodic start";
  EXPECT_EQ(wheel.StartTimer(0, 3).error(), TimerError::kZeroInterval);
  EXPECT_EQ(Read(wheel), (CallCounts{3, 2, 1, 0, 0, 0, 0, 2})) << "zero interval";
  EXPECT_EQ(wheel.StartTimer(std::numeric_limits<Duration>::max(), 4).error(),
            TimerError::kIntervalOutOfRange);
  EXPECT_EQ(Read(wheel), (CallCounts{4, 2, 1, 0, 0, 0, 0, 2})) << "out of range";
  // Ring: a, p, restart of a (still pending, so it coalesces), b: full.
  EXPECT_EQ(wheel.RestartTimer(a.value(), 6), TimerError::kOk);
  EXPECT_EQ(Read(wheel), (CallCounts{4, 2, 1, 0, 1, 1, 0, 2})) << "coalesced restart";
  const StartResult b = wheel.StartTimer(10, 5);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(Read(wheel), (CallCounts{5, 3, 1, 0, 1, 1, 0, 3})) << "start filling the ring";
  EXPECT_EQ(wheel.StartTimer(10, 6).error(), TimerError::kNoCapacity);
  EXPECT_EQ(Read(wheel), (CallCounts{6, 3, 1, 0, 1, 1, 0, 3})) << "full ring";
  EXPECT_EQ(wheel.StopTimer(b.value()), TimerError::kOk);
  EXPECT_EQ(Read(wheel), (CallCounts{6, 3, 1, 1, 1, 1, 0, 2})) << "cancel, command dropped";
  EXPECT_EQ(wheel.StopTimer(b.value()), TimerError::kNoSuchTimer);
  EXPECT_EQ(Read(wheel), (CallCounts{6, 3, 1, 2, 1, 1, 0, 2})) << "stop miss";
  EXPECT_EQ(wheel.DrainSubmissions(), 4u);
  EXPECT_EQ(Read(wheel), (CallCounts{6, 3, 1, 2, 1, 1, 4, 2})) << "first drain";

  // Table: a, p, c, d: full.
  const StartResult c = wheel.StartTimer(20, 7);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(Read(wheel), (CallCounts{7, 4, 1, 2, 1, 1, 4, 3})) << "start c";
  const StartResult d = wheel.StartTimer(20, 8);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(Read(wheel), (CallCounts{8, 5, 1, 2, 1, 1, 4, 4})) << "start filling the table";
  EXPECT_EQ(wheel.StartTimer(20, 9).error(), TimerError::kNoCapacity);
  EXPECT_EQ(Read(wheel), (CallCounts{9, 5, 1, 2, 1, 1, 4, 4})) << "full table";
  EXPECT_EQ(wheel.StopTimer(c.value()), TimerError::kOk);
  EXPECT_EQ(Read(wheel), (CallCounts{9, 5, 1, 3, 1, 1, 4, 3})) << "cancel with its command";
  EXPECT_EQ(wheel.RestartTimer(a.value(), 8), TimerError::kOk);
  EXPECT_EQ(Read(wheel), (CallCounts{9, 5, 1, 3, 2, 1, 4, 3})) << "restart of a registered timer";
  EXPECT_EQ(wheel.DrainSubmissions(), 4u);
  EXPECT_EQ(Read(wheel), (CallCounts{9, 5, 1, 3, 2, 1, 8, 3})) << "second drain";

  // p fires at 5 and 9, a at 1 + 8, d at 1 + 20.
  EXPECT_EQ(wheel.AdvanceTo(40), 4u);
  EXPECT_EQ(Read(wheel), (CallCounts{9, 5, 1, 3, 2, 1, 8, 0})) << "after the fires";
  EXPECT_EQ(log, (FireLog{{2, 5}, {1, 9}, {2, 9}, {8, 21}}));
  const metrics::OpCounts counts = wheel.counts();
  EXPECT_EQ(counts.expiries, 3u);
  EXPECT_EQ(counts.periodic_fires, 1u);
}

}  // namespace
}  // namespace twheel::concurrent
