// Scheme 1 (Section 3.1) and Scheme 3 (Section 4.1.1) specifics: per-tick O(n)
// decrements, heap/BST/leftist invariants under randomized churn, the unbalanced-BST
// degeneration the paper warns about, and the lazy-cancellation memory growth of the
// simulation idiom.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "src/baselines/bst_timers.h"
#include "src/baselines/heap_timers.h"
#include "src/baselines/leftist_heap_timers.h"
#include "src/baselines/unordered_timers.h"
#include "src/rng/rng.h"

namespace twheel {
namespace {

TEST(UnorderedTimersTest, PerTickDecrementsEveryOutstandingTimer) {
  UnorderedTimers timers;
  for (RequestId id = 0; id < 100; ++id) {
    ASSERT_TRUE(timers.StartTimer(1000, id).has_value());
  }
  auto before = timers.counts();
  timers.AdvanceBy(10);
  auto delta = timers.counts() - before;
  EXPECT_EQ(delta.decrement_visits, 1000u);  // 100 timers x 10 ticks: Figure 4's O(n)
}

TEST(UnorderedTimersTest, StartAndStopAreConstantTime) {
  UnorderedTimers timers;
  for (RequestId id = 0; id < 1000; ++id) {
    ASSERT_TRUE(timers.StartTimer(500, id).has_value());
  }
  auto before = timers.counts();
  auto h = timers.StartTimer(500, 9999);
  ASSERT_TRUE(h.has_value());
  ASSERT_EQ(timers.StopTimer(h.value()), TimerError::kOk);
  auto delta = timers.counts() - before;
  EXPECT_EQ(delta.comparisons, 0u);
  EXPECT_EQ(delta.insert_link_ops, 1u);
  EXPECT_EQ(delta.delete_unlink_ops, 1u);
}

TEST(UnorderedTimersTest, CompareModeEquivalentToDecrementMode) {
  // Section 3.1: "instead of doing a DECREMENT, we can store the absolute time at
  // which timers expire and do a COMPARE" — observable behaviour must be identical.
  UnorderedTimers decrement(0, Scheme1Mode::kDecrement);
  UnorderedTimers compare(0, Scheme1Mode::kCompare);
  EXPECT_EQ(compare.name(), "scheme1-unordered-compare");

  std::vector<std::pair<Tick, RequestId>> fired_a, fired_b;
  decrement.set_expiry_handler([&](RequestId id, Tick t, bool) { fired_a.push_back({t, id}); });
  compare.set_expiry_handler([&](RequestId id, Tick t, bool) { fired_b.push_back({t, id}); });

  rng::Xoshiro256 gen(23);
  std::vector<TimerHandle> ha, hb;
  for (int step = 0; step < 2000; ++step) {
    std::uint64_t action = gen.NextBounded(8);
    if (action < 4) {
      Duration interval = 1 + gen.NextBounded(64);
      auto a = decrement.StartTimer(interval, step);
      auto b = compare.StartTimer(interval, step);
      ASSERT_TRUE(a.has_value() && b.has_value());
      ha.push_back(a.value());
      hb.push_back(b.value());
    } else if (action < 6 && !ha.empty()) {
      std::size_t idx = gen.NextBounded(ha.size());
      TimerError ea = decrement.StopTimer(ha[idx]);
      TimerError eb = compare.StopTimer(hb[idx]);
      EXPECT_EQ(ea, eb);
      ha[idx] = ha.back();
      hb[idx] = hb.back();
      ha.pop_back();
      hb.pop_back();
    } else {
      Duration ticks = 1 + gen.NextBounded(4);
      decrement.AdvanceBy(ticks);
      compare.AdvanceBy(ticks);
    }
  }
  decrement.AdvanceBy(70);
  compare.AdvanceBy(70);
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_EQ(decrement.counts().decrement_visits, compare.counts().decrement_visits)
      << "both modes do the same O(n) per-tick scan";
}

// ---- Randomized structural-invariant churn, shared across the tree schemes. ----

template <typename Scheme>
void ChurnAndCheck(Scheme& scheme, std::uint64_t seed,
                   const std::function<void(Scheme&)>& check) {
  rng::Xoshiro256 gen(seed);
  std::vector<TimerHandle> live;
  RequestId next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    std::uint64_t action = gen.NextBounded(10);
    if (action < 5) {  // start
      auto r = scheme.StartTimer(1 + gen.NextBounded(200), next_id++);
      ASSERT_TRUE(r.has_value());
      live.push_back(r.value());
    } else if (action < 8 && !live.empty()) {  // stop a random live handle
      std::size_t idx = gen.NextBounded(live.size());
      (void)scheme.StopTimer(live[idx]);  // may be stale if it already expired
      live[idx] = live.back();
      live.pop_back();
    } else {  // tick
      scheme.AdvanceBy(1 + gen.NextBounded(8));
    }
    if (step % 64 == 0) {
      check(scheme);
    }
  }
  check(scheme);
}

TEST(HeapTimersTest, InvariantHoldsUnderChurn) {
  HeapTimers heap;
  ChurnAndCheck<HeapTimers>(heap, 11, [](HeapTimers& h) {
    ASSERT_TRUE(h.CheckHeapInvariant());
  });
}

TEST(BstTimersTest, InvariantHoldsUnderChurn) {
  BstTimers bst;
  ChurnAndCheck<BstTimers>(bst, 12, [](BstTimers& b) {
    ASSERT_TRUE(b.CheckBstInvariant());
  });
}

TEST(LeftistHeapTimersTest, InvariantHoldsUnderChurn) {
  LeftistHeapTimers leftist;
  ChurnAndCheck<LeftistHeapTimers>(leftist, 13, [](LeftistHeapTimers& l) {
    ASSERT_TRUE(l.CheckLeftistInvariant());
  });
}

TEST(HeapTimersTest, StartCostIsLogarithmic) {
  // Sift-up comparisons for the n-th insert are bounded by log2(n) + 1.
  HeapTimers heap;
  rng::Xoshiro256 gen(14);
  for (RequestId id = 0; id < 4096; ++id) {
    auto before = heap.counts();
    ASSERT_TRUE(heap.StartTimer(1 + gen.NextBounded(100000), id).has_value());
    auto delta = heap.counts() - before;
    EXPECT_LE(delta.comparisons, std::ceil(std::log2(id + 2)) + 1) << "insert " << id;
  }
}

TEST(BstTimersTest, RandomIntervalsGiveLogHeight) {
  BstTimers bst;
  rng::Xoshiro256 gen(15);
  for (RequestId id = 0; id < 4096; ++id) {
    ASSERT_TRUE(bst.StartTimer(1 + gen.NextBounded(1 << 30), id).has_value());
  }
  // Expected height for a random BST is ~2.99 log2(n) ~= 36; allow slack.
  EXPECT_LE(bst.HeightSlow(), 60u);
}

TEST(BstTimersTest, ConstantIntervalsDegenerateToList) {
  // "Unfortunately, unbalanced binary trees easily degenerate into a linear list;
  // this can happen, for instance, if a set of equal timer intervals are inserted."
  BstTimers bst;
  constexpr std::size_t kN = 512;
  for (RequestId id = 0; id < kN; ++id) {
    ASSERT_TRUE(bst.StartTimer(10000, id).has_value());
  }
  EXPECT_EQ(bst.HeightSlow(), kN);  // a pure right spine

  // And the insertion cost is linear, not logarithmic.
  auto before = bst.counts();
  ASSERT_TRUE(bst.StartTimer(10000, kN).has_value());
  EXPECT_EQ((bst.counts() - before).comparisons, kN);
}

TEST(BstTimersTest, ExpiryDrainsInOrderAfterDegeneration) {
  BstTimers bst;
  std::vector<RequestId> fired;
  bst.set_expiry_handler([&](RequestId id, Tick, bool) { fired.push_back(id); });
  for (RequestId id = 0; id < 64; ++id) {
    ASSERT_TRUE(bst.StartTimer(5, id).has_value());
  }
  bst.AdvanceBy(5);
  ASSERT_EQ(fired.size(), 64u);
  for (RequestId id = 0; id < 64; ++id) {
    EXPECT_EQ(fired[id], id);  // (expiry, seq) keys keep FIFO order
  }
}

TEST(LeftistHeapTimersTest, LazyCancellationRetainsMemory) {
  // Section 4.2: "such an approach can cause the memory needs to grow unboundedly
  // beyond the number of timers outstanding at any time."
  LeftistHeapTimers leftist;
  std::vector<TimerHandle> handles;
  for (RequestId id = 0; id < 1000; ++id) {
    auto r = leftist.StartTimer(100000, id);
    ASSERT_TRUE(r.has_value());
    handles.push_back(r.value());
  }
  for (const auto& h : handles) {
    ASSERT_EQ(leftist.StopTimer(h), TimerError::kOk);
  }
  EXPECT_EQ(leftist.outstanding(), 0u);
  EXPECT_EQ(leftist.RetainedRecords(), 1000u);  // all still occupying memory

  // The corpses are reclaimed only as they surface at the root.
  leftist.AdvanceBy(1);
  EXPECT_EQ(leftist.RetainedRecords(), 0u);  // root-surfacing drained them all
}

TEST(LeftistHeapTimersTest, CancelledTimersNeverFire) {
  LeftistHeapTimers leftist;
  std::size_t fired = 0;
  leftist.set_expiry_handler([&](RequestId, Tick, bool) { ++fired; });
  auto a = leftist.StartTimer(5, 1);
  auto b = leftist.StartTimer(5, 2);
  auto c = leftist.StartTimer(5, 3);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  ASSERT_EQ(leftist.StopTimer(b.value()), TimerError::kOk);
  // Double-stop of a lazily-cancelled timer is still detected.
  EXPECT_EQ(leftist.StopTimer(b.value()), TimerError::kNoSuchTimer);
  leftist.AdvanceBy(5);
  EXPECT_EQ(fired, 2u);
}

TEST(LeftistHeapTimersTest, MergeKeepsFifoForEqualKeys) {
  LeftistHeapTimers leftist;
  std::vector<RequestId> fired;
  leftist.set_expiry_handler([&](RequestId id, Tick, bool) { fired.push_back(id); });
  for (RequestId id = 0; id < 8; ++id) {
    ASSERT_TRUE(leftist.StartTimer(3, id).has_value());
  }
  leftist.AdvanceBy(3);
  EXPECT_EQ(fired, (std::vector<RequestId>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace twheel
