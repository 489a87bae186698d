// AVL-specific tests: the balance invariant under churn, immunity to the
// constant-interval degeneration that collapses the unbalanced BST, and the
// rotation overhead that makes balanced trees "more expensive" on average
// (Section 4.1.1 / Figure 6 note).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/baselines/avl_timers.h"
#include "src/baselines/bst_timers.h"
#include "src/rng/rng.h"

namespace twheel {
namespace {

TEST(AvlTimersTest, InvariantHoldsUnderChurn) {
  AvlTimers avl;
  rng::Xoshiro256 gen(17);
  std::vector<TimerHandle> live;
  RequestId next_id = 0;
  for (int step = 0; step < 5000; ++step) {
    std::uint64_t action = gen.NextBounded(10);
    if (action < 5) {
      auto result = avl.StartTimer(1 + gen.NextBounded(500), next_id++);
      ASSERT_TRUE(result.has_value());
      live.push_back(result.value());
    } else if (action < 8 && !live.empty()) {
      std::size_t idx = gen.NextBounded(live.size());
      (void)avl.StopTimer(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    } else {
      avl.AdvanceBy(1 + gen.NextBounded(8));
    }
    if (step % 64 == 0) {
      ASSERT_TRUE(avl.CheckAvlInvariant()) << "step " << step;
    }
  }
  ASSERT_TRUE(avl.CheckAvlInvariant());
}

TEST(AvlTimersTest, ConstantIntervalsDoNotDegenerate) {
  // The input that collapses BstTimers into a list keeps the AVL logarithmic.
  AvlTimers avl;
  BstTimers bst;
  constexpr std::size_t kN = 4096;
  for (RequestId id = 0; id < kN; ++id) {
    ASSERT_TRUE(avl.StartTimer(100000, id).has_value());
    ASSERT_TRUE(bst.StartTimer(100000, id).has_value());
  }
  EXPECT_EQ(bst.HeightSlow(), kN);                       // the degeneration
  EXPECT_LE(avl.HeightSlow(), 1.45 * std::log2(kN) + 2);  // AVL height bound
  ASSERT_TRUE(avl.CheckAvlInvariant());

  // And the next insert is O(log n), not O(n).
  auto before = avl.counts();
  ASSERT_TRUE(avl.StartTimer(100000, kN).has_value());
  EXPECT_LE((avl.counts() - before).comparisons, 20u);
}

TEST(AvlTimersTest, WorstCaseStartBoundedLogarithmically) {
  AvlTimers avl;
  rng::Xoshiro256 gen(18);
  std::uint64_t worst = 0;
  for (RequestId id = 0; id < 8192; ++id) {
    auto before = avl.counts().comparisons;
    ASSERT_TRUE(avl.StartTimer(1 + gen.NextBounded(1 << 30), id).has_value());
    worst = std::max(worst, avl.counts().comparisons - before);
  }
  // Height bound 1.44 log2(8192) ~= 19.
  EXPECT_LE(worst, 20u);
}

TEST(AvlTimersTest, DeletionsTriggerRebalancing) {
  // Figure 6: stop is O(log n) for balanced trees *because of rebalancing* — so
  // rebalancing must actually happen on deletes. Build a tree, delete one flank.
  AvlTimers avl;
  std::vector<TimerHandle> handles;
  for (RequestId id = 0; id < 1024; ++id) {
    auto result = avl.StartTimer(1 + id, id);  // sorted inserts: rotation-heavy
    ASSERT_TRUE(result.has_value());
    handles.push_back(result.value());
  }
  const std::uint64_t rotations_after_inserts = avl.rotations();
  EXPECT_GT(rotations_after_inserts, 0u);

  // Delete the early half; the remaining tree must stay balanced via rotations.
  for (std::size_t i = 0; i < 512; ++i) {
    ASSERT_EQ(avl.StopTimer(handles[i]), TimerError::kOk);
  }
  EXPECT_GT(avl.rotations(), rotations_after_inserts);
  ASSERT_TRUE(avl.CheckAvlInvariant());
  EXPECT_EQ(avl.outstanding(), 512u);
}

TEST(AvlTimersTest, ExpiryOrderFifoAmongEqual) {
  AvlTimers avl;
  std::vector<RequestId> fired;
  avl.set_expiry_handler([&](RequestId id, Tick, bool) { fired.push_back(id); });
  for (RequestId id = 0; id < 32; ++id) {
    ASSERT_TRUE(avl.StartTimer(5, id).has_value());
  }
  avl.AdvanceBy(5);
  ASSERT_EQ(fired.size(), 32u);
  for (RequestId id = 0; id < 32; ++id) {
    EXPECT_EQ(fired[id], id);
  }
}

TEST(AvlTimersTest, UnbalancedCheaperOnRandomInputs) {
  // Myhrhaug's observation, measured: on random inputs the plain BST does fewer
  // total operations (no rotations) despite its worse height constant.
  AvlTimers avl;
  BstTimers bst;
  rng::Xoshiro256 gen_a(19), gen_b(19);
  for (RequestId id = 0; id < 20000; ++id) {
    ASSERT_TRUE(avl.StartTimer(1 + gen_a.NextBounded(1 << 24), id).has_value());
    ASSERT_TRUE(bst.StartTimer(1 + gen_b.NextBounded(1 << 24), id).has_value());
  }
  // AVL pays comparisons plus one rotation-ish unit per insert on average.
  double avl_cost = static_cast<double>(avl.counts().comparisons + avl.rotations());
  double bst_cost = static_cast<double>(bst.counts().comparisons);
  EXPECT_GT(avl_cost, bst_cost * 0.6) << "sanity: costs are comparable";
  // The AVL's shallower tree does win comparisons, but rotations eat the margin:
  EXPECT_LT(avl.counts().comparisons, bst.counts().comparisons);
  EXPECT_GT(avl.rotations(), 0u);
}

}  // namespace
}  // namespace twheel
