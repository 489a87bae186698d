// Schemes 5 and 6 (Section 6.1, Figure 9): hashed-wheel specifics — round counting
// at table-size boundaries, sorted vs unsorted bucket behaviour, and the per-tick
// work accounting behind the n/TableSize claim.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/hashed_wheel_sorted.h"
#include "src/core/hashed_wheel_unsorted.h"

namespace twheel {
namespace {

template <typename Wheel>
class HashedWheelTest : public ::testing::Test {};

using WheelTypes = ::testing::Types<HashedWheelSorted, HashedWheelUnsorted>;
TYPED_TEST_SUITE(HashedWheelTest, WheelTypes);

TYPED_TEST(HashedWheelTest, TableSizeBoundaryIntervalsExact) {
  // Intervals straddling multiples of the table size are where round/quotient
  // bookkeeping breaks if it is off by one.
  for (Duration interval : {Duration{15}, Duration{16}, Duration{17}, Duration{31},
                            Duration{32}, Duration{33}, Duration{64}, Duration{160},
                            Duration{161}}) {
    TypeParam wheel(16);
    std::vector<Tick> fired;
    wheel.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
    ASSERT_TRUE(wheel.StartTimer(interval, 1).has_value());
    wheel.AdvanceBy(interval - 1);
    EXPECT_TRUE(fired.empty()) << "interval " << interval << " fired early";
    wheel.PerTickBookkeeping();
    ASSERT_EQ(fired.size(), 1u) << "interval " << interval;
    EXPECT_EQ(fired[0], interval);
  }
}

TYPED_TEST(HashedWheelTest, BoundaryIntervalsExactFromUnalignedStart) {
  // Same boundaries, but with the cursor mid-revolution at start time.
  for (Tick offset : {Tick{1}, Tick{7}, Tick{15}, Tick{16}, Tick{23}}) {
    for (Duration interval : {Duration{16}, Duration{17}, Duration{32}, Duration{48}}) {
      TypeParam wheel(16);
      std::vector<Tick> fired;
      wheel.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
      wheel.AdvanceBy(offset);
      ASSERT_TRUE(wheel.StartTimer(interval, 1).has_value());
      wheel.AdvanceBy(interval);
      ASSERT_EQ(fired.size(), 1u) << "offset " << offset << " interval " << interval;
      EXPECT_EQ(fired[0], offset + interval);
    }
  }
}

TYPED_TEST(HashedWheelTest, ArbitrarilyLargeIntervalsSupported) {
  TypeParam wheel(32);
  std::vector<Tick> fired;
  wheel.set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
  const Duration big = 1000000;
  ASSERT_TRUE(wheel.StartTimer(big, 1).has_value());
  // Fast-forward in bulk; the timer must fire at exactly `big`.
  wheel.AdvanceBy(big - 1);
  EXPECT_TRUE(fired.empty());
  wheel.PerTickBookkeeping();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], big);
}

TEST(HashedWheelUnsortedTest, PerTickVisitsWholeBucket) {
  // Scheme 6 pays a decrement per bucket resident per visit, even for timers many
  // revolutions out — this is the n/TableSize average the paper computes.
  HashedWheelUnsorted wheel(16);
  // Three timers in the same bucket (intervals 16, 32, 48 from tick 0 share slot 0).
  for (RequestId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(wheel.StartTimer(16 * id, id).has_value());
  }
  auto before = wheel.counts();
  wheel.AdvanceBy(15);  // no visits to the occupied slot yet
  auto mid = wheel.counts() - before;
  EXPECT_EQ(mid.decrement_visits, 0u);
  EXPECT_EQ(mid.empty_slot_checks, 15u);

  wheel.PerTickBookkeeping();  // tick 16: visits the bucket, touches all 3
  auto after = wheel.counts() - before;
  EXPECT_EQ(after.decrement_visits, 3u);
  EXPECT_EQ(wheel.counts().expiries, 1u);
}

TEST(HashedWheelSortedTest, PerTickExaminesOnlyHead) {
  // Scheme 5's sorted buckets make PER_TICK_BOOKKEEPING O(1): one head comparison,
  // no matter how deep the bucket.
  HashedWheelSorted wheel(16);
  for (RequestId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(wheel.StartTimer(16 * id, id).has_value());
  }
  auto before = wheel.counts();
  wheel.AdvanceBy(16);  // visits the occupied slot once (15 empties + 1 occupied)
  auto delta = wheel.counts() - before;
  EXPECT_EQ(delta.empty_slot_checks, 15u);
  // Head check for the expiring timer plus one more to see the next head is not due:
  EXPECT_EQ(delta.comparisons, 2u);
  EXPECT_EQ(delta.decrement_visits, 0u);
  EXPECT_EQ(wheel.counts().expiries, 1u);
}

TEST(HashedWheelSortedTest, StartCostGrowsWithBucketDepth) {
  // Scheme 5's known weakness: START_TIMER's sorted insert scans the bucket. The
  // paper: "Although the worst case latency for START_TIMER is still O(n)..."
  HashedWheelSorted wheel(16);
  // Fill one bucket with 50 timers due ever later (all slot 0, increasing rounds).
  for (RequestId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(wheel.StartTimer(16 * id, id).has_value());
  }
  auto before = wheel.counts();
  // Insert at the very back of that bucket: must scan past all 50.
  ASSERT_TRUE(wheel.StartTimer(16 * 60, 99).has_value());
  auto delta = wheel.counts() - before;
  EXPECT_EQ(delta.comparisons, 50u);
}

TEST(HashedWheelUnsortedTest, StartCostConstantRegardlessOfBucketDepth) {
  HashedWheelUnsorted wheel(16);
  for (RequestId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(wheel.StartTimer(16 * id, id).has_value());
  }
  auto before = wheel.counts();
  ASSERT_TRUE(wheel.StartTimer(16 * 60, 99).has_value());
  auto delta = wheel.counts() - before;
  EXPECT_EQ(delta.comparisons, 0u);
  EXPECT_EQ(delta.insert_link_ops, 1u);
}

TEST(HashedWheelSortedTest, FifoAmongEqualExpiries) {
  HashedWheelSorted wheel(8);
  std::vector<RequestId> fired;
  wheel.set_expiry_handler([&](RequestId id, Tick, bool) { fired.push_back(id); });
  for (RequestId id = 0; id < 4; ++id) {
    ASSERT_TRUE(wheel.StartTimer(20, id).has_value());
  }
  wheel.AdvanceBy(20);
  EXPECT_EQ(fired, (std::vector<RequestId>{0, 1, 2, 3}));
}

TYPED_TEST(HashedWheelTest, StopFromDeepBucketIsConstantTime) {
  TypeParam wheel(16);
  std::vector<TimerHandle> handles;
  for (RequestId id = 0; id < 20; ++id) {
    auto r = wheel.StartTimer(16 * (id + 1), id);
    ASSERT_TRUE(r.has_value());
    handles.push_back(r.value());
  }
  auto before = wheel.counts();
  EXPECT_EQ(wheel.StopTimer(handles[10]), TimerError::kOk);
  auto delta = wheel.counts() - before;
  EXPECT_EQ(delta.comparisons, 0u);
  EXPECT_EQ(delta.delete_unlink_ops, 1u);
}

using HashedWheelDeathTest = ::testing::Test;

TEST(HashedWheelDeathTest, NonPowerOfTwoTableAborts) {
  EXPECT_DEATH(HashedWheelSorted wheel(12), "power of two");
  EXPECT_DEATH(HashedWheelUnsorted wheel(100), "power of two");
}

}  // namespace
}  // namespace twheel
