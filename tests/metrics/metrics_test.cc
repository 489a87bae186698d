// Unit tests for op counts, running stats, the log-linear histogram, and the
// Section 7 VAX cost model.

#include <gtest/gtest.h>

#include <cmath>

#include "src/metrics/histogram.h"
#include "src/metrics/op_counts.h"
#include "src/metrics/running_stats.h"
#include "src/metrics/vax_cost.h"
#include "src/rng/rng.h"

namespace twheel::metrics {
namespace {

TEST(OpCountsTest, AccumulateAndDiff) {
  OpCounts a;
  a.start_calls = 10;
  a.comparisons = 100;
  a.empty_slot_checks = 7;
  OpCounts b;
  b.start_calls = 3;
  b.comparisons = 40;
  b.migrations = 2;

  OpCounts sum = a;
  sum += b;
  EXPECT_EQ(sum.start_calls, 13u);
  EXPECT_EQ(sum.comparisons, 140u);
  EXPECT_EQ(sum.migrations, 2u);

  OpCounts diff = sum - b;
  EXPECT_EQ(diff.start_calls, a.start_calls);
  EXPECT_EQ(diff.comparisons, a.comparisons);
  EXPECT_EQ(diff.migrations, 0u);
}

TEST(OpCountsTest, TickWorkSumsBookkeepingFields) {
  OpCounts c;
  c.empty_slot_checks = 1;
  c.decrement_visits = 2;
  c.expiry_dispatches = 3;
  c.migrations = 4;
  c.comparisons = 100;  // not bookkeeping work
  EXPECT_EQ(c.TickWork(), 10u);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(5.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, ExactRegionIsExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 31u);
  EXPECT_EQ(h.max(), 31u);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  h.Add(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(HistogramTest, QuantileRelativeErrorBounded) {
  Histogram h;
  rng::Xoshiro256 g(1);
  for (int i = 0; i < 100000; ++i) {
    h.Add(g.NextBounded(1 << 20));
  }
  // Median of uniform [0, 2^20) is ~2^19; bucket error is ~3%.
  double median = static_cast<double>(h.Quantile(0.5));
  EXPECT_NEAR(median, 524288.0, 524288.0 * 0.05);
}

TEST(HistogramTest, LargeValuesLandInBoundedBuckets) {
  Histogram h;
  for (std::uint64_t v : {1ULL << 32, (1ULL << 40) + 12345, (1ULL << 62)}) {
    h.Add(v);
    std::uint64_t q = h.Quantile(1.0);
    EXPECT_GE(q, v);
    EXPECT_LE(static_cast<double>(q - v), static_cast<double>(v) * 0.04);
    h.Reset();
  }
}

TEST(HistogramTest, QuantilesMonotone) {
  Histogram h;
  rng::Xoshiro256 g(2);
  for (int i = 0; i < 10000; ++i) {
    h.Add(g.NextBounded(100000));
  }
  std::uint64_t prev = 0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    std::uint64_t v = h.Quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(VaxCostTest, PaperConstantsReproduceSection7Formula) {
  // "The average cost per tick is 4 + 15 * n/TableSize": one skip per tick plus,
  // per expiring timer per table scan, decrement (6) + expire (9) = 15.
  VaxCostModel model;
  OpCounts c;
  c.ticks = 256;              // one full scan of a 256-slot table
  c.empty_slot_checks = 200;  // slots that were empty
  c.decrement_visits = 100;   // n = 100 timers each touched once per scan
  c.expiry_dispatches = 100;  // worst case: all of them expire during the scan
  double per_tick = model.PerTick(c);
  // 200 skips cost 4 each; occupied-slot visits are not separately charged a skip,
  // so measured per-tick is slightly below the closed form's uniform "+4".
  double predicted = VaxCostModel::PredictedPerTickScheme6(100, 256);
  EXPECT_NEAR(per_tick, predicted, 1.0);
}

TEST(VaxCostTest, TotalWeightsAllFields) {
  VaxCostModel model;
  OpCounts c;
  c.insert_link_ops = 2;
  c.delete_unlink_ops = 3;
  c.empty_slot_checks = 5;
  c.decrement_visits = 7;
  c.expiry_dispatches = 11;
  c.comparisons = 13;
  c.restart_relink_ops = 17;
  EXPECT_DOUBLE_EQ(model.Total(c), 2 * 13.0 + 3 * 7.0 + 5 * 4.0 + 7 * 6.0 + 11 * 9.0 +
                                       13.0 + 17 * (7.0 + 13.0));
}

}  // namespace
}  // namespace twheel::metrics
