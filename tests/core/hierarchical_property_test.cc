// Property sweeps for Scheme 7: across hierarchy geometries, migration policies,
// and randomized workloads, the wheel must deliver (a) exact expiry under full
// migration, (b) the paper's precision bounds under the Wick Nichols variants, and
// (c) sane structural accounting (migration counts, level residency).

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/hierarchical_wheel.h"
#include "src/rng/rng.h"

namespace twheel {
namespace {

struct GeometryCase {
  std::string label;
  std::vector<std::size_t> sizes;
};

// Names the geometry in each test ID ("paper_like {64, 60, 24}") instead of
// the parameter's bytes, which hold heap pointers that change between builds.
void PrintTo(const GeometryCase& geometry, std::ostream* os) {
  *os << geometry.label << " {";
  for (std::size_t i = 0; i < geometry.sizes.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << geometry.sizes[i];
  }
  *os << "}";
}

std::vector<GeometryCase> Geometries() {
  return {
      {"flat_two_level", {256, 16}},
      {"binary_byte", {2, 2, 2, 2, 2, 2, 2, 2}},  // extreme: 8 levels of 2
      {"paper_like", {64, 60, 24}},
      {"uniform_16", {16, 16, 16}},
      {"skewed_big_bottom", {1024, 4, 4}},
      {"skewed_big_top", {4, 4, 1024}},
  };
}

class HierarchicalPropertyTest : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(HierarchicalPropertyTest, FullMigrationIsExactUnderRandomChurn) {
  const auto& geometry = GetParam();
  HierarchicalWheel wheel(geometry.sizes);
  rng::Xoshiro256 gen(0xABCDEF);

  std::map<RequestId, Tick> expected;  // live timers -> exact expiry
  std::vector<std::pair<RequestId, TimerHandle>> live;
  RequestId next_id = 0;
  std::size_t mismatches = 0;

  wheel.set_expiry_handler([&](RequestId id, Tick when, bool) {
    auto it = expected.find(id);
    ASSERT_NE(it, expected.end()) << "unexpected expiry " << id;
    if (it->second != when) {
      ++mismatches;
    }
    expected.erase(it);
  });

  const Duration max_interval = wheel.max_interval();
  for (int step = 0; step < 20000; ++step) {
    std::uint64_t action = gen.NextBounded(10);
    if (action < 4) {
      Duration interval = 1 + gen.NextBounded(std::min<Duration>(max_interval, 100000));
      auto result = wheel.StartTimer(interval, next_id);
      ASSERT_TRUE(result.has_value());
      expected[next_id] = wheel.now() + interval;
      live.push_back({next_id, result.value()});
      ++next_id;
    } else if (action < 6 && !live.empty()) {
      std::size_t idx = gen.NextBounded(live.size());
      auto [id, handle] = live[idx];
      if (wheel.StopTimer(handle) == TimerError::kOk) {
        expected.erase(id);
      }
      live[idx] = live.back();
      live.pop_back();
    } else {
      wheel.AdvanceBy(1 + gen.NextBounded(16));
    }
  }
  EXPECT_EQ(mismatches, 0u) << geometry.label;
  // Drain: everything still expected must fire at its exact tick.
  wheel.AdvanceBy(max_interval + 1);
  EXPECT_TRUE(expected.empty()) << expected.size() << " timers never fired";
  EXPECT_EQ(mismatches, 0u);
}

TEST_P(HierarchicalPropertyTest, NoMigrationErrorBoundedByHalfGranularity) {
  const auto& geometry = GetParam();
  HierarchicalWheelOptions options;
  options.migration = MigrationPolicy::kNone;
  HierarchicalWheel wheel(geometry.sizes, options);
  rng::Xoshiro256 gen(0x5EED);

  std::map<RequestId, Tick> exact;
  std::map<RequestId, Duration> granted_bound;
  std::size_t fired = 0;
  wheel.set_expiry_handler([&](RequestId id, Tick when, bool) {
    ++fired;
    const Tick want = exact.at(id);
    const Duration bound = granted_bound.at(id);
    const Duration error = when > want ? when - want : want - when;
    // Nearest-slot rounding: error <= g/2 at the magnitude level, <= g'/2 if the
    // timer escalated one level (g' = next granularity). Assert the looser bound.
    EXPECT_LE(error, bound) << "timer " << id;
  });

  const Duration usable = std::min<Duration>(wheel.max_interval(), 50000);
  RequestId next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    Duration interval = 1 + gen.NextBounded(usable);
    // Magnitude level for this interval, then allow one escalation.
    std::size_t level = 0;
    while (level + 1 < wheel.num_levels() &&
           wheel.granularity(level + 1) <= interval) {
      ++level;
    }
    Duration bound = wheel.granularity(level) / 2;
    if (level + 1 < wheel.num_levels()) {
      bound = std::max(bound, wheel.granularity(level + 1) / 2);
    }
    auto result = wheel.StartTimer(interval, next_id);
    ASSERT_TRUE(result.has_value());
    exact[next_id] = wheel.now() + interval;
    granted_bound[next_id] = std::max<Duration>(bound, 0);
    ++next_id;
    wheel.AdvanceBy(1 + gen.NextBounded(32));
  }
  wheel.AdvanceBy(wheel.max_interval() + 1);
  EXPECT_EQ(fired, static_cast<std::size_t>(next_id));
  EXPECT_EQ(wheel.counts().migrations, 0u);
}

TEST_P(HierarchicalPropertyTest, SingleStepNeverLateAndErrorUnderAdjacentGranularity) {
  const auto& geometry = GetParam();
  HierarchicalWheelOptions options;
  options.migration = MigrationPolicy::kSingleStep;
  HierarchicalWheel wheel(geometry.sizes, options);
  rng::Xoshiro256 gen(0xFACE);

  std::map<RequestId, std::pair<Tick, Duration>> exact_and_bound;
  std::size_t fired = 0;
  wheel.set_expiry_handler([&](RequestId id, Tick when, bool) {
    ++fired;
    auto [want, bound] = exact_and_bound.at(id);
    ASSERT_LE(when, want) << "single-step must truncate, never overshoot";
    EXPECT_LT(want - when, std::max<Duration>(bound, 1)) << "timer " << id;
  });

  const Duration usable = std::min<Duration>(wheel.max_interval(), 50000);
  RequestId next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    Duration interval = 1 + gen.NextBounded(usable);
    auto result = wheel.StartTimer(interval, next_id);
    ASSERT_TRUE(result.has_value());
    // After at most one migration the timer rests one level under its insertion
    // level; the digit rule can insert as high as the level just containing the
    // whole expiry gap, so the residual error is < granularity(insert_level - 1).
    // Compute the insertion level exactly as the wheel would.
    std::size_t insert_level = 0;
    const Tick expiry = wheel.now() + interval;
    for (std::size_t level = wheel.num_levels(); level-- > 0;) {
      if (expiry / wheel.granularity(level) != wheel.now() / wheel.granularity(level)) {
        insert_level = level;
        break;
      }
    }
    Duration bound = insert_level == 0 ? 1 : wheel.granularity(insert_level - 1);
    exact_and_bound[next_id] = {expiry, bound};
    ++next_id;
    wheel.AdvanceBy(1 + gen.NextBounded(32));
  }
  wheel.AdvanceBy(wheel.max_interval() + 1);
  EXPECT_EQ(fired, static_cast<std::size_t>(next_id));
}

TEST_P(HierarchicalPropertyTest, MigrationsNeverExceedLevelsMinusOne) {
  const auto& geometry = GetParam();
  HierarchicalWheel wheel(geometry.sizes);
  rng::Xoshiro256 gen(0xBEEF);
  const Duration usable = std::min<Duration>(wheel.max_interval(), 100000);

  // Per-timer migration ceiling: measure one timer at a time.
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t before = wheel.counts().migrations;
    Duration interval = 1 + gen.NextBounded(usable);
    ASSERT_TRUE(wheel.StartTimer(interval, trial).has_value());
    wheel.AdvanceBy(interval);
    const std::uint64_t used = wheel.counts().migrations - before;
    EXPECT_LE(used, wheel.num_levels() - 1) << "interval " << interval;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, HierarchicalPropertyTest,
                         ::testing::ValuesIn(Geometries()),
                         [](const ::testing::TestParamInfo<GeometryCase>& param_info) {
                           return param_info.param.label;
                         });

}  // namespace
}  // namespace twheel
