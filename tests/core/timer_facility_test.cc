// Tests for the factory facade: construction, naming, and configuration routing.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/basic_wheel.h"
#include "src/core/hierarchical_wheel.h"
#include "src/core/timer_facility.h"

namespace twheel {
namespace {

TEST(TimerFacilityTest, EveryIdConstructsAndNamesAgree) {
  std::set<std::string> names;
  for (SchemeId id : kAllSchemes) {
    FacilityConfig config;
    config.scheme = id;
    auto service = MakeTimerService(config);
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->name(), SchemeName(id));
    names.insert(std::string(service->name()));
  }
  EXPECT_EQ(names.size(), std::size(kAllSchemes)) << "names must be unique";
}

TEST(TimerFacilityTest, WheelSizeRouted) {
  FacilityConfig config;
  config.scheme = SchemeId::kScheme4BasicWheel;
  config.wheel_size = 128;
  auto service = MakeTimerService(config);
  EXPECT_TRUE(service->StartTimer(127, 1).has_value());
  auto over = service->StartTimer(128, 2);
  ASSERT_FALSE(over.has_value());
  EXPECT_EQ(over.error(), TimerError::kIntervalOutOfRange);
}

TEST(TimerFacilityTest, OverflowPolicyRouted) {
  FacilityConfig config;
  config.scheme = SchemeId::kScheme4BasicWheel;
  config.wheel_size = 128;
  config.overflow = OverflowPolicy::kClamp;
  auto service = MakeTimerService(config);
  EXPECT_TRUE(service->StartTimer(100000, 1).has_value());  // clamped, not rejected
}

TEST(TimerFacilityTest, LevelSizesRouted) {
  FacilityConfig config;
  config.scheme = SchemeId::kScheme7Hierarchical;
  config.level_sizes = {8, 8};
  auto service = MakeTimerService(config);
  // Span 64, top granularity 8 -> max interval 56.
  EXPECT_TRUE(service->StartTimer(56, 1).has_value());
  EXPECT_FALSE(service->StartTimer(57, 2).has_value());
}

TEST(TimerFacilityTest, MigrationPolicyRouted) {
  FacilityConfig config;
  config.scheme = SchemeId::kScheme7Hierarchical;
  config.level_sizes = {16, 16};
  config.migration = MigrationPolicy::kNone;
  auto service = MakeTimerService(config);
  std::vector<Tick> fired;
  service->set_expiry_handler([&](RequestId, Tick when, bool) { fired.push_back(when); });
  // 100 ticks from an unaligned now: no-migration mode rounds to the minute level.
  service->AdvanceBy(3);
  ASSERT_TRUE(service->StartTimer(100, 1).has_value());
  service->AdvanceBy(200);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(service->counts().migrations, 0u);
  EXPECT_NE(fired[0], 103u) << "rounding should have moved the fire tick off-exact";
}

TEST(TimerFacilityTest, MaxTimersRoutedToEveryScheme) {
  for (SchemeId id : kAllSchemes) {
    FacilityConfig config;
    config.scheme = id;
    config.max_timers = 2;
    auto service = MakeTimerService(config);
    ASSERT_TRUE(service->StartTimer(10, 1).has_value()) << SchemeName(id);
    ASSERT_TRUE(service->StartTimer(10, 2).has_value()) << SchemeName(id);
    auto third = service->StartTimer(10, 3);
    ASSERT_FALSE(third.has_value()) << SchemeName(id);
    EXPECT_EQ(third.error(), TimerError::kNoCapacity) << SchemeName(id);
  }
}

TEST(TimerFacilityTest, SchemeNamesAreKebabStable) {
  EXPECT_STREQ(SchemeName(SchemeId::kScheme1Unordered), "scheme1-unordered");
  EXPECT_STREQ(SchemeName(SchemeId::kScheme6HashedUnsorted), "scheme6-hashed-unsorted");
  EXPECT_STREQ(SchemeName(SchemeId::kScheme7Hierarchical), "scheme7-hierarchical");
}

}  // namespace
}  // namespace twheel
