// Scale and endurance: the paper's closing claim is that "a large number of timers
// can be implemented efficiently", so the wheels must stay correct and allocation-
// stable at populations well beyond the unit tests' sizes.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/timer_facility.h"
#include "src/rng/rng.h"

namespace twheel {
namespace {

struct StressCase {
  SchemeId scheme;
  std::size_t timers;
};

class StressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(StressTest, LargePopulationChurnsAndDrainsExactly) {
  FacilityConfig config;
  config.scheme = GetParam().scheme;
  config.wheel_size = 16384;
  config.level_sizes = {256, 64, 64};
  auto service = MakeTimerService(config);

  std::uint64_t fired = 0;
  service->set_expiry_handler([&](RequestId, Tick, bool) { ++fired; });

  rng::Xoshiro256 gen(77);
  const std::size_t n = GetParam().timers;
  std::vector<TimerHandle> handles;
  handles.reserve(n);

  // Phase 1: mass arrival.
  for (RequestId id = 0; id < n; ++id) {
    auto result = service->StartTimer(1 + gen.NextBounded(16000), id);
    ASSERT_TRUE(result.has_value());
    handles.push_back(result.value());
  }
  ASSERT_EQ(service->outstanding(), n);

  // Phase 2: cancel a third, re-arm a sixth, interleaved with time.
  std::uint64_t cancelled = 0, rearmed = 0;
  for (std::size_t i = 0; i < n; i += 3) {
    if (service->StopTimer(handles[i]) == TimerError::kOk) {
      ++cancelled;
      if (i % 2 == 0) {
        auto result = service->StartTimer(1 + gen.NextBounded(16000), i);
        ASSERT_TRUE(result.has_value());
        ++rearmed;
      }
    }
    if (i % 1024 == 0) {
      service->PerTickBookkeeping();
    }
  }

  // Phase 3: drain completely.
  Tick guard = 0;
  while (service->outstanding() > 0) {
    service->PerTickBookkeeping();
    ASSERT_LT(++guard, 40000u) << "population failed to drain";
  }

  // Conservation: every start either fired or was cancelled.
  const std::uint64_t total_starts = n + rearmed;
  EXPECT_EQ(fired + cancelled, total_starts);
  EXPECT_EQ(service->counts().expiries, fired);
}

std::string StressName(const ::testing::TestParamInfo<StressCase>& info) {
  std::string name = SchemeName(info.param.scheme);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name + "_" + std::to_string(info.param.timers);
}

INSTANTIATE_TEST_SUITE_P(
    Populations, StressTest,
    ::testing::Values(StressCase{SchemeId::kScheme3Heap, 200000},
                      StressCase{SchemeId::kScheme3Avl, 100000},
                      StressCase{SchemeId::kScheme4BasicWheel, 200000},
                      StressCase{SchemeId::kScheme4HybridList, 100000},
                      StressCase{SchemeId::kScheme5HashedSorted, 100000},
                      StressCase{SchemeId::kScheme6HashedUnsorted, 200000},
                      StressCase{SchemeId::kScheme7Hierarchical, 200000}),
    StressName);

}  // namespace
}  // namespace twheel
