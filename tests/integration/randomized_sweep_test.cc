// Seed-sweep differential fuzzing: many random workload configurations, each run
// through every scheme (plus the TEGAS wheel) and compared against the predicted
// trace. Complements differential_test.cc's hand-picked cases with breadth — the
// workload parameters themselves are drawn from the seed.

#include <gtest/gtest.h>

#include <memory>

#include "src/baselines/sorted_list_timers.h"
#include "src/concurrent/locked_service.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/core/timer_facility.h"
#include "src/hw/timer_chip.h"
#include "src/rng/rng.h"
#include "src/sim/tegas_wheel.h"
#include "src/workload/workload.h"

namespace twheel {
namespace {

using workload::ArrivalKind;
using workload::IntervalKind;
using workload::WorkloadSpec;

WorkloadSpec SpecFromSeed(std::uint64_t seed) {
  rng::Xoshiro256 gen(seed * 7919 + 13);
  WorkloadSpec spec;
  spec.seed = seed;
  spec.arrivals = gen.NextBool(0.8) ? ArrivalKind::kPoisson : ArrivalKind::kPeriodic;
  spec.arrival_rate = 0.25 + gen.NextDouble() * 4.0;
  spec.arrival_gap = 1 + gen.NextBounded(4);
  switch (gen.NextBounded(5)) {
    case 0:
      spec.intervals = IntervalKind::kConstant;
      spec.interval_lo = 1 + gen.NextBounded(300);
      break;
    case 1:
      spec.intervals = IntervalKind::kUniform;
      spec.interval_lo = 1 + gen.NextBounded(50);
      spec.interval_hi = spec.interval_lo + gen.NextBounded(300);
      break;
    case 2:
      spec.intervals = IntervalKind::kExponential;
      spec.interval_mean = 1.0 + gen.NextDouble() * 150.0;
      break;
    case 3:
      spec.intervals = IntervalKind::kPareto;
      spec.interval_lo = 1 + gen.NextBounded(5);
      spec.pareto_alpha = 1.2 + gen.NextDouble();
      break;
    default:
      spec.intervals = IntervalKind::kGeometric;
      spec.interval_mean = 2.0 + gen.NextDouble() * 100.0;
      break;
  }
  spec.interval_cap = 400;  // all schemes configured to cover this range exactly
  spec.stop_fraction = gen.NextDouble() * 0.9;
  spec.measured_starts = 1500;
  return spec;
}

class RandomizedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedSweepTest, AllStructuresMatchPrediction) {
  const WorkloadSpec spec = SpecFromSeed(GetParam());
  const auto predicted = workload::PredictedTrace(spec);

  for (SchemeId id : kAllSchemes) {
    FacilityConfig config;
    config.scheme = id;
    config.wheel_size = id == SchemeId::kScheme4BasicWheel ? 512 : 32;
    config.level_sizes = {8, 8, 16};  // span 1024, max interval 896 >= 400
    auto service = MakeTimerService(config);
    auto result = workload::Run(*service, spec);
    EXPECT_EQ(result.starts_rejected, 0u) << SchemeName(id);
    EXPECT_EQ(workload::NormalizedTrace(result.trace), predicted)
        << SchemeName(id) << " diverged on seed " << GetParam();
  }

  for (sim::RotatePolicy policy :
       {sim::RotatePolicy::kFullCycle, sim::RotatePolicy::kHalfCycle}) {
    sim::TegasWheel wheel(32, policy);
    auto result = workload::Run(wheel, spec);
    EXPECT_EQ(workload::NormalizedTrace(result.trace), predicted)
        << wheel.name() << " diverged on seed " << GetParam();
  }

  // The wrappers and the hardware-assist model are TimerServices too; none may
  // alter observable behaviour.
  {
    hw::ChipAssistedWheel chip(32);
    auto result = workload::Run(chip, spec);
    EXPECT_EQ(workload::NormalizedTrace(result.trace), predicted)
        << "chip-assisted wheel diverged on seed " << GetParam();
  }
  {
    concurrent::LockedService locked(std::make_unique<SortedListTimers>());
    auto result = workload::Run(locked, spec);
    EXPECT_EQ(workload::NormalizedTrace(result.trace), predicted)
        << "locked wrapper diverged on seed " << GetParam();
  }
  {
    concurrent::ShardedWheel sharded(4, 32,
                                     {.ring_capacity = 8192,
                                      .registration_capacity = 8192,
                                      .on_full = concurrent::SubmitPolicy::kReject});
    auto result = workload::Run(sharded, spec);
    EXPECT_EQ(workload::NormalizedTrace(result.trace), predicted)
        << "sharded wheel diverged on seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweepTest, ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace twheel
