// Concrete-type equivalence suite: every scheme is a final class, so a caller
// holding the scheme's own type (`Scheme&`, or the scheme by value) binds each
// routine at compile time, while TimerService& dispatches through the vtable.
// Both paths must be observationally identical.
//
// Two layers of proof:
//
//   1. Differential: every scheme, constructed directly, runs the seeded
//      oracle episodes with the FULL alphabet — starts, stops, stale pokes,
//      restarts (live/stale/zero), periodic registrations, in-handler
//      re-entrancy, and AdvanceTo jumps.
//
//   2. Lockstep twin: one instance driven through Scheme& and a
//      make_unique<Scheme> twin driven through TimerService& get one scripted
//      op stream; expiry traces (tick, id, in dispatch order), returned
//      handles/errors, now()/outstanding(), and the full OpCounts must match
//      EXACTLY — not just oracle-equivalent. Identical code driven identically
//      is deterministic, so byte-equality is the correct bar and catches even
//      divergences the oracle cannot see (e.g. intra-tick dispatch order,
//      op-count accounting).

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/avl_timers.h"
#include "src/baselines/bst_timers.h"
#include "src/baselines/heap_timers.h"
#include "src/baselines/leftist_heap_timers.h"
#include "src/baselines/sorted_list_timers.h"
#include "src/baselines/unordered_timers.h"
#include "src/core/basic_wheel.h"
#include "src/core/hashed_wheel_sorted.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/hierarchical_wheel.h"
#include "src/core/hybrid_wheel.h"
#include "src/hw/timer_chip.h"
#include "src/lawn/lawn_timers.h"
#include "src/rng/rng.h"
#include "src/sim/tegas_wheel.h"
#include "src/verify/differential_driver.h"

namespace twheel::verify {
namespace {

struct Fired {
  Tick tick;
  RequestId id;
  bool operator==(const Fired&) const = default;
};

struct LockstepResult {
  std::vector<Fired> trace;  // dispatch order preserved
  std::vector<std::pair<bool, TimerHandle>> starts;
  std::vector<TimerError> errors;
  Tick final_now = 0;
  std::size_t final_outstanding = 0;
  metrics::OpCounts counts;
};

// Drives `service` with the op stream drawn from `seed`. `Service` is the
// concrete scheme (every call bound by static type) or TimerService (every
// call through the vtable); both twins get the same seed, so they see
// byte-identical call sequences.
template <typename Service>
LockstepResult RunScript(Service& service, std::uint64_t seed) {
  LockstepResult r;
  service.set_expiry_handler(
      [&](RequestId id, Tick tick, bool) { r.trace.push_back({tick, id}); });
  rng::Xoshiro256 rng(seed);
  std::vector<TimerHandle> handles;
  auto random_handle = [&]() -> TimerHandle {
    if (handles.empty()) {
      return TimerHandle{};
    }
    return handles[rng.NextBounded(handles.size())];
  };
  for (int step = 0; step < 600; ++step) {
    const std::uint64_t roll = rng.NextBounded(100);
    if (roll < 35) {
      const Duration interval = 1 + static_cast<Duration>(rng.NextBounded(180));
      StartResult started = service.StartTimer(interval, step);
      r.starts.emplace_back(started.has_value(),
                            started.has_value() ? started.value() : TimerHandle{});
      if (started.has_value()) {
        handles.push_back(started.value());
      }
    } else if (roll < 45) {
      StartResult started =
          service.StartPeriodic(1 + static_cast<Duration>(rng.NextBounded(40)), step,
                                1 + rng.NextBounded(4));
      r.starts.emplace_back(started.has_value(),
                            started.has_value() ? started.value() : TimerHandle{});
      if (started.has_value()) {
        handles.push_back(started.value());
      }
    } else if (roll < 60) {
      r.errors.push_back(service.StopTimer(random_handle()));
    } else if (roll < 75) {
      r.errors.push_back(service.RestartTimer(
          random_handle(), static_cast<Duration>(rng.NextBounded(200))));
    } else if (roll < 90) {
      service.PerTickBookkeeping();
    } else {
      service.AdvanceTo(service.now() + 1 + rng.NextBounded(64));
    }
  }
  // Drain: max interval 200 plus periodic tails.
  service.AdvanceTo(service.now() + 512);
  r.final_now = service.now();
  r.final_outstanding = service.outstanding();
  r.counts = service.counts();
  return r;
}

// One scheme in both dispatch guises, built identically.
struct FacadeCase {
  std::string label;
  // The oracle episode of `options` on a directly constructed scheme.
  std::function<DriverReport(const DriverOptions&)> run_differential;
  // RunScript(seed) through Scheme& and through a TimerService& twin.
  std::function<std::pair<LockstepResult, LockstepResult>(std::uint64_t)>
      run_lockstep;
};

inline void PrintTo(const FacadeCase& c, std::ostream* os) { *os << c.label; }

constexpr std::size_t kLevels[] = {16, 16, 16};

template <typename Scheme, typename... Args>
FacadeCase Case(std::string label, Args... args) {
  return FacadeCase{
      std::move(label),
      [args...](const DriverOptions& options) {
        Scheme scheme(args...);
        return RunDifferential(scheme, options);
      },
      [args...](std::uint64_t seed) {
        Scheme direct(args...);
        std::unique_ptr<TimerService> twin = std::make_unique<Scheme>(args...);
        LockstepResult a = RunScript(direct, seed);
        return std::pair{std::move(a), RunScript(*twin, seed)};
      },
  };
}

std::vector<FacadeCase> AllFacadeCases() {
  lawn::LawnOptions lawn;
  lawn.max_distinct_ttls = 32;  // force overflow-annex traffic too
  return {
      Case<UnorderedTimers>("static_scheme1"),
      Case<SortedListTimers>("static_scheme2_front", SearchDirection::kFromFront),
      Case<SortedListTimers>("static_scheme2_rear", SearchDirection::kFromRear),
      Case<HeapTimers>("static_scheme3_heap"),
      Case<BstTimers>("static_scheme3_bst"),
      Case<AvlTimers>("static_scheme3_avl"),
      Case<LeftistHeapTimers>("static_scheme3_leftist"),
      Case<BasicWheel>("static_scheme4_basic", std::size_t{512}),
      Case<HybridWheel>("static_scheme4_hybrid", std::size_t{64}),
      Case<HashedWheelSorted>("static_scheme5", std::size_t{64}),
      Case<HashedWheelUnsorted>("static_scheme6", std::size_t{64}),
      Case<HierarchicalWheel>("static_scheme7",
                              std::span<const std::size_t>(kLevels)),
      Case<lawn::LawnTimers>("static_scheme8", lawn),
      Case<sim::TegasWheel>("tegas_wheel_full", std::size_t{64},
                            sim::RotatePolicy::kFullCycle),
      Case<sim::TegasWheel>("tegas_wheel_half", std::size_t{64},
                            sim::RotatePolicy::kHalfCycle),
      Case<hw::ChipAssistedWheel>("scheme6_chip_assisted", std::size_t{64}),
  };
}

class StaticFacadeTest : public ::testing::TestWithParam<FacadeCase> {};

// Layer 1: each directly constructed scheme through the oracle, full alphabet.
// These options deliberately light up every routine: one-shot and periodic
// starts, live/stale/zero restarts, in-handler re-entrancy, and batched
// AdvanceTo jumps with wheel-boundary pivots.
TEST_P(StaticFacadeTest, FullAlphabetEpisodesMatchOracle) {
  const FacadeCase& c = GetParam();
  std::size_t restarts = 0;
  std::size_t periodic = 0;
  std::size_t jumps = 0;
  for (std::uint64_t seed = 9100; seed < 9130; ++seed) {
    DriverOptions options;
    options.seed = seed;
    options.ticks = 96;
    options.max_interval = 200;
    options.stop_probability = 0.25;
    options.restart_probability = 0.25;
    options.restart_stale_probability = 0.3;
    options.restart_zero_probability = 0.1;
    options.periodic_probability = 0.1;
    options.rearm_probability = 0.1;
    options.stop_sibling_probability = 0.1;
    options.start_next_tick_probability = 0.1;
    options.self_poke_probability = 0.1;
    options.jump_probability = 0.1;
    options.jump_pivots = {63, 64, 65, 256};
    const DriverReport report = c.run_differential(options);
    ASSERT_TRUE(report.ok) << c.label << " seed " << seed << ": "
                           << report.divergence;
    restarts += report.restarts;
    periodic += report.periodic_fires;
    jumps += report.jumps;
  }
  EXPECT_GT(restarts, 0u) << c.label << ": restart leg never exercised";
  EXPECT_GT(periodic, 0u) << c.label << ": periodic leg never exercised";
  EXPECT_GT(jumps, 0u) << c.label << ": AdvanceTo leg never exercised";
}

TEST_P(StaticFacadeTest, LockstepTwinIsByteIdentical) {
  const FacadeCase& c = GetParam();
  for (std::uint64_t seed = 31; seed < 39; ++seed) {
    const auto [a, b] = c.run_lockstep(seed);
    ASSERT_EQ(a.trace.size(), b.trace.size()) << c.label << " seed " << seed;
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      ASSERT_EQ(a.trace[i], b.trace[i])
          << c.label << " seed " << seed << " divergence at dispatch " << i
          << ": (" << a.trace[i].tick << "," << a.trace[i].id << ") vs ("
          << b.trace[i].tick << "," << b.trace[i].id << ")";
    }
    EXPECT_EQ(a.starts, b.starts) << c.label << " seed " << seed;
    EXPECT_EQ(a.errors, b.errors) << c.label << " seed " << seed;
    EXPECT_EQ(a.final_now, b.final_now) << c.label << " seed " << seed;
    EXPECT_EQ(a.final_outstanding, b.final_outstanding)
        << c.label << " seed " << seed;
    // OpCounts is all-uint64 POD: byte equality pins even the accounting.
    EXPECT_EQ(std::memcmp(&a.counts, &b.counts, sizeof(metrics::OpCounts)), 0)
        << c.label << " seed " << seed << ": op accounting diverged";
    EXPECT_EQ(a.final_outstanding, 0u)
        << c.label << " seed " << seed << ": script did not drain";
  }
}

// A caller holding the concrete type reaches the routines and the scheme's own
// diagnostics (cursor(), …) on the same object.
TEST(StaticFacadeScheme, SchemeAccessorSeesForwardedState) {
  BasicWheel storage(std::size_t{64});
  BasicWheel& wheel = storage;
  ASSERT_TRUE(wheel.StartTimer(5, 1).has_value());
  EXPECT_EQ(wheel.outstanding(), 1u);
  EXPECT_EQ(wheel.cursor(), 0u);
  wheel.PerTickBookkeeping();
  EXPECT_EQ(wheel.cursor(), 1u);
  EXPECT_EQ(wheel.name(), "scheme4-basic-wheel");
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, StaticFacadeTest,
                         ::testing::ValuesIn(AllFacadeCases()),
                         [](const auto& param_info) { return param_info.param.label; });

}  // namespace
}  // namespace twheel::verify
