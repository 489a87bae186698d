// Shared enumeration of every TimerService implementation in the repository, for
// the model-checking suite: the seven schemes (with every variant the facade
// exposes), the Section 4.2 logic-simulation wheel (full and half rotation), the
// Appendix A.1 chip-assisted wheel, the global-lock wrapper, and the sharded wheel
// in one- and multi-shard configurations with roomy and with small submission
// rings. Configurations mirror
// tests/integration/differential_test.cc: spans comfortably exceed the driver's
// default max_interval of 300.

#ifndef TWHEEL_TESTS_VERIFY_ALL_SERVICES_H_
#define TWHEEL_TESTS_VERIFY_ALL_SERVICES_H_

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/concurrent/locked_service.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/timer_facility.h"
#include "src/hw/timer_chip.h"
#include "src/sim/tegas_wheel.h"

namespace twheel::verify_tests {

struct ServiceCase {
  std::string label;  // gtest-safe: alphanumerics and underscores only
  std::function<std::unique_ptr<TimerService>()> make;
  // LockedService dispatches expiry handlers while holding its global lock, so
  // in-handler re-entrancy would self-deadlock by documented design.
  bool handlers_may_reenter = true;
};

// Keeps gtest's parametrized test listings readable (label, not raw bytes).
inline void PrintTo(const ServiceCase& c, std::ostream* os) { *os << c.label; }

inline FacilityConfig VerifyConfig(SchemeId id) {
  FacilityConfig config;
  config.scheme = id;
  config.wheel_size = id == SchemeId::kScheme4BasicWheel ? 512 : 64;
  config.level_sizes = {16, 16, 16};
  return config;
}

inline std::vector<ServiceCase> AllServiceCases() {
  std::vector<ServiceCase> cases;
  for (SchemeId id : kAllSchemes) {
    std::string label = SchemeName(id);
    for (char& c : label) {
      if (c == '-') {
        c = '_';
      }
    }
    cases.push_back(
        {label, [id] { return MakeTimerService(VerifyConfig(id)); }, true});
  }
  // Outside the facade but on the same TimerServiceBase contract: both run every
  // restart and periodic lap in place, and the oracle holds them to it.
  cases.push_back({"tegas_wheel_full",
                   [] {
                     return std::make_unique<sim::TegasWheel>(
                         64, sim::RotatePolicy::kFullCycle);
                   },
                   true});
  cases.push_back({"tegas_wheel_half",
                   [] {
                     return std::make_unique<sim::TegasWheel>(
                         64, sim::RotatePolicy::kHalfCycle);
                   },
                   true});
  cases.push_back({"scheme6_chip_assisted",
                   [] { return std::make_unique<hw::ChipAssistedWheel>(64); },
                   true});
  cases.push_back({"locked_scheme6",
                   [] {
                     return std::make_unique<concurrent::LockedService>(
                         std::make_unique<HashedWheelUnsorted>(64));
                   },
                   /*handlers_may_reenter=*/false});
  cases.push_back({"locked_scheme2",
                   [] {
                     return std::make_unique<concurrent::LockedService>(
                         MakeTimerService(VerifyConfig(SchemeId::kScheme2SortedFront)));
                   },
                   /*handlers_may_reenter=*/false});
  // The sharded wheel, driven single-threaded: every command drains before the
  // clock moves, so it joins the full matrix, re-entrancy included. The policy
  // is kReject because nothing but the test's own ticks drains the rings (a
  // kSpin producer would wait forever), and the capacities never reject: the
  // oracle models no capacity limit, so a kNoCapacity on one side only would
  // (correctly) read as divergence. The sharded_mpsc rows' rings never wrap
  // within an episode; the plain sharded rows' 64-cell rings wrap many times.
  const auto sharded = [](std::size_t shards, std::size_t table_size,
                          std::size_t ring_capacity) {
    return [=]() -> std::unique_ptr<TimerService> {
      concurrent::SubmitOptions submit;
      submit.ring_capacity = ring_capacity;
      submit.registration_capacity = 8192;
      submit.on_full = concurrent::SubmitPolicy::kReject;
      return std::make_unique<concurrent::ShardedWheel>(shards, table_size,
                                                        submit);
    };
  };
  cases.push_back({"sharded_1x64", sharded(1, 64, 64), true});
  cases.push_back({"sharded_4x64", sharded(4, 64, 64), true});
  cases.push_back({"sharded_8x32", sharded(8, 32, 64), true});
  cases.push_back({"sharded_mpsc_1x64", sharded(1, 64, 8192), true});
  cases.push_back({"sharded_mpsc_4x64", sharded(4, 64, 8192), true});
  return cases;
}

}  // namespace twheel::verify_tests

#endif  // TWHEEL_TESTS_VERIFY_ALL_SERVICES_H_
