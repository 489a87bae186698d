// NextExpiryHint exactness under random churn, for every scheme.
//
// The hint is the load-bearing primitive behind both time-flow accelerators:
// sim::Simulator jumps straight to the hinted tick, and TickerThread catch-up
// trusts it to bound a batch. A hint that is ever LATER than the true next
// expiry silently skips dispatches; one that is too early only costs work. This
// property test pins the strong form — equality with the oracle's ordered-map
// minimum — on every scheme that claims the capability, through the full
// mutation alphabet: starts, stops, restarts, finite periodics, single ticks,
// and AdvanceTo jumps (half of them aimed exactly AT the hinted tick, the
// simulator's usage pattern).
//
// For the Lawn store this is precisely the min-over-bucket-heads invariant:
// each per-TTL FIFO bucket is expiry-sorted by construction (appends at
// non-decreasing now with a fixed TTL), so the store-wide minimum must be the
// min over bucket heads plus the overflow head — any bucket whose head is not
// its true minimum diverges from the oracle here within one round.
//
// Schemes 1 (unordered list) and 3-leftist don't implement the capability and
// must answer nullopt forever; everyone else must match the oracle exactly
// whenever it answers at all, and must answer whenever timers are outstanding.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/timer_facility.h"
#include "src/rng/rng.h"
#include "src/verify/oracle.h"

namespace twheel {
namespace {

bool SchemeImplementsHint(SchemeId id) {
  return id != SchemeId::kScheme1Unordered && id != SchemeId::kScheme3Leftist;
}

struct HintCase {
  std::string label;
  SchemeId scheme;
  std::uint64_t seed;
};

void PrintTo(const HintCase& c, std::ostream* os) { *os << c.label; }

std::vector<HintCase> AllHintCases() {
  std::vector<HintCase> cases;
  for (SchemeId id : kAllSchemes) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      cases.push_back({std::string(SchemeName(id)) + "_s" + std::to_string(seed),
                       id, seed});
    }
  }
  return cases;
}

class NextExpiryHintPropertyTest : public ::testing::TestWithParam<HintCase> {};

TEST_P(NextExpiryHintPropertyTest, HintMatchesOracleUnderChurn) {
  const HintCase& c = GetParam();
  FacilityConfig config;
  config.scheme = c.scheme;
  config.wheel_size = 512;
  config.level_sizes = {16, 16, 16};
  auto sut = MakeTimerService(config);
  verify::OracleTimers oracle;

  // Fired ids accumulate here; one-shot entries are retired after each time
  // step. Periodic entries are retired lazily, when a later stop finds the
  // handle stale on both sides.
  std::vector<RequestId> sut_fired;
  std::vector<RequestId> oracle_fired;
  sut->set_expiry_handler(
      [&sut_fired](RequestId id, Tick, bool) { sut_fired.push_back(id); });
  oracle.set_expiry_handler(
      [&oracle_fired](RequestId id, Tick, bool) { oracle_fired.push_back(id); });

  struct Pair {
    TimerHandle sut;
    TimerHandle oracle;
    bool periodic = false;
  };
  std::unordered_map<RequestId, Pair> live;
  std::vector<RequestId> ids;  // registry keys, for random victim selection

  rng::Xoshiro256 rng(0x41A7 + c.seed);
  RequestId next_id = 1;
  const Duration kMaxInterval = 300;  // within every configured span

  const auto check_hint = [&](const char* where) {
    const std::optional<Tick> got = sut->NextExpiryHint();
    const std::optional<Tick> want = oracle.NextExpiryHint();
    if (!SchemeImplementsHint(c.scheme)) {
      ASSERT_FALSE(got.has_value())
          << c.label << " " << where << ": hint from a scheme without the capability";
      return;
    }
    ASSERT_EQ(got.has_value(), want.has_value())
        << c.label << " " << where << " at tick " << sut->now();
    if (want.has_value()) {
      ASSERT_EQ(*got, *want)
          << c.label << " " << where << " at tick " << sut->now()
          << ": hint is not the exact minimum";
    }
  };

  for (int round = 0; round < 400; ++round) {
    // Mutations: a couple of starts, then each alphabet letter by coin flip.
    const std::size_t starts = 1 + rng.NextBounded(2);
    for (std::size_t i = 0; i < starts; ++i) {
      const RequestId id = next_id++;
      const Duration interval = 1 + rng.NextBounded(kMaxInterval);
      StartResult rs = sut->StartTimer(interval, id);
      StartResult ro = oracle.StartTimer(interval, id);
      ASSERT_EQ(rs.has_value(), ro.has_value()) << c.label;
      if (rs.has_value()) {
        live.emplace(id, Pair{rs.value(), ro.value(), false});
        ids.push_back(id);
      }
      ASSERT_NO_FATAL_FAILURE(check_hint("after start"));
    }
    if (rng.NextBool(0.15)) {
      const RequestId id = next_id++;
      const Duration period = 1 + rng.NextBounded(64);
      const std::uint64_t repeats = 1 + rng.NextBounded(4);
      StartResult rs = sut->StartPeriodic(period, id, repeats);
      StartResult ro = oracle.StartPeriodic(period, id, repeats);
      ASSERT_EQ(rs.has_value(), ro.has_value()) << c.label;
      if (rs.has_value()) {
        live.emplace(id, Pair{rs.value(), ro.value(), true});
        ids.push_back(id);
      }
      ASSERT_NO_FATAL_FAILURE(check_hint("after start_periodic"));
    }
    if (rng.NextBool(0.3) && !ids.empty()) {
      const std::size_t at = rng.NextBounded(ids.size());
      const RequestId victim = ids[at];
      const Pair p = live.find(victim)->second;
      const TimerError rs = sut->StopTimer(p.sut);
      const TimerError ro = oracle.StopTimer(p.oracle);
      ASSERT_EQ(rs, ro) << c.label << ": stop of id " << victim;
      // kOk: genuinely cancelled. kNoSuchTimer: the registry entry was stale
      // (already fired); either way it is dead now — drop it.
      live.erase(victim);
      ids[at] = ids.back();
      ids.pop_back();
      ASSERT_NO_FATAL_FAILURE(check_hint("after stop"));
    }
    if (rng.NextBool(0.2) && !ids.empty()) {
      const std::size_t at = rng.NextBounded(ids.size());
      const RequestId victim = ids[at];
      const Pair p = live.find(victim)->second;
      const Duration interval = 1 + rng.NextBounded(kMaxInterval);
      const TimerError rs = sut->RestartTimer(p.sut, interval);
      const TimerError ro = oracle.RestartTimer(p.oracle, interval);
      ASSERT_EQ(rs, ro) << c.label << ": restart of id " << victim;
      if (rs == TimerError::kNoSuchTimer) {
        live.erase(victim);
        ids[at] = ids.back();
        ids.pop_back();
      }
      ASSERT_NO_FATAL_FAILURE(check_hint("after restart"));
    }

    // Time flow: mostly single ticks; sometimes a jump, half of those aimed
    // exactly at the hinted tick (the Simulator's pattern — land ON the next
    // event), the rest at a random nearby target.
    sut_fired.clear();
    oracle_fired.clear();
    if (rng.NextBool(0.25)) {
      Tick target = sut->now() + 1 + rng.NextBounded(32);
      const std::optional<Tick> hint = oracle.NextExpiryHint();
      if (hint.has_value() && *hint > sut->now() && rng.NextBool(0.5)) {
        target = *hint;
      }
      const std::size_t ns = sut->AdvanceTo(target);
      const std::size_t no = oracle.AdvanceTo(target);
      ASSERT_EQ(ns, no) << c.label << ": jump to " << target;
    } else {
      const std::size_t ns = sut->PerTickBookkeeping();
      const std::size_t no = oracle.PerTickBookkeeping();
      ASSERT_EQ(ns, no) << c.label << " at tick " << sut->now();
    }
    ASSERT_EQ(sut->now(), oracle.now()) << c.label;
    std::sort(sut_fired.begin(), sut_fired.end());
    std::sort(oracle_fired.begin(), oracle_fired.end());
    ASSERT_EQ(sut_fired, oracle_fired) << c.label << " at tick " << sut->now();
    for (RequestId id : sut_fired) {
      auto it = live.find(id);
      if (it != live.end() && !it->second.periodic) {
        live.erase(it);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          if (ids[i] == id) {
            ids[i] = ids.back();
            ids.pop_back();
            break;
          }
        }
      }
    }
    ASSERT_EQ(sut->outstanding(), oracle.outstanding())
        << c.label << " at tick " << sut->now();
    ASSERT_NO_FATAL_FAILURE(check_hint("after time step"));
    // The capability's liveness half: outstanding timers MUST produce a hint
    // (the oracle always answers; a hinting scheme may not go blank).
    if (SchemeImplementsHint(c.scheme) && oracle.outstanding() > 0) {
      ASSERT_TRUE(sut->NextExpiryHint().has_value())
          << c.label << ": blank hint with " << oracle.outstanding()
          << " outstanding at tick " << sut->now();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, NextExpiryHintPropertyTest,
                         ::testing::ValuesIn(AllHintCases()),
                         [](const ::testing::TestParamInfo<HintCase>& param) {
                           std::string name = param.param.label;
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace twheel
