// Pins the exact tick accounting of every TimerServiceBase scheme.
//
// The other suites prove the tick entry points correct: the oracle checks what
// fires and when, and advance_to_test checks that a batched AdvanceTo matches
// the per-tick loop. None of them holds the exact OpCounts a batched entry
// point leaves behind — slots_skipped, batch_advances, the probes a jump
// credits — so a refactor of the tick could move those figures unseen. This
// test runs one fixed seeded script on each scheme and compares the end state
// with values recorded from the implementation: all OpCounts fields, now(),
// and the fire list (its length and an FNV-1a digest of every (id, tick) in
// dispatch order).
//
// The script mixes one-shot and periodic starts, stops, restarts and
// in-handler starts, and drives the clock through all three entry points:
// runs of PerTickBookkeeping, AdvanceTo jumps that land one short of, on, and
// one past the scheme's wrap or rollover boundary plus longer jumps, and, where
// the scheme supports it, FastForward to NextExpiryHint() - 1.
//
// A mismatch prints the scheme's row as it should read in kPinned, so a change
// that moves a figure on purpose can re-record it — and must say why.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/timer_facility.h"
#include "src/core/timer_service.h"
#include "src/hw/timer_chip.h"
#include "src/metrics/op_counts.h"
#include "src/rng/rng.h"
#include "src/sim/tegas_wheel.h"

namespace twheel {
namespace {

#define TWHEEL_PIN_ONE(name) +1
constexpr std::size_t kFields = 0 TWHEEL_OP_COUNT_FIELDS(TWHEEL_PIN_ONE);
#undef TWHEEL_PIN_ONE

struct Pinned {
  const char* label;
  std::array<std::uint64_t, kFields> counts;
  Tick now;
  std::uint64_t fires;
  std::uint64_t fire_digest;
  std::uint64_t fast_forwards;  // FastForward calls that returned true
};

std::array<std::uint64_t, kFields> FieldsOf(const metrics::OpCounts& c) {
  return {
#define TWHEEL_PIN_FIELD(name) c.name,
      TWHEEL_OP_COUNT_FIELDS(TWHEEL_PIN_FIELD)
#undef TWHEEL_PIN_FIELD
  };
}

std::string FieldName(std::size_t i) {
  static const char* const kNames[] = {
#define TWHEEL_PIN_NAME(name) #name,
      TWHEEL_OP_COUNT_FIELDS(TWHEEL_PIN_NAME)
#undef TWHEEL_PIN_NAME
  };
  return kNames[i];
}

struct PinCase {
  std::string label;
  std::function<std::unique_ptr<TimerService>()> make;
  Duration max_start;  // longest interval the script draws
  Duration boundary;   // the wrap or rollover period the jumps straddle
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.label; }

std::vector<PinCase> AllPinCases() {
  std::vector<PinCase> cases;
  for (SchemeId id : kAllSchemes) {
    FacilityConfig config;
    config.scheme = id;
    config.wheel_size = 64;
    config.level_sizes = {16, 16, 16};
    config.lawn_max_distinct_ttls = 4;  // the random TTLs spill to overflow
    const bool basic = id == SchemeId::kScheme4BasicWheel;
    const bool hierarchical = id == SchemeId::kScheme7Hierarchical;
    cases.push_back({SchemeName(id), [config] { return MakeTimerService(config); },
                     basic ? Duration{63} : Duration{700},
                     hierarchical ? Duration{256} : Duration{64}});
    if (hierarchical) {
      for (MigrationPolicy policy :
           {MigrationPolicy::kNone, MigrationPolicy::kSingleStep}) {
        FacilityConfig variant = config;
        variant.migration = policy;
        cases.push_back({std::string(SchemeName(id)) +
                             (policy == MigrationPolicy::kNone ? "-none" : "-single"),
                         [variant] { return MakeTimerService(variant); }, 700, 256});
      }
    }
  }
  cases.push_back({"tegas-wheel-full",
                   [] { return std::make_unique<sim::TegasWheel>(64); }, 700, 64});
  cases.push_back({"tegas-wheel-half",
                   [] {
                     return std::make_unique<sim::TegasWheel>(64,
                                                              sim::RotatePolicy::kHalfCycle);
                   },
                   700, 64});
  cases.push_back({"scheme6-chip-assisted",
                   [] { return std::make_unique<hw::ChipAssistedWheel>(64); }, 700, 64});
  return cases;
}

// Recorded from the implementation; see the file comment before changing one.
// Field order is TWHEEL_OP_COUNT_FIELDS'.
constexpr Pinned kPinned[] = {
    {"scheme1-unordered",
     {558, 32, 2413, 510, 0, 95091, 558, 11, 1025, 0, 0, 0, 0, 0, 0, 0, 17, 17, 0, 19, 515, 515, 0, 0, 0},
     2413, 1025, 0xd966e28d89d6a4e9ull, 0},
    {"scheme2-sorted-front",
     {559, 32, 2440, 510, 0, 0, 559, 10, 1031, 22114, 0, 0, 0, 0, 0, 0, 17, 17, 0, 19, 521, 521, 0, 0, 0},
     2477, 1031, 0x2344b7a55b880eddull, 8},
    {"scheme2-sorted-rear",
     {559, 32, 2440, 510, 0, 0, 559, 10, 1031, 32281, 0, 0, 0, 0, 0, 0, 17, 17, 0, 19, 521, 521, 0, 0, 0},
     2477, 1031, 0x2344b7a55b880eddull, 8},
    {"scheme3-heap",
     {567, 32, 2440, 514, 0, 0, 567, 10, 1035, 12891, 0, 0, 0, 0, 0, 0, 18, 18, 0, 19, 521, 521, 0, 0, 0},
     2477, 1035, 0xaee2d4e25488ee8cull, 8},
    {"scheme3-bst",
     {567, 32, 2440, 514, 0, 0, 567, 10, 1035, 10506, 0, 0, 0, 0, 0, 0, 18, 18, 0, 19, 521, 521, 0, 0, 0},
     2477, 1035, 0xaee2d4e25488ee8cull, 8},
    {"scheme3-avl",
     {567, 32, 2440, 514, 0, 0, 567, 10, 1035, 9667, 0, 0, 0, 0, 0, 0, 18, 18, 0, 19, 521, 521, 0, 0, 0},
     2477, 1035, 0xaee2d4e25488ee8cull, 8},
    {"scheme3-leftist",
     {562, 32, 2413, 512, 0, 0, 562, 11, 1025, 11612, 0, 0, 0, 0, 0, 0, 18, 18, 0, 19, 513, 513, 0, 0, 0},
     2413, 1025, 0xe171ca594b186be5ull, 0},
    {"scheme4-basic-wheel",
     {486, 32, 1162, 452, 19, 0, 486, 4, 1071, 0, 0, 652, 33, 0, 0, 0, 9, 9, 0, 19, 619, 619, 0, 0, 0},
     1203, 1071, 0x4e2e8d0cc82da818ull, 8},
    {"scheme4-2-hybrid",
     {567, 32, 2440, 514, 196, 0, 567, 10, 1035, 7675, 0, 1631, 33, 0, 0, 0, 18, 18, 0, 19, 521, 521, 0, 0, 0},
     2477, 1035, 0x8870b1b477ee8e2full, 8},
    {"scheme5-hashed-sorted",
     {567, 32, 2440, 514, 17, 0, 567, 10, 1035, 2444, 0, 1115, 33, 0, 0, 0, 18, 18, 0, 19, 521, 521, 0, 0, 0},
     2477, 1035, 0xaee2d4e25488ee8cull, 8},
    {"scheme6-hashed-unsorted",
     {559, 32, 2440, 510, 17, 1961, 559, 10, 1031, 0, 0, 1144, 33, 0, 0, 0, 17, 17, 0, 19, 521, 521, 0, 0, 0},
     2477, 1031, 0xc9bc04bf88b2a05dull, 8},
    {"scheme7-hierarchical",
     {209, 32, 5546, 194, 338, 2143, 209, 4, 1190, 5210, 953, 4463, 33, 0, 0, 0, 6, 6, 0, 19, 996, 996, 0, 0, 0},
     5706, 1190, 0x1a92cb76c05ceb37ull, 8},
    {"scheme7-hierarchical-none",
     {316, 32, 5548, 295, 270, 1291, 316, 4, 1291, 2114, 0, 4957, 33, 0, 0, 0, 4, 4, 0, 19, 996, 996, 0, 0, 0},
     5709, 1291, 0xcb308a9ace0dd394ull, 8},
    {"scheme7-hierarchical-single",
     {219, 32, 5573, 205, 341, 1975, 219, 4, 1203, 2542, 772, 4598, 33, 0, 0, 0, 5, 5, 0, 19, 998, 998, 0, 0, 0},
     5706, 1203, 0xd8d752643ffdc655ull, 8},
    {"scheme8-lawn",
     {559, 32, 2440, 510, 3354, 1031, 559, 10, 1031, 25967, 0, 1642, 33, 0, 0, 0, 17, 17, 0, 19, 521, 521, 0, 0, 0},
     2477, 1031, 0xe2c38c4d028a3561ull, 8},
    {"tegas-wheel-full",
     {560, 32, 2413, 511, 1547, 1467, 560, 11, 1024, 0, 683, 0, 0, 0, 0, 0, 18, 18, 0, 19, 513, 513, 0, 0, 0},
     2413, 1024, 0x5f230bf4edf99fbaull, 0},
    {"tegas-wheel-half",
     {560, 32, 2413, 511, 1547, 2196, 560, 11, 1024, 0, 596, 0, 0, 0, 0, 0, 18, 18, 0, 19, 513, 513, 0, 0, 0},
     2413, 1024, 0x5f230bf4edf99fbaull, 0},
    {"scheme6-chip-assisted",
     {560, 32, 2413, 511, 0, 1936, 560, 11, 1026, 0, 0, 0, 0, 0, 0, 0, 17, 17, 0, 19, 515, 515, 0, 0, 0},
     2413, 1026, 0x9239b58340017998ull, 0},
};

struct Outcome {
  metrics::OpCounts counts;
  Tick now = 0;
  std::uint64_t fires = 0;
  std::uint64_t fire_digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  std::uint64_t fast_forwards = 0;
};

void Fold(std::uint64_t* digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (value >> (8 * byte)) & 0xff;
    *digest *= 0x100000001b3ull;  // FNV-1a prime
  }
}

Outcome RunScript(TimerService& s, Duration max_start, Duration boundary) {
  rng::Xoshiro256 gen(0x7ac4);
  Outcome out;
  std::vector<TimerHandle> handles;
  RequestId next_id = 1;
  // Half the draws come from a few protocol constants, so the Lawn store keeps
  // real buckets; the rest are uniform in [1, max_start].
  constexpr Duration kConstants[] = {7, 64, 100, 255};
  auto draw = [&] {
    if (gen.NextBounded(2) == 0) {
      return std::min<Duration>(kConstants[gen.NextBounded(4)], max_start);
    }
    return 1 + gen.NextBounded(max_start);
  };
  auto keep = [&](const StartResult& r) {
    if (r.has_value()) {
      handles.push_back(r.value());
    }
  };
  s.set_expiry_handler([&](RequestId id, Tick tick, bool) {
    ++out.fires;
    Fold(&out.fire_digest, id);
    Fold(&out.fire_digest, tick);
    // Every fifth cookie starts a fresh timer from inside the drain.
    if (id % 5 == 0) {
      keep(s.StartTimer(1 + id % max_start, next_id++));
    }
  });

  for (int round = 0; round < 32; ++round) {
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t kind = gen.NextBounded(10);
      if (kind < 2) {
        keep(s.StartPeriodic(draw(), next_id++,
                             kind == 0 ? TimerService::kRepeatForever : 3));
      } else {
        keep(s.StartTimer(draw(), next_id++));
      }
    }
    // Stop and restart earlier handles, live or stale.
    if (!handles.empty()) {
      (void)s.StopTimer(handles[gen.NextBounded(handles.size())]);
      (void)s.RestartTimer(handles[gen.NextBounded(handles.size())], draw());
    }

    switch (round % 4) {
      case 0: {
        const std::uint64_t ticks = 1 + gen.NextBounded(6);
        for (std::uint64_t t = 0; t < ticks; ++t) {
          s.PerTickBookkeeping();
        }
        break;
      }
      case 1: {
        // One short of, on, and one past the next boundary.
        const Tick edge = (s.now() / boundary + 1) * boundary;
        s.AdvanceTo(edge - 1);
        s.AdvanceTo(edge);
        s.AdvanceTo(edge + 1);
        break;
      }
      case 2:
        s.AdvanceTo(s.now() + gen.NextBounded(3 * boundary));
        break;
      case 3: {
        const std::optional<Tick> hint = s.NextExpiryHint();
        const Tick target = hint.has_value() ? *hint - 1 : s.now() + 5;
        if (target >= s.now() && s.FastForward(target)) {
          ++out.fast_forwards;
        }
        s.PerTickBookkeeping();
        break;
      }
    }
  }
  s.AdvanceTo(s.now() + 2 * max_start);

  out.counts = s.counts();
  out.now = s.now();
  return out;
}

std::string RowOf(const std::string& label, const Outcome& o) {
  std::ostringstream row;
  row << "    {\"" << label << "\",\n     {";
  const auto fields = FieldsOf(o.counts);
  for (std::size_t i = 0; i < kFields; ++i) {
    row << (i == 0 ? "" : ", ") << fields[i];
  }
  row << "},\n     " << o.now << ", " << o.fires << ", 0x" << std::hex
      << o.fire_digest << std::dec << "ull, " << o.fast_forwards << "},";
  return row.str();
}

class TickCountsPinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(TickCountsPinTest, ScriptEndsAtRecordedCounts) {
  const PinCase& c = GetParam();
  std::unique_ptr<TimerService> service = c.make();
  const Outcome got = RunScript(*service, c.max_start, c.boundary);

  // The script must reach the paths it claims to pin.
  EXPECT_GT(got.counts.periodic_fires, 0u);
  EXPECT_GT(got.counts.restart_calls, 0u);
  EXPECT_GT(got.counts.delete_unlink_ops, 0u);
  ASSERT_TRUE(service->StartTimer(1, 0).has_value());
  if (service->NextExpiryHint().has_value()) {
    EXPECT_GT(got.fast_forwards, 0u) << "a scheme with a hint never fast-forwarded";
  }

  const Pinned* pinned = nullptr;
  for (const Pinned& p : kPinned) {
    if (c.label == p.label) {
      pinned = &p;
    }
  }
  ASSERT_NE(pinned, nullptr) << "no recorded row; it would read:\n"
                             << RowOf(c.label, got);
  const auto fields = FieldsOf(got.counts);
  for (std::size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(fields[i], pinned->counts[i]) << FieldName(i);
  }
  EXPECT_EQ(got.now, pinned->now);
  EXPECT_EQ(got.fires, pinned->fires);
  EXPECT_EQ(got.fire_digest, pinned->fire_digest);
  EXPECT_EQ(got.fast_forwards, pinned->fast_forwards);
  if (HasFailure()) {
    ADD_FAILURE() << "the row now reads:\n" << RowOf(c.label, got);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TickCountsPinTest,
                         ::testing::ValuesIn(AllPinCases()),
                         [](const ::testing::TestParamInfo<PinCase>& param) {
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
