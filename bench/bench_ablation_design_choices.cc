// Ablations over the design parameters the paper leaves to the implementer:
//
//   (a) Scheme 6 table size — the memory/per-tick-work trade ("it is difficult to
//       justify 2^32 words of memory to implement 32 bit timers", Section 5; the
//       n/TableSize law prices every intermediate point).
//   (b) Scheme 7 geometry — how slot budget is split across levels changes both the
//       migration count and the START_TIMER level search.
//   (c) Scheme 7 migration policy — full/single-step/none trade bookkeeping ops
//       against expiry precision (Section 6.2's Wick Nichols discussion).
//
// Each table holds the workload fixed and sweeps one knob.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/core/hierarchical_wheel.h"
#include "src/metrics/running_stats.h"
#include "src/workload/workload.h"

namespace {

using namespace twheel;

workload::WorkloadSpec FixedWorkload(std::uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.intervals = workload::IntervalKind::kExponential;
  spec.interval_mean = 2048.0;
  spec.interval_cap = 30000;
  spec.arrival_rate = 1024.0 / 2048.0;  // ~1024 outstanding
  spec.stop_fraction = 0.3;
  spec.warmup_starts = 6000;
  spec.measured_starts = 25000;
  return spec;
}

void AblateTableSize() {
  std::printf("-- (a) Scheme 6 table size (n ~= 1024 outstanding) --\n");
  bench::Table table({"TableSize", "slots bytes*", "ops/tick", "p99 tick", "model n/M"});
  for (std::size_t size : {64, 256, 1024, 4096, 16384}) {
    HashedWheelUnsorted wheel(size);
    auto result = workload::Run(wheel, FixedWorkload(1));
    table.Row({bench::FmtU(size), bench::FmtU(size * 16),
               bench::Fmt(result.tick_work.mean(), 3),
               bench::FmtU(result.tick_work_hist.Quantile(0.99)),
               bench::Fmt(result.outstanding.mean() / static_cast<double>(size), 3)});
  }
  table.Print();
  std::printf("(* two pointers per slot head) Per-tick work falls as 1/M until the\n"
              "empty-slot walk dominates; past M ~ n the extra memory buys little.\n\n");
}

void AblateGeometry() {
  std::printf("-- (b) Scheme 7 level geometry (identical span ~2^18, n ~= 1024) --\n");
  bench::Table table({"levels", "slots", "ops/tick", "migrations/timer", "cmp/start"});
  struct Geometry {
    const char* label;
    std::vector<std::size_t> sizes;
  };
  // All spans within [2^18, 2^18.2] so the workload fits each identically.
  const Geometry geometries[] = {
      {"2 x 512", {512, 512}},
      {"3 x 64", {64, 64, 64}},
      {"4 x 23", {23, 23, 23, 23}},
      {"6 x 8", {8, 8, 8, 8, 8, 8}},
  };
  for (const auto& geometry : geometries) {
    HierarchicalWheel wheel(geometry.sizes);
    auto result = workload::Run(wheel, FixedWorkload(2));
    std::size_t slots = 0;
    for (std::size_t s : geometry.sizes) {
      slots += s;
    }
    table.Row({geometry.label, bench::FmtU(slots), bench::Fmt(result.tick_work.mean(), 3),
               bench::Fmt(static_cast<double>(result.measured_ops.migrations) /
                              static_cast<double>(result.starts_issued),
                          2),
               bench::Fmt(result.start_comparisons.mean(), 2)});
  }
  table.Print();
  std::printf("More levels -> fewer slots but more migrations and a longer level\n"
              "search; the paper's \"2 <= m <= 5 say\" window is where both stay small.\n\n");
}

void AblateMigrationPolicy() {
  std::printf("-- (c) Scheme 7 migration policy (levels 64/64/64, n ~= 1024) --\n");
  bench::Table table({"policy", "ops/tick", "migrations/timer", "mean |error|", "max |error|"});
  struct Policy {
    const char* label;
    MigrationPolicy policy;
  };
  const Policy policies[] = {
      {"full (exact)", MigrationPolicy::kFull},
      {"single-step", MigrationPolicy::kSingleStep},
      {"none (rounded)", MigrationPolicy::kNone},
  };
  for (const auto& p : policies) {
    HierarchicalWheelOptions options;
    options.migration = p.policy;
    HierarchicalWheel wheel(std::vector<std::size_t>{64, 64, 64}, options);

    // Measure expiry error directly: request ids encode the exact expiry.
    metrics::RunningStats error;
    wheel.set_expiry_handler([&](RequestId id, Tick when, bool) {
      const Tick exact = id;  // id == start + interval, set below
      error.Add(static_cast<double>(when > exact ? when - exact : exact - when));
    });
    rng::Xoshiro256 gen(33);
    rng::ExponentialInterval dist(2048.0);
    metrics::OpCounts before = wheel.counts();
    std::size_t started = 0;
    for (Tick t = 0; t < 60000; ++t) {
      if (gen.NextBool(0.5)) {
        Duration interval = dist.Draw(gen);
        if (interval > 30000) {
          interval = 30000;
        }
        (void)wheel.StartTimer(interval, wheel.now() + interval);
        ++started;
      }
      wheel.PerTickBookkeeping();
    }
    wheel.AdvanceBy(40000);
    metrics::OpCounts delta = wheel.counts() - before;
    table.Row({p.label,
               bench::Fmt(static_cast<double>(delta.TickWork()) /
                              static_cast<double>(delta.ticks),
                          3),
               bench::Fmt(static_cast<double>(delta.migrations) /
                              static_cast<double>(started),
                          2),
               bench::Fmt(error.mean(), 1), bench::Fmt(error.max(), 0)});
  }
  table.Print();
  std::printf("Dropping migrations cuts bookkeeping at the price of expiry error\n"
              "bounded by the insertion level's granularity (\"a loss in precision of\n"
              "up to 50%%\"); single-step sits between, as the paper suggests.\n");
}

}  // namespace

int main() {
  std::printf("== ablations: implementation knobs the paper parameterizes ==\n\n");
  AblateTableSize();
  AblateGeometry();
  AblateMigrationPolicy();
  return 0;
}
