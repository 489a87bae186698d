// Experiment sec6-burstiness: Section 6.1.2's sharpest claim.
//
// "Notice that every TableSize ticks we decrement once all timers that are still
// living. Thus for n timers we do n/TableSize work on average per tick ...
// [regardless of the hash]. If all n timers hash into the same bucket, then every
// TableSize ticks we do O(n) work, but for intermediate ticks we do O(1) work.
// Thus the hash distribution in Scheme 6 only controls the 'burstiness' (variance)
// of the latency of PER_TICK_BOOKKEEPING, and not the average latency."
//
// Rows: three hash qualities — well-spread intervals, all-one-bucket intervals
// (constant multiples of TableSize), and a 4-bucket cluster — with identical n.
// The mean ops/tick column must match across rows; variance, p99, and max must not.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/hashed_wheel_unsorted.h"
#include "src/metrics/histogram.h"
#include "src/metrics/running_stats.h"
#include "src/rng/rng.h"

int main() {
  using namespace twheel;

  constexpr std::size_t kTable = 256;
  constexpr std::size_t kTimers = 4096;  // n/M = 16
  constexpr Tick kMeasureTicks = 1 << 16;

  std::printf("== sec6-burstiness: hash quality moves variance, not mean (n=%zu, M=%zu) ==\n\n",
              kTimers, kTable);
  bench::Table table({"hash pattern", "mean ops/tick", "model n/M", "stddev", "p99", "max"});

  struct Pattern {
    const char* label;
    // Interval generator: re-arm intervals controlling the bucket distribution.
    Duration (*next)(rng::Xoshiro256&);
  };
  const Pattern patterns[] = {
      {"spread (uniform)",
       [](rng::Xoshiro256& g) { return Duration{1} + g.NextBounded(8 * kTable); }},
      {"one bucket (k*M)",
       [](rng::Xoshiro256& g) {
         return kTable * (1 + g.NextBounded(8));  // always slot (now + 0) of its bucket
       }},
      {"four buckets",
       [](rng::Xoshiro256& g) {
         return kTable * (1 + g.NextBounded(8)) + (g.NextBounded(4) * kTable / 4);
       }},
  };

  for (const Pattern& pattern : patterns) {
    HashedWheelUnsorted wheel(kTable);
    rng::Xoshiro256 gen(6);
    // Self-sustaining population: every expiry re-arms with the pattern's interval,
    // holding n constant forever.
    wheel.set_expiry_handler([&](RequestId id, Tick, bool) {
      (void)wheel.StartTimer(pattern.next(gen), id);
    });
    for (std::size_t i = 0; i < kTimers; ++i) {
      (void)wheel.StartTimer(pattern.next(gen), i);
    }
    // Warmup one full revolution, then measure.
    wheel.AdvanceBy(kTable * 4);

    metrics::RunningStats stats;
    metrics::Histogram hist;
    for (Tick t = 0; t < kMeasureTicks; ++t) {
      auto before = wheel.counts();
      wheel.PerTickBookkeeping();
      std::uint64_t work = (wheel.counts() - before).TickWork();
      stats.Add(static_cast<double>(work));
      hist.Add(work);
    }
    table.Row({pattern.label, bench::Fmt(stats.mean(), 2),
               bench::Fmt(static_cast<double>(kTimers) / kTable, 2),
               bench::Fmt(stats.stddev(), 2), bench::FmtU(hist.Quantile(0.99)),
               bench::FmtU(hist.Quantile(1.0))});
  }
  table.Print();
  std::printf("\nAll rows share the mean (n/M = %.1f); the one-bucket row concentrates an\n"
              "entire revolution's work into single ticks (max ~ n), exactly the\n"
              "variance-only effect the paper uses to justify the cheap AND hash.\n",
              static_cast<double>(kTimers) / kTable);
  return 0;
}
