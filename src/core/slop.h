// Slop-bits reduced precision — the ponyc runtime's knob, made verifiable.
//
// Pony's timer wheel keeps a per-wheel "slop" shift: deadlines are quantized to
// 2^slop-nanosecond grains ("No slop bits means trying for nanosecond resolution;
// 10 bits is approximately microsecond resolution; 20 bits approximately
// millisecond"). Coarser grains collapse nearby deadlines into shared buckets,
// trading fire-time precision for fewer distinct deadlines — which is throughput
// on any structure whose cost grows with deadline diversity (the Lawn store's
// bucket count, a hierarchy's migration traffic).
//
// The rule here differs from ponyc's raw right-shift in one deliberate way: the
// effective interval is rounded UP to the next multiple of 2^slop_bits. A timer
// may therefore fire late by at most 2^slop_bits - 1 ticks but NEVER early —
// firing before the requested deadline would break every client that uses a
// timer as a deadline guard, and every invariant in this repository's
// verification stack (no-early-fire is torture-tested). The bound is exact and
// closed under the quantization: a quantized interval re-quantizes to itself, so
// periodic cadences (period = the effective interval) re-arm with zero drift.
//
// Every consumer — lawn::LawnTimers, HierarchicalWheel, verify::OracleTimers,
// and the differential driver's expiry predictions — applies this one function,
// so "precision loss" is a differential-checked property, not a fuzzy tolerance:
// with equal slop_bits on both sides the schemes must still match the oracle
// tick-for-tick.

#ifndef TWHEEL_SRC_CORE_SLOP_H_
#define TWHEEL_SRC_CORE_SLOP_H_

#include <cstdint>
#include <limits>

#include "src/base/types.h"

namespace twheel {

// Smallest multiple of 2^slop_bits that is >= interval. Identity for
// slop_bits == 0 and for intervals already on the grain. Never returns less
// than `interval`, so a quantized timer can be late (< 2^slop_bits ticks) but
// never early. An interval within one grain of the end of Duration has no such
// multiple and saturates to the maximum Duration instead of wrapping to a
// small one; from tick 1 on, TimerServiceBase's deadline check refuses it.
// Zero intervals are the caller's problem: every scheme rejects them before
// quantizing, so kZeroInterval semantics are slop-independent.
inline Duration QuantizeIntervalUp(Duration interval, std::uint32_t slop_bits) {
  if (slop_bits == 0) {
    return interval;
  }
  const Duration grain_mask = (Duration{1} << slop_bits) - 1;
  if (interval > std::numeric_limits<Duration>::max() - grain_mask) {
    return std::numeric_limits<Duration>::max();
  }
  return (interval + grain_mask) & ~grain_mask;
}

}  // namespace twheel

#endif  // TWHEEL_SRC_CORE_SLOP_H_
