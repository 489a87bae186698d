// Scheme 8 — the Lawn store: one FIFO bucket per distinct TTL.
//
// The first post-paper scheme in this repository, after "Lawn: an Unbound Low
// Latency Timer Data Structure" (Bachar & Dolev; see PAPERS.md). The paper's
// Schemes 4-7 all pay for interval generality: a wheel bound (Scheme 4), hash
// chains with revolution counts (5/6), or hierarchical cascades (7). Lawn's
// observation is that protocol timers rarely need that generality — a TCP stack
// uses a handful of timeout *constants* (RTO, keepalive, TIME_WAIT, delayed-ACK)
// across millions of connections. Key the store by TTL instead of by expiry:
//
//   * One FIFO bucket per distinct TTL, created on first use.
//   * START_TIMER appends to its TTL's bucket — O(1), no range bound, no hash.
//   * Bucket-sorted invariant: every resident of bucket T was appended with the
//     same TTL at a non-decreasing clock, so expiry (= append time + T) is
//     non-decreasing front to back. The bucket HEAD is the bucket minimum.
//   * PER_TICK_BOOKKEEPING inspects only bucket heads: O(distinct TTLs) per
//     tick, independent of the number of live timers. With k TTL constants and
//     n connections that is O(k) against the hashed wheels' O(n/TableSize).
//   * STOP_TIMER / RESTART_TIMER unlink in O(1) via the intrusive back-pointer,
//     exactly like the wheels. A restart re-files at the (possibly different)
//     bucket for the new TTL; appending at the current clock preserves the
//     invariant.
//
// NextExpiryHint is the min over bucket heads — exact, O(distinct TTLs) — so
// batched AdvanceTo, sim::Simulator jumping, and TickerThread catch-up work
// unchanged: the clock hops head-to-head and never probes dead ticks.
//
// The unbounded-TTL caveat: the structure is O(1) only while the distinct-TTL
// population stays small. LawnOptions::max_distinct_ttls caps bucket creation;
// once the cap is hit, timers with NEW TTL values fall back to one shared
// rear-search sorted overflow list (the paper's Scheme 2 idiom) whose head
// participates in the tick scan like any bucket head. Correctness is unchanged
// — expiries stay exact — but starts landing in the overflow pay O(overflow
// population) comparisons, which is the documented price of exceeding the cap.
// Reduced precision (slop_bits, src/core/slop.h) quantizes effective intervals
// up to 2^slop_bits grains, collapsing near-miss TTLs into shared buckets: the
// ponyc precision-for-throughput trade, here also a cap-pressure valve.
//
// StartPeriodic re-arms on the expiry path with the same in-place relink as
// RestartTimer: the record moves to its period's bucket tail without touching
// the arena, so the handle and generation survive every lap.

#ifndef TWHEEL_SRC_LAWN_LAWN_TIMERS_H_
#define TWHEEL_SRC_LAWN_LAWN_TIMERS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "src/base/intrusive_list.h"
#include "src/core/slop.h"
#include "src/core/timer_service.h"

namespace twheel::lawn {

struct LawnOptions {
  // Maximum number of distinct-TTL buckets; 0 = unbounded. Starts whose
  // (quantized) TTL would create a bucket beyond the cap go to the shared
  // sorted overflow list instead — see the class comment.
  std::size_t max_distinct_ttls = 0;
  // Reduced precision: effective interval = QuantizeIntervalUp(interval,
  // slop_bits). 0 = exact.
  std::uint32_t slop_bits = 0;
  // Arena bound; 0 = unbounded.
  std::size_t max_timers = 0;
};

class LawnTimers final : public TimerServiceBase<LawnTimers> {
 public:
  explicit LawnTimers(LawnOptions options = {});

  ~LawnTimers() override;

  std::string_view name() const final { return "scheme8-lawn"; }

  std::uint32_t slop_bits() const { return slop_bits_; }
  // Buckets currently allocated (== distinct effective TTLs ever started,
  // bounded by max_distinct_ttls). Buckets are never reclaimed: a TTL seen once
  // is expected again — the protocol-constant assumption the scheme is for.
  std::size_t distinct_ttls() const { return buckets_.size(); }
  // Residents of the shared overflow list (cap exceeded). O(overflow length).
  std::size_t OverflowPopulationSlow() const { return overflow_.CountSlow(); }

  // No fixed arrays: space is one list head per distinct TTL plus the TTL->
  // bucket index. Per record: links (16) + expiry (8) + cookie (8) + bucket
  // index (4, padded to 8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    profile.essential_record_bytes = 40;
    profile.auxiliary_bytes =
        buckets_.size() * sizeof(Bucket) +
        index_of_ttl_.size() *
            (sizeof(std::pair<Duration, std::uint32_t>) + 2 * sizeof(void*));
    return profile;
  }

 private:
  struct Bucket {
    Duration ttl = 0;
    IntrusiveList<TimerRecord> list;
  };

  // home_slot value marking residence in the overflow list.
  static constexpr std::uint32_t kOverflowIndex = TimerRecord::kNoIndex;

  friend class TimerServiceBase<LawnTimers>;

  // Slop quantization; every TTL is admitted.
  TimerError Admit(Duration* interval) const {
    *interval = QuantizeIntervalUp(*interval, slop_bits_);
    return TimerError::kOk;
  }
  // File `rec` (interval/expiry already stamped) into its TTL's bucket,
  // creating the bucket if the cap allows, else into the sorted overflow list.
  // A restart re-files at the current clock, which keeps the destination
  // bucket's expiry order non-decreasing: every earlier resident of TTL bucket
  // T was appended at some tick <= now, so its expiry <= now + T.
  void Link(TimerRecord* rec);
  // O(1) via the intrusive back-pointer, bucket or overflow list alike.
  void Unlink(TimerRecord* rec) { rec->Unlink(); }
  void InsertOverflow(TimerRecord* rec);
  // Pop every due head at the (already advanced) current tick, in bucket-index
  // order then the overflow list — the dispatch order the batched paths must
  // reproduce exactly.
  std::size_t Visit();
  std::size_t DrainListHead(IntrusiveList<TimerRecord>& list);
  // The minimum over bucket heads (each head is its bucket's earliest expiry by
  // the bucket-sorted invariant) plus the overflow head. Exact, so it is also
  // NextExpiryHint; O(distinct TTLs), independent of population. Nothing in the
  // store depends on a cursor — buckets are keyed by TTL, not by time — so a
  // jump between heads is a clock assignment.
  std::optional<Tick> NextVisit() const;

  std::size_t max_distinct_ttls_;
  std::uint32_t slop_bits_;
  // deque: bucket references stay stable while expiry handlers create new
  // TTLs mid-drain (IntrusiveList is not movable, and a vector regrowth would
  // invalidate the list being walked).
  std::deque<Bucket> buckets_;
  std::unordered_map<Duration, std::uint32_t> index_of_ttl_;
  IntrusiveList<TimerRecord> overflow_;
};

}  // namespace twheel::lawn

extern template class twheel::TimerServiceBase<twheel::lawn::LawnTimers>;

#endif  // TWHEEL_SRC_LAWN_LAWN_TIMERS_H_
