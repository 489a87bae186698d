// Scheme 7 — hierarchical timing wheels (Section 6.2, Figures 10 and 11).
//
// "To represent all possible timer values within a 32 bit range, we do not need a
// 2^32 element array. Instead we can use a number of arrays, each of different
// granularity" — the paper's example being 100-day / 24-hour / 60-minute / 60-second
// arrays: 244 slots instead of 8.64 million.
//
// Level L has size_L slots of granularity g_L = size_0 * ... * size_{L-1} ticks
// (g_0 = 1); the hierarchy spans prod(size_i) ticks. START_TIMER selects the level
// the way the paper's worked example does — "we insert the timer into a list
// beginning 1 (11 - 10 hours) element ahead of the current hour pointer in the hour
// array": the *highest* level whose unit digit of the absolute expiry differs from
// the current time's (O(m) to find, m = number of levels), filing the record in slot
// (E/g_L) mod size_L. The sub-g_L remainder of the expiry stays implicit in the
// record's absolute expiry_tick (the paper "store[s] the remainder in this
// location"). When a level-L slot is visited, each record either expires (no
// remainder) or *migrates* to the next level whose digit still differs, exactly like
// the 15-minute-15-second remainder moving from the hour array to the minute array
// between Figures 10 and 11. A timer migrates at most m-1 times, which is the
// c(7)*m bound of the paper's Scheme 6 vs Scheme 7 cost comparison. (Selecting the
// lowest *sufficient* level instead would halve migrations for boundary-crossing
// short timers, but it is not what the paper describes; see DESIGN.md.)
//
// Where the paper keeps "a 60 second timer ... used to update the minute array",
// this implementation advances the minute/hour/day cursors directly whenever
// now mod g_L == 0. The two formulations do identical work at identical ticks; ours
// just does not thread the maintenance timers through the client-visible arrays.
//
// MigrationPolicy implements the precision trade-offs of Section 6.2:
//  * kFull        — migrate level by level; expiry is exact (default).
//  * kNone        — Wick Nichols' suggestion: each timer gets a mode by magnitude
//                   (the coarsest level whose unit fits in the interval) and fires
//                   at the slot visit nearest its exact expiry, with no migration;
//                   the error is at most half that granularity — the paper's "loss
//                   in precision of up to 50%".
//  * kSingleStep  — "improve the precision by allowing just one migration between
//                   adjacent lists": one hop to level L-1, then expire at that
//                   level's visit; error bounded by g_{L-1}.

#ifndef TWHEEL_SRC_CORE_HIERARCHICAL_WHEEL_H_
#define TWHEEL_SRC_CORE_HIERARCHICAL_WHEEL_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/intrusive_list.h"
#include "src/core/slop.h"
#include "src/core/timer_service.h"

namespace twheel {

enum class MigrationPolicy : std::uint8_t {
  kFull,
  kNone,
  kSingleStep,
};

struct HierarchicalWheelOptions {
  OverflowPolicy overflow = OverflowPolicy::kReject;
  MigrationPolicy migration = MigrationPolicy::kFull;
  std::size_t max_timers = 0;
  // Slop-bits reduced precision (src/core/slop.h, after ponyc): effective
  // intervals round UP to multiples of 2^slop_bits before range validation and
  // placement, so a timer fires late by < 2^slop_bits ticks but never early.
  // Coarse grains reduce deadline diversity — fewer level boundaries crossed,
  // fewer migrations — the precision-for-throughput knob of Section 6.2's
  // migration policies, but with a differential-checkable exact bound.
  // Orthogonal to MigrationPolicy (quantization happens before placement).
  std::uint32_t slop_bits = 0;
};

class HierarchicalWheel final : public TimerServiceBase<HierarchicalWheel> {
 public:
  // `level_sizes` lists slot counts from finest (granularity 1 tick) to coarsest,
  // e.g. {60, 60, 24, 100} for the paper's second/minute/hour/day example. Between
  // 2 and 8 levels, each of size >= 2.
  HierarchicalWheel(std::span<const std::size_t> level_sizes,
                    HierarchicalWheelOptions options = {});

  ~HierarchicalWheel() override;

  // kFull: exact — earliest absolute expiry among residents (bitmap-confined O(n)
  // scan), since its NextVisit may only migrate. kNone: exact — NextVisit, the
  // earliest occupied-slot visit, fires everything in that slot. kSingleStep:
  // NextVisit again, a conservative lower bound (the earliest occupied visit may
  // migrate rather than fire); never later than the true next expiry, which is
  // what jump-drivers need.
  std::optional<Tick> NextExpiryHint() const final;
  std::string_view name() const final { return "scheme7-hierarchical"; }

  std::size_t num_levels() const { return levels_.size(); }
  std::uint32_t slop_bits() const { return slop_bits_; }
  Duration granularity(std::size_t level) const { return levels_[level].granularity; }
  // Longest startable interval. One coarsest-granularity unit is reserved: when the
  // current time sits just before a top-level unit boundary, an interval above
  // span - g_top could need a slot a full top-level revolution away.
  Duration max_interval() const { return span_ - levels_.back().granularity; }

  // Diagnostics: total records currently filed at `level` (O(slots + records)).
  std::size_t LevelPopulationSlow(std::size_t level) const;

  // Fixed: the sum of the level arrays plus one occupancy bitmap per level —
  // "instead of 100 * 24 * 60 * 60 = 8.64 million locations ... we need only
  // 100 + 24 + 60 + 60 = 244 locations". Per record: links (16) + expiry (8) +
  // cookie (8) + level byte (padded to 8).
  SpaceProfile Space() const final {
    SpaceProfile profile;
    for (const Level& level : levels_) {
      profile.fixed_bytes += level.size * sizeof(IntrusiveList<TimerRecord>) +
                             OccupancyBitmap::BytesFor(level.size);
    }
    profile.essential_record_bytes = 40;
    return profile;
  }

 private:
  struct Level {
    std::size_t size = 0;
    Duration granularity = 0;
    // Power-of-two fast path for the digit arithmetic on the start/restart and
    // advance hot paths: the common configurations use power-of-two level
    // sizes, making every granularity (a product of finer sizes) a power of
    // two as well, so unit extraction and slot reduction become a shift and a
    // mask instead of two 64-bit divisions. unit_shift is meaningful only when
    // pow2_granularity, slot_mask only when pow2_size; odd-sized hierarchies
    // (60/60/24/100) keep the division path.
    std::uint8_t unit_shift = 0;
    bool pow2_granularity = false;
    std::uint64_t slot_mask = 0;
    bool pow2_size = false;
    std::vector<IntrusiveList<TimerRecord>> slots;
    OccupancyBitmap occupancy{1};  // re-sized in the constructor

    // The level-L unit digit of an absolute tick (t / granularity).
    std::uint64_t UnitOf(Tick t) const {
      return pow2_granularity ? t >> unit_shift : t / granularity;
    }
    // t mod granularity: zero exactly at this level's cursor-advance ticks.
    Tick OffsetInUnit(Tick t) const {
      return pow2_granularity ? (t & (granularity - 1)) : t % granularity;
    }
    // unit mod size: the slot a unit digit files into.
    std::size_t SlotOf(std::uint64_t unit) const {
      return static_cast<std::size_t>(pow2_size ? (unit & slot_mask)
                                                : unit % size);
    }
  };

  friend class TimerServiceBase<HierarchicalWheel>;

  // Slop quantization, then the range check against max_interval() (reject,
  // or clamp under OverflowPolicy::kClamp).
  TimerError Admit(Duration* interval) const {
    *interval = QuantizeIntervalUp(*interval, slop_bits_);
    if (*interval > max_interval()) {
      if (overflow_ == OverflowPolicy::kReject) {
        return TimerError::kIntervalOutOfRange;
      }
      *interval = max_interval();
    }
    return TimerError::kOk;
  }
  // A fresh placement — the O(m) digit rule, or no-migration rounding, against
  // the current time, with the migration allowance reset — and an O(1) unlink
  // from the record's (level, slot); both keep the occupancy bitmaps in step.
  void Link(TimerRecord* rec) {
    rec->migrations_done = 0;
    if (migration_ == MigrationPolicy::kNone) {
      InsertNoMigration(rec);
    } else {
      Insert(rec);
    }
  }
  void Unlink(TimerRecord* rec) {
    rec->Unlink();
    Level& lv = levels_[rec->level];
    if (lv.slots[rec->home_slot].empty()) {
      lv.occupancy.Clear(rec->home_slot);
    }
  }

  // Highest level whose unit digit of `expiry` differs from the current time's
  // (the paper's insertion rule). Counts one comparison per level examined.
  std::size_t FindLevel(Tick expiry);
  // File `rec` (expiry already fixed) at FindLevel(expiry).
  void Insert(TimerRecord* rec);
  // MigrationPolicy::kNone placement: magnitude-selected level, nearest slot visit.
  void InsertNoMigration(TimerRecord* rec);
  // File `rec` into `slot_index` of `level`, maintaining the occupancy bit.
  void FileAt(std::size_t level, std::size_t slot_index, TimerRecord* rec);
  // Process one visited slot at `level`; returns expiries dispatched.
  std::size_t VisitSlot(std::size_t level, std::size_t slot_index);
  // The visits the per-tick loop performs at the current (already advanced) tick:
  // level 0, then each coarser level whose granularity divides now.
  std::size_t Visit();
  // Earliest future tick at which any level's cursor visits an occupied slot.
  // Every visit between now and that tick would only probe empty slots. Sound
  // because a level's current-unit slot was fully drained when its unit began, so
  // every record filed at level L sits d units ahead of the current unit with
  // d in [1, size_L] (d == size_L for a slot one full revolution out, which is
  // exactly NextSetDistance's distance-size convention), and its visit tick is
  // (unit + d) * granularity_L.
  std::optional<Tick> NextVisit() const;
  // The per-tick loop probes one slot per level whose cursor moves, so a jump
  // over (from, to] skips each level's unit count.
  Duration SkippedProbes(Tick from, Tick to) const {
    Duration probes = 0;
    for (const Level& lv : levels_) {
      probes += lv.UnitOf(to) - lv.UnitOf(from);
    }
    return probes;
  }

  std::vector<Level> levels_;
  Duration span_ = 1;  // product of level sizes
  OverflowPolicy overflow_;
  MigrationPolicy migration_;
  std::uint32_t slop_bits_ = 0;
};


extern template class TimerServiceBase<HierarchicalWheel>;

}  // namespace twheel

#endif  // TWHEEL_SRC_CORE_HIERARCHICAL_WHEEL_H_
