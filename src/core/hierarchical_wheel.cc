#include "src/core/hierarchical_wheel.h"

#include <bit>

#include "src/base/assert.h"

namespace twheel {

HierarchicalWheel::HierarchicalWheel(std::span<const std::size_t> level_sizes,
                                     HierarchicalWheelOptions options)
    : TimerServiceBase(options.max_timers),
      overflow_(options.overflow),
      migration_(options.migration),
      slop_bits_(options.slop_bits) {
  TWHEEL_ASSERT_MSG(level_sizes.size() >= 2 && level_sizes.size() <= 8,
                    "hierarchy needs 2..8 levels");
  levels_.reserve(level_sizes.size());
  for (std::size_t size : level_sizes) {
    TWHEEL_ASSERT_MSG(size >= 2, "each level needs at least two slots");
    Level level;
    level.size = size;
    level.granularity = span_;
    if (std::has_single_bit(static_cast<std::uint64_t>(span_))) {
      level.pow2_granularity = true;
      level.unit_shift = static_cast<std::uint8_t>(
          std::countr_zero(static_cast<std::uint64_t>(span_)));
    }
    if (std::has_single_bit(static_cast<std::uint64_t>(size))) {
      level.pow2_size = true;
      level.slot_mask = static_cast<std::uint64_t>(size) - 1;
    }
    level.slots = std::vector<IntrusiveList<TimerRecord>>(size);
    level.occupancy = OccupancyBitmap(size);
    TWHEEL_ASSERT_MSG(span_ <= ~Duration{0} / size, "hierarchy span overflows 64 bits");
    span_ *= size;
    levels_.push_back(std::move(level));
  }
}

HierarchicalWheel::~HierarchicalWheel() {
  for (Level& level : levels_) {
    for (auto& slot : level.slots) {
      while (TimerRecord* rec = slot.front()) {
        rec->Unlink();
        ReleaseRecord(rec);
      }
    }
  }
}

std::size_t HierarchicalWheel::Visit() {
  std::size_t expired = VisitSlot(0, levels_[0].SlotOf(now_));
  // Advance the coarser arrays whenever a full revolution of the next-finer one
  // completes — the work the paper's built-in "60 second timer" does. Granularities
  // divide each other, so the first misaligned level ends the cascade.
  for (std::size_t level = 1; level < levels_.size(); ++level) {
    const Level& lv = levels_[level];
    if (lv.OffsetInUnit(now_) != 0) {
      break;
    }
    expired += VisitSlot(level, lv.SlotOf(lv.UnitOf(now_)));
  }
  return expired;
}

std::size_t HierarchicalWheel::FindLevel(Tick expiry) {
  // "Depending on the algorithm, we may need O(m) time ... to find the right table
  // to insert the timer": the paper's digit rule — the highest level whose unit
  // number for the expiry differs from the current time's. Expiry > now guarantees
  // at least the level-0 digit differs. The range check in StartTimer guarantees the
  // chosen slot is less than one revolution away: at the highest differing level all
  // coarser digits agree, confining expiry and now to one unit of the level above.
  for (std::size_t level = levels_.size(); level-- > 1;) {
    ++counts_.comparisons;
    const Level& lv = levels_[level];
    if (lv.UnitOf(expiry) != lv.UnitOf(now_)) {
      return level;
    }
  }
  ++counts_.comparisons;
  return 0;
}

void HierarchicalWheel::FileAt(std::size_t level, std::size_t slot_index,
                               TimerRecord* rec) {
  rec->level = static_cast<std::uint8_t>(level);
  rec->home_slot = static_cast<std::uint32_t>(slot_index);
  levels_[level].slots[slot_index].PushBack(rec);
  levels_[level].occupancy.Set(slot_index);
}

void HierarchicalWheel::Insert(TimerRecord* rec) {
  const std::size_t level = FindLevel(rec->expiry_tick);
  const Level& lv = levels_[level];
  FileAt(level, lv.SlotOf(lv.UnitOf(rec->expiry_tick)), rec);
}

void HierarchicalWheel::InsertNoMigration(TimerRecord* rec) {
  // Wick Nichols' no-migration mode gives each timer a *mode* by magnitude
  // ("different timer modes, one for hour timers, one for minute timers"): the
  // coarsest level whose unit fits inside the interval. The timer fires at the slot
  // visit nearest its exact expiry — "round off to the nearest hour and only set the
  // timer in hours" — so the error is at most half that level's granularity, the
  // paper's "loss in precision of up to 50%". If rounding would land beyond one
  // revolution (interval within half a unit of the level's full span, from an
  // unaligned now), the timer escalates one level, where the same rounding argument
  // applies with granularity still close to the interval.
  std::size_t level = 0;
  while (level + 1 < levels_.size() &&
         levels_[level + 1].granularity <= rec->interval) {
    ++counts_.comparisons;
    ++level;
  }
  for (; level < levels_.size(); ++level) {
    const Level& lv = levels_[level];
    ++counts_.comparisons;
    const std::uint64_t target_unit =
        lv.UnitOf(rec->expiry_tick + lv.granularity / 2);
    const std::uint64_t distance = target_unit - lv.UnitOf(now_);
    if (distance >= 1 && distance <= lv.size) {
      FileAt(level, lv.SlotOf(target_unit), rec);
      return;
    }
  }
  TWHEEL_ASSERT_MSG(false, "no-migration insert failed despite range check");
}

std::size_t HierarchicalWheel::VisitSlot(std::size_t level, std::size_t slot_index) {
  IntrusiveList<TimerRecord>& slot = levels_[level].slots[slot_index];
  if (slot.empty()) {
    ++counts_.empty_slot_checks;
    return 0;
  }
  // Splice the slot out and drain via its head: every resident leaves (expires or
  // migrates), and expiry handlers may stop not-yet-visited siblings (unlinking
  // them from the pending list) or start new timers (which can never target the
  // slot being visited — the digit rule files a same-residue expiry at a coarser
  // level) without invalidating the walk.
  levels_[level].occupancy.Clear(slot_index);
  std::size_t expired = 0;
  IntrusiveList<TimerRecord> pending;
  pending.SpliceAll(slot);
  while (TimerRecord* rec = pending.front()) {
    ++counts_.decrement_visits;

    const Duration remaining = rec->expiry_tick - now_;  // 0 when due exactly now
    bool expire_now = false;
    switch (migration_) {
      case MigrationPolicy::kFull:
        expire_now = (remaining == 0);
        break;
      case MigrationPolicy::kNone:
        // Fire at the slot visit; the interval was rounded at start time.
        expire_now = true;
        break;
      case MigrationPolicy::kSingleStep:
        // One hop to the adjacent finer level, then fire at that level's visit.
        expire_now = (remaining == 0) || level == 0 || rec->migrations_done >= 1 ||
                     remaining < levels_[level - 1].granularity;
        break;
    }

    if (expire_now) {
      if (migration_ == MigrationPolicy::kFull) {
        TWHEEL_ASSERT(rec->expiry_tick == now_);
      }
      // Non-final periodic fire: the relink unlinks from `pending`, re-runs
      // the digit rule (or no-migration rounding) against the current time, and
      // refiles — never back into the slot being visited.
      if (TryFirePeriodic(rec)) {
        ++expired;
        continue;
      }
      rec->Unlink();
      Expire(rec);
      ++expired;
    } else if (migration_ == MigrationPolicy::kSingleStep) {
      rec->Unlink();
      ++counts_.migrations;
      ++rec->migrations_done;
      const Level& below = levels_[level - 1];
      FileAt(level - 1, below.SlotOf(below.UnitOf(rec->expiry_tick)), rec);
    } else {
      // Full migration: re-file by expiry; lands at a strictly finer level because
      // this level's unit boundary has been reached.
      rec->Unlink();
      ++counts_.migrations;
      ++rec->migrations_done;
      Insert(rec);
    }
  }
  return expired;
}

std::optional<Tick> HierarchicalWheel::NextVisit() const {
  std::optional<Tick> best;
  for (const Level& lv : levels_) {
    const std::uint64_t unit = lv.UnitOf(now_);
    const std::optional<std::size_t> dist =
        lv.occupancy.NextSetDistance(lv.SlotOf(unit));
    if (dist.has_value()) {
      const Tick visit = (unit + *dist) * lv.granularity;
      if (!best.has_value() || visit < *best) {
        best = visit;
      }
    }
  }
  return best;
}

std::optional<Tick> HierarchicalWheel::NextExpiryHint() const {
  if (migration_ == MigrationPolicy::kFull) {
    // Exact: visits only migrate until the expiry's own tick, so the earliest
    // outstanding absolute expiry is the answer; the bitmap confines the scan to
    // occupied slots.
    std::optional<Tick> best;
    for (const Level& lv : levels_) {
      lv.occupancy.ForEachSet([&](std::size_t slot_index) {
        const IntrusiveList<TimerRecord>& slot = lv.slots[slot_index];
        for (const TimerRecord* rec = slot.front(); rec != nullptr;
             rec = slot.Next(rec)) {
          if (!best.has_value() || rec->expiry_tick < *best) {
            best = rec->expiry_tick;
          }
        }
      });
    }
    return best;
  }
  // kNone fires whole slots at their visit, so the earliest occupied visit is
  // exact; kSingleStep may migrate at that visit instead, making this a
  // conservative (never-late) lower bound — see the header contract.
  return NextVisit();
}

std::size_t HierarchicalWheel::LevelPopulationSlow(std::size_t level) const {
  std::size_t total = 0;
  for (const auto& slot : levels_[level].slots) {
    total += slot.CountSlow();
  }
  return total;
}


template class TimerServiceBase<HierarchicalWheel>;

}  // namespace twheel
