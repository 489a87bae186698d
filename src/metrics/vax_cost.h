// The Section 7 VAX cost model.
//
// The authors implemented Scheme 6 on a VAX in MACRO-11 and report, in units of a
// "cheap" VAX instruction (a CLRL): 13 instructions to insert a timer, 7 to delete
// one, 4 per tick to skip an empty array location, 6 to decrement a timer and move to
// the next queue element, and 9 more to delete an expired timer and call
// EXPIRY_PROCESSING. From these they derive: "even if we assume that every
// outstanding timer expires during one scan of the table, the average cost per tick
// is 4 + 15 * n/TableSize instructions."
//
// This model maps our machine-independent OpCounts onto those constants so that the
// bench for experiment `sec7-vax` regenerates the same formula from measurement.

#ifndef TWHEEL_SRC_METRICS_VAX_COST_H_
#define TWHEEL_SRC_METRICS_VAX_COST_H_

#include <cstdint>

#include "src/metrics/op_counts.h"

namespace twheel::metrics {

struct VaxCostModel {
  // Costs in cheap VAX instructions (Section 7).
  double insert = 13.0;         // START_TIMER link-in
  double unlink = 7.0;          // STOP_TIMER unlink
  double skip_empty = 4.0;      // per-tick skip of an empty array location
  double decrement = 6.0;       // decrement one timer, advance to next queue element
  double expire = 9.0;          // remove expired timer and dispatch EXPIRY_PROCESSING
  double compare = 1.0;         // one comparison during an insertion search

  // Total instruction estimate for a batch of operations. The paper prices no
  // in-place restart; a relink does what a STOP_TIMER unlink and a START_TIMER
  // link-in do, so it is charged as both.
  double Total(const OpCounts& c) const {
    return insert * static_cast<double>(c.insert_link_ops) +
           unlink * static_cast<double>(c.delete_unlink_ops) +
           (unlink + insert) * static_cast<double>(c.restart_relink_ops) +
           skip_empty * static_cast<double>(c.empty_slot_checks) +
           decrement * static_cast<double>(c.decrement_visits) +
           expire * static_cast<double>(c.expiry_dispatches) +
           compare * static_cast<double>(c.comparisons);
  }

  // Instruction estimate for the bookkeeping performed inside PER_TICK_BOOKKEEPING
  // only (excludes start/stop costs), divided by the number of ticks. This is the
  // quantity Section 7 predicts to be 4 + 15 * n/TableSize for Scheme 6.
  double PerTick(const OpCounts& c) const {
    if (c.ticks == 0) {
      return 0.0;
    }
    double book = skip_empty * static_cast<double>(c.empty_slot_checks) +
                  decrement * static_cast<double>(c.decrement_visits) +
                  expire * static_cast<double>(c.expiry_dispatches);
    return book / static_cast<double>(c.ticks);
  }

  // The paper's closed-form prediction for Scheme 6 (Section 7).
  static double PredictedPerTickScheme6(double n, double table_size) {
    return 4.0 + 15.0 * n / table_size;
  }
};

}  // namespace twheel::metrics

#endif  // TWHEEL_SRC_METRICS_VAX_COST_H_
