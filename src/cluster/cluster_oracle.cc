#include "src/cluster/cluster_oracle.h"

#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/net/channel.h"

namespace twheel::cluster {
namespace {

// Replay state for one key: only the CURRENT generation can legally fire, and
// only while it is open (accepted, not cancelled, not yet fired, not replaced).
struct KeyState {
  std::uint32_t gen = 0;
  Tick deadline = 0;
  bool open = false;
  bool cancelled = false;  // current gen ended by an acknowledged cancel
  bool fired = false;      // current gen already delivered once
};

}  // namespace

ClusterOracle::ClusterOracle(const ClusterConfig& config,
                             const FaultSchedule& schedule)
    : config_(config) {
  const Duration failover_ladder =
      static_cast<Duration>(config.replication_factor - 1 +
                            kMaxLeaseExtensions) *
      config.failover_delay;
  // The channels clamp their delays (delay_hi is raised to delay_lo), so the
  // worst delay is the clamped delay_hi, not the configured one.
  const Duration retry_tail = kRetryBudget * config.retry_every +
                              2 * net::ClampDelays(config.link).delay_hi;
  delivery_slack_ = retry_tail + schedule.total_outage + 4;
  slop_ = failover_ladder + schedule.total_outage + retry_tail + 4;
}

OracleReport ClusterOracle::Check(const std::vector<ClientEvent>& events,
                                  const ClusterStats& stats) const {
  OracleReport report;
  auto fail = [&](const std::ostringstream& os) {
    if (report.ok) {
      report.ok = false;
      report.violation = os.str();
    }
  };

  std::unordered_map<std::uint64_t, KeyState> keys;
  std::uint64_t accepted = 0;
  std::uint64_t restarted = 0;
  std::uint64_t fired_events = 0;

  for (const ClientEvent& event : events) {
    KeyState& state = keys[event.key];
    switch (event.kind) {
      case ClientEventKind::kAccepted:
      case ClientEventKind::kRestarted: {
        const bool restart = event.kind == ClientEventKind::kRestarted;
        restart ? ++restarted : ++accepted;
        ++report.generations;
        if (restart && !state.open) {
          std::ostringstream os;
          os << "key " << event.key
             << ": restart acknowledged for a non-live timer (gen "
             << event.gen << ")";
          fail(os);
        }
        if (event.gen <= state.gen) {
          std::ostringstream os;
          os << "key " << event.key << ": generation not monotone ("
             << event.gen << " after " << state.gen << ")";
          fail(os);
        }
        // A new generation closes its predecessor: the replaced/restarted
        // generation must never fire from here on.
        state.gen = event.gen;
        state.deadline = event.deadline;
        state.open = true;
        state.cancelled = false;
        state.fired = false;
        break;
      }
      case ClientEventKind::kCancelAcked:
        ++report.cancels_checked;
        if (!state.open || event.gen != state.gen) {
          std::ostringstream os;
          os << "key " << event.key
             << ": cancel acknowledged for a non-live generation " << event.gen;
          fail(os);
        }
        state.open = false;
        state.cancelled = true;
        break;
      case ClientEventKind::kFired: {
        ++fired_events;
        ++report.fires_checked;
        const Tick pop = event.deadline;  // kFired carries the pop tick here
        if (event.gen != state.gen) {
          std::ostringstream os;
          os << "key " << event.key << ": fire of superseded generation "
             << event.gen << " (current " << state.gen << ")";
          fail(os);
          break;
        }
        if (state.cancelled) {
          std::ostringstream os;
          os << "key " << event.key << " gen " << event.gen
             << ": fire after acknowledged cancel";
          fail(os);
          break;
        }
        if (state.fired) {
          std::ostringstream os;
          os << "key " << event.key << " gen " << event.gen
             << ": duplicate client fire";
          fail(os);
          break;
        }
        if (!state.open) {
          std::ostringstream os;
          os << "key " << event.key << " gen " << event.gen
             << ": fire of a closed generation";
          fail(os);
          break;
        }
        if (pop < state.deadline) {
          std::ostringstream os;
          os << "key " << event.key << " gen " << event.gen
             << ": early pop at " << pop << " before deadline "
             << state.deadline;
          fail(os);
        }
        if (pop > state.deadline + slop_) {
          std::ostringstream os;
          os << "key " << event.key << " gen " << event.gen << ": late pop at "
             << pop << ", deadline " << state.deadline << " + slop " << slop_;
          fail(os);
        }
        if (event.at < pop || event.at > pop + delivery_slack_) {
          std::ostringstream os;
          os << "key " << event.key << " gen " << event.gen << ": delivery at "
             << event.at << " outside [" << pop << ", "
             << pop + delivery_slack_ << "]";
          fail(os);
        }
        state.open = false;
        state.fired = true;
        break;
      }
    }
  }

  report.keys = keys.size();

  // Completeness: after a full drain, the final generation of every key must
  // have resolved — fired exactly once, or been cancelled. A still-open entry
  // is a LOST fire (the failover ladder failed to produce a survivor pop).
  for (const auto& [key, state] : keys) {
    if (state.open) {
      std::ostringstream os;
      os << "key " << key << " gen " << state.gen
         << ": timer never fired (deadline " << state.deadline << ")";
      fail(os);
    }
  }

  // Duplicate-suppression conservation: every receipt is delivered or
  // classified, nothing invented, nothing dropped on the floor.
  const std::uint64_t classified =
      stats.delivered + stats.duplicate_suppressed +
      stats.stale_gen_suppressed + stats.after_cancel_suppressed;
  if (stats.fire_receipts != classified) {
    std::ostringstream os;
    os << "conservation: fire_receipts " << stats.fire_receipts
       << " != delivered " << stats.delivered << " + dup "
       << stats.duplicate_suppressed << " + stale "
       << stats.stale_gen_suppressed << " + after-cancel "
       << stats.after_cancel_suppressed;
    fail(os);
  }
  if (stats.delivered != fired_events) {
    std::ostringstream os;
    os << "delivered " << stats.delivered << " but " << fired_events
       << " kFired events";
    fail(os);
  }
  if (stats.accepted != accepted || stats.restarts != restarted) {
    std::ostringstream os;
    os << "op counters disagree with trace (" << stats.accepted << "/"
       << stats.restarts << " vs " << accepted << "/" << restarted << ")";
    fail(os);
  }
  if (stats.arm_rejects != 0) {
    std::ostringstream os;
    os << "host rejected " << stats.arm_rejects
       << " arms (scheme misconfigured)";
    fail(os);
  }
  if (stats.orphan_pops != 0) {
    std::ostringstream os;
    os << stats.orphan_pops << " orphan host pops";
    fail(os);
  }
  return report;
}

}  // namespace twheel::cluster
