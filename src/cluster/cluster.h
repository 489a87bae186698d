// A replicated timer cluster on the simulated transport.
//
// N ClusterNodes each run a host TimerService (the scheme under test) and are
// connected to a coordinator and to each other by lossy/delaying net::Channels
// sharing ONE network clock. A client timer with replication factor R is
// fanned out to the R nodes of its replica set; each rank-k replica arms its
// HOST scheme for deadline + k*failover_delay — the failover lease IS a timer
// in the scheme under test, the paper's "timers as the substrate for failure
// recovery" made literal. Rank 0 owns the pop; if the failure injector kills
// or partitions it, the rank-1 lease expires one failover_delay later and the
// survivor pops instead, and so on down the ladder.
//
// Identity and exactly-once: every client op on a key bumps a per-key
// generation, and the coordinator is the authority — the first kClusterFire
// receipt for the current generation of a live timer is delivered to the
// client; every other receipt is classified (duplicate / stale generation /
// after acknowledged cancel) and suppressed. At-least-once comes from
// retransmission (arms retried until acked per rank, fire notifies retried
// until acked, node-up announcements retried) plus the fault schedule's
// liveness precondition that at most R-1 nodes are concurrently faulted.
// Together: exactly once at the client, within a slop bound the ClusterOracle
// computes from the configuration and the schedule (cluster_oracle.h).
//
// Suppression is two-layered: the authoritative layer is a coordinator
// kClusterDisarm fanned to survivors once a fire is delivered (retried, so a
// survivor's lease is almost always cancelled before it expires); on top, the
// popping replica broadcasts a best-effort kClusterSuppress hint that makes
// peers EXTEND their lease (an in-place RestartTimer, bounded by
// kMaxLeaseExtensions) rather than cancel it — a lost hint costs at most a
// duplicate pop, never a lost fire, because only the coordinator's disarm can
// remove a survivor's timer.
//
// Determinism: channel fates are pure functions of packet identity and send
// tick (net::Channel), faults are applied at fixed phase order inside Step(),
// and all receiver logic commutes within a tick — so two runs with the same
// seed and schedule are byte-identical, and runs differing only in the host
// scheme produce the same client-visible trace up to intra-tick order
// (tests/cluster/cluster_determinism_test.cc).
//
// Tables: the coordinator's timers_ and each node's replica table (Node::local)
// are FlatMaps (src/base/flat_map.h), so a message costs one multiply-shift
// probe and arming a replica allocates nothing. A FlatMap moves entries when
// it inserts (doubling) or erases (backward shift), which gives every handler
// one rule: never hold a pointer into either table across a send that can
// re-enter the cluster and insert into or erase from that table. Only the
// synchronous transport re-enters (a send there is a direct call into the
// receiver); on the async transport a send only schedules a delivery. How
// the handlers keep the rule:
//   - A coordinator handler may hold its timers_ entry across sends to nodes.
//     Their synchronous replies (arm and disarm acks) only Find in timers_,
//     and nothing erases from it. The one insert reachable from a send is a
//     client Set in the fire callback, which OnCoordMessage runs after its
//     last use of the entry.
//   - A node handler must not hold its replica across a send: the fire notify
//     chain (fire -> disarm, fire-ack, callback -> Set -> arm) inserts into
//     and erases from the node tables. OnHostPop and NodeRetryScan copy the
//     replica's fields before their first send; the arm, disarm and fire-ack
//     handlers finish with the table before they send their ack.

#ifndef TWHEEL_SRC_CLUSTER_CLUSTER_H_
#define TWHEEL_SRC_CLUSTER_CLUSTER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/flat_map.h"
#include "src/base/types.h"
#include "src/cluster/fault_schedule.h"
#include "src/core/timer_facility.h"
#include "src/net/channel.h"
#include "src/net/types.h"
#include "src/sim/simulator.h"

namespace twheel::cluster {

inline constexpr std::uint32_t kMaxReplication = 8;
inline constexpr std::uint32_t kMaxLeaseExtensions = 3;
// connection_id of packets the coordinator sends (node ids are dense from 0).
inline constexpr std::uint32_t kCoordinatorId = 0xFFFFFFFFu;

struct ClusterConfig {
  std::size_t nodes = 4;
  std::uint32_t replication_factor = 2;  // default R for Set()
  // Rank-k lease: replica k arms for deadline + k*failover_delay; a suppress
  // hint extends a lease by one failover_delay (at most kMaxLeaseExtensions).
  Duration failover_delay = 12;
  Duration retry_every = 6;  // retransmit cadence (arms, notifies, node-ups)
  std::uint32_t disarm_retry_cap = 4;
  std::uint64_t seed = 1;
  net::ChannelConfig link;     // every coordinator<->node and node<->node link
  FacilityConfig node_scheme;  // host service each node runs
  // Torture/facade mode: messages become direct calls — no loss, no delay, no
  // faults. Used by ClusterFacadeService so the decide-then-replay driver sees
  // the full replication protocol at exact one-tick semantics.
  bool synchronous_transport = false;
};

enum class ClientEventKind : std::uint8_t {
  kAccepted,    // Set registered a (new or replacing) generation
  kRestarted,   // Restart moved a live timer to a new generation/deadline
  kCancelAcked, // Cancel of a live timer acknowledged: this gen must never fire
  kFired,       // the client callback ran
};

struct ClientEvent {
  ClientEventKind kind = ClientEventKind::kAccepted;
  std::uint64_t key = 0;
  std::uint32_t gen = 0;
  Tick at = 0;        // cluster tick the coordinator processed the event
  Tick deadline = 0;  // kAccepted/kRestarted: absolute deadline;
                      // kFired: the replica's pop tick
  friend bool operator==(const ClientEvent&, const ClientEvent&) = default;
};

struct ClusterStats {
  // Coordinator: client ops.
  std::uint64_t accepted = 0;
  std::uint64_t restarts = 0;
  std::uint64_t restart_misses = 0;
  std::uint64_t cancels = 0;
  std::uint64_t cancel_misses = 0;
  // Coordinator: receipt classification. Conservation law (checked by the
  // oracle): fire_receipts == delivered + duplicate_suppressed +
  // stale_gen_suppressed + after_cancel_suppressed.
  std::uint64_t fire_receipts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicate_suppressed = 0;
  std::uint64_t stale_gen_suppressed = 0;
  std::uint64_t after_cancel_suppressed = 0;
  // Coordinator: replication traffic.
  std::uint64_t arm_sends = 0;
  std::uint64_t arm_retries = 0;
  std::uint64_t disarm_sends = 0;
  std::uint64_t rearms_on_node_up = 0;
  // Node side (summed over nodes).
  std::uint64_t pops = 0;              // host expiries that reached a replica
  std::uint64_t notify_retries = 0;
  std::uint64_t lease_disarms = 0;     // survivor lease removed after delivery
  std::uint64_t cancel_disarms = 0;    // replica removed by a client cancel
  std::uint64_t lease_extensions = 0;  // suppress hints applied (RestartTimer)
  std::uint64_t arm_rejects = 0;       // host refused an arm — config error, 0
  std::uint64_t orphan_pops = 0;       // host pop with no replica state — 0
  // Injector and delivery gates.
  std::uint64_t kills = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t partitions = 0;
  std::uint64_t drop_windows = 0;
  std::uint64_t partition_drops = 0;    // packets gated by a partition
  std::uint64_t window_drops = 0;       // packets gated by a drop window
  std::uint64_t dead_receiver_drops = 0;

  friend bool operator==(const ClusterStats&, const ClusterStats&) = default;
};

class TimerCluster {
 public:
  // Client-visible fire: `pop_tick` is when the owning replica's host expired
  // the timer; delivery happens at cluster now(). May re-enter the cluster
  // (Set/Restart/Cancel) — the coordinator's state is updated before dispatch.
  using FireCallback = std::function<void(
      std::uint64_t key, std::uint32_t gen, Tick pop_tick)>;

  TimerCluster(const ClusterConfig& config, FaultSchedule schedule = {});
  ~TimerCluster();

  TimerCluster(const TimerCluster&) = delete;
  TimerCluster& operator=(const TimerCluster&) = delete;

  void set_fire_callback(FireCallback callback) {
    fire_callback_ = std::move(callback);
  }

  // Client ops, processed at the coordinator immediately (replication to the
  // nodes is asynchronous over the links). Set registers interval ticks from
  // now with the given replication factor; a Set on a live key replaces it
  // under a fresh generation. Set and Restart return false for a zero interval
  // and for one whose deadline plus the largest lease offset a replica can arm
  // would pass the end of Tick. Restart and Cancel return false (miss) when the
  // key has no live timer.
  bool Set(std::uint64_t key, Duration interval);
  bool Set(std::uint64_t key, Duration interval, std::uint32_t replication);
  bool Restart(std::uint64_t key, Duration interval);
  bool Cancel(std::uint64_t key);

  // One cluster tick, fixed phase order: (1) clock, (2) fault events due now,
  // (3) network deliveries due now, (4) alive nodes tick their hosts (pops
  // dispatch here), (5) retransmission scans. The fixed order is what makes a
  // (seed, schedule) pair fully deterministic.
  void Step();

  Tick now() const { return now_; }

  // Nothing left to resolve: no live timers, no replica-side state, no
  // in-flight packets, no pending disarm fan-outs.
  bool quiesced() const;

  // Step until quiesced or `max_ticks` elapse; returns ticks stepped.
  Tick Drain(Tick max_ticks);

  const std::vector<ClientEvent>& events() const { return events_; }
  const ClusterStats& stats() const { return stats_; }
  std::size_t live_timers() const { return live_count_; }

  // The R distinct nodes holding `key`, rank order: rank i is node
  // (ReplicaStart(key) + i) % N for i < ReplicaCount(replication). Pure
  // function of (key, replication, nodes, seed) — nodes compute the same set
  // locally.
  std::vector<NodeId> ReplicaSetFor(std::uint64_t key,
                                    std::uint32_t replication) const;

  bool node_alive(NodeId node) const { return nodes_[node].alive; }
  std::size_t node_count() const { return nodes_.size(); }
  // Probabilistic channel-level drops summed over every link.
  std::uint64_t link_drops() const;

 private:
  // Fields are ordered 8-byte, then 4-byte, then 1-byte, so no padding sits
  // between them.
  struct ReplicaLocal {
    Tick deadline = 0;  // the client deadline (rank offset not included)
    Tick pop_tick = 0;
    std::uint32_t gen = 0;
    std::uint32_t rank = 0;
    std::uint32_t replication = 1;
    std::uint32_t extensions = 0;
    TimerHandle handle{};
    bool popped = false;
  };
  static_assert(sizeof(ReplicaLocal) == 48);

  // A retransmission due at `due`. Every push is keyed now() + retry_every
  // (Lawn's single-TTL case), so a FIFO is already in deadline order.
  struct Retry {
    Tick due = 0;
    std::uint64_t key = 0;
    std::uint32_t gen = 0;  // Node::notify_retry only
  };
  // A FIFO that keeps its buffer: a pop advances a head index, and the
  // consumed prefix is erased once it passes half the buffer, so a steady
  // push/pop rate reuses one allocation (a std::deque frees each drained
  // block and allocates a fresh one).
  class RetryQueue {
   public:
    bool empty() const { return head_ == items_.size(); }
    const Retry& front() const { return items_[head_]; }
    const Retry& back() const { return items_.back(); }
    void push_back(const Retry& retry) { items_.push_back(retry); }
    void pop_front() {
      if (++head_ == items_.size()) {
        clear();
      } else if (2 * head_ > items_.size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    void clear() {
      items_.clear();
      head_ = 0;
    }

   private:
    std::vector<Retry> items_;
    std::size_t head_ = 0;  // items_[0, head_) are consumed
  };

  struct Node {
    bool alive = true;
    std::uint64_t epoch = 0;
    bool partitioned = false;
    bool dropping = false;
    bool up_acked = true;
    Tick next_up_retry = 0;
    // Cluster tick the host's local clock is anchored at: the host reads
    // host_base + host->now() on the cluster clock. Mid-Step the hosts are
    // momentarily staggered (some ticked, some not), so arm intervals MUST be
    // computed against the target host's own position, not the cluster tick —
    // otherwise an in-handler Set reaching a not-yet-ticked host fires a tick
    // early.
    Tick host_base = 0;
    std::unique_ptr<TimerService> host;
    FlatMap<ReplicaLocal> local;  // by key; see "Tables" above
    // Popped replicas awaiting kClusterFireAck.
    RetryQueue notify_retry;
  };

  // Ordered by field size, like ReplicaLocal.
  struct PendingTimer {
    Tick deadline = 0;
    std::uint32_t gen = 0;
    std::uint32_t replication = 1;
    std::array<NodeId, kMaxReplication> replicas{};
    std::uint32_t arm_acked = 0;     // bitmask by rank
    std::uint32_t disarm_acked = 0;  // bitmask by rank
    std::uint32_t disarm_round = 0;
    enum class State : std::uint8_t { kLive, kFired, kCancelled };
    State state = State::kLive;
    bool disarm_fired_flag = false;  // disarm reason: delivered fire vs cancel
    bool disarm_done = true;  // no disarm fan-out outstanding
    bool retry_queued = false;
  };
  static_assert(sizeof(PendingTimer) == 64);

  // Replica placement (see ReplicaSetFor).
  NodeId ReplicaStart(std::uint64_t key) const;
  std::uint32_t ReplicaCount(std::uint32_t replication) const;
  // Whether now_ + interval + (ReplicaCount(kMaxReplication) - 1) *
  // failover_delay, the latest lease a replica can arm, stays within Tick.
  bool DeadlineFits(Duration interval) const;
  static void PushRetry(RetryQueue& queue, Retry retry);

  // --- transport ---
  void SendToNode(NodeId to, net::Packet packet);    // coordinator -> node
  void SendToCoord(NodeId from, net::Packet packet); // node -> coordinator
  void SendNodeToNode(NodeId from, NodeId to, net::Packet packet);
  bool GateSend(std::uint32_t from, NodeId to);  // false = drop at the gate

  // --- coordinator ---
  void OnCoordMessage(const net::Packet& packet);
  void SendArm(const std::uint64_t key, const PendingTimer& entry,
               std::uint32_t rank);
  void BeginDisarm(std::uint64_t key, PendingTimer& entry, bool fired);
  void SendDisarms(std::uint64_t key, PendingTimer& entry);
  void QueueRetry(std::uint64_t key, PendingTimer& entry);
  void CoordRetryScan();
  void RearmNodeTimers(NodeId node);

  // --- node ---
  void MakeHost(NodeId node);
  void OnNodeMessage(NodeId node, const net::Packet& packet);
  void OnHostPop(NodeId node, std::uint64_t key);
  void SendFireNotify(NodeId node, std::uint64_t key, std::uint32_t gen,
                      std::uint32_t rank, Tick pop_tick);
  void NodeRetryScan(NodeId node);

  void ApplyFaults();

  ClusterConfig config_;
  FaultSchedule schedule_;
  std::size_t schedule_cursor_ = 0;

  Tick now_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint64_t> node_epoch_seen_;

  // Coordinator state, by key. Entries are never erased: a key's full
  // generation history stays classifiable for the whole episode.
  FlatMap<PendingTimer> timers_;
  RetryQueue retry_queue_;  // coordinator arm/disarm retries
  std::size_t live_count_ = 0;
  std::size_t replica_entries_ = 0;  // sum of nodes_[i].local.size()
  std::size_t pending_disarms_ = 0;  // entries with !disarm_done

  // Async transport (null in synchronous mode). One network clock
  // (net::MakeNetworkClock) carries every link; per-link seeds derive from the
  // cluster seed so fates are independent across links but reproducible.
  std::unique_ptr<sim::Simulator> network_;
  std::vector<std::unique_ptr<net::Channel>> up_;    // node i -> coordinator
  std::vector<std::unique_ptr<net::Channel>> down_;  // coordinator -> node i
  std::vector<std::unique_ptr<net::Channel>> mesh_;  // node i -> node j (i*N+j)

  std::vector<ClientEvent> events_;
  ClusterStats stats_;
  FireCallback fire_callback_;
};

}  // namespace twheel::cluster

#endif  // TWHEEL_SRC_CLUSTER_CLUSTER_H_
