#include "src/cluster/cluster.h"

#include <algorithm>
#include <limits>

#include "src/base/assert.h"
#include "src/rng/rng.h"

namespace twheel::cluster {

namespace {

// Pack/unpack helpers for the replication payload words (see net::PacketType).
std::uint64_t ArmPayload(std::uint32_t gen, std::uint32_t rank,
                         std::uint32_t replication) {
  return (static_cast<std::uint64_t>(gen) << 16) |
         (static_cast<std::uint64_t>(rank & 0xFF) << 8) |
         static_cast<std::uint64_t>(replication & 0xFF);
}

}  // namespace

TimerCluster::TimerCluster(const ClusterConfig& config, FaultSchedule schedule)
    : config_(config), schedule_(std::move(schedule)) {
  TWHEEL_ASSERT_MSG(config_.nodes > 0, "a cluster needs at least one node");
  TWHEEL_ASSERT_MSG(config_.failover_delay >= 1, "failover_delay must be >= 1");
  // A zero cadence would re-queue every retry at now() forever.
  TWHEEL_ASSERT_MSG(config_.retry_every >= 1, "retry_every must be >= 1");
  // Synchronous transport is the zero-fault torture mode; a schedule would
  // have nothing to act on (and nothing gates direct calls).
  TWHEEL_ASSERT_MSG(!config_.synchronous_transport || schedule_.empty(),
                    "synchronous transport takes no fault schedule");

  nodes_.resize(config_.nodes);
  node_epoch_seen_.assign(config_.nodes, 0);
  for (NodeId i = 0; i < config_.nodes; ++i) {
    MakeHost(i);
  }

  if (!config_.synchronous_transport) {
    network_ =
        std::make_unique<sim::Simulator>(net::MakeNetworkClock(config_.link));
    rng::SplitMix64 seeder(config_.seed ^ 0x5EEDC4A77E1DULL);
    up_.resize(config_.nodes);
    down_.resize(config_.nodes);
    mesh_.resize(config_.nodes * config_.nodes);
    for (NodeId i = 0; i < config_.nodes; ++i) {
      up_[i] = std::make_unique<net::Channel>(*network_, seeder.Next(),
                                              config_.link);
      up_[i]->set_receiver(
          [this](const net::Packet& p) { OnCoordMessage(p); });
      down_[i] = std::make_unique<net::Channel>(*network_, seeder.Next(),
                                                config_.link);
      down_[i]->set_receiver([this, i](const net::Packet& p) {
        Node& n = nodes_[i];
        if (!n.alive) {
          ++stats_.dead_receiver_drops;
          return;
        }
        if (n.partitioned) {
          ++stats_.partition_drops;
          return;
        }
        OnNodeMessage(i, p);
      });
    }
    for (NodeId from = 0; from < config_.nodes; ++from) {
      for (NodeId to = 0; to < config_.nodes; ++to) {
        if (from == to) {
          continue;
        }
        auto& link = mesh_[from * config_.nodes + to];
        link = std::make_unique<net::Channel>(*network_, seeder.Next(),
                                              config_.link);
        link->set_receiver([this, to](const net::Packet& p) {
          Node& n = nodes_[to];
          if (!n.alive) {
            ++stats_.dead_receiver_drops;
            return;
          }
          if (n.partitioned) {
            ++stats_.partition_drops;
            return;
          }
          OnNodeMessage(to, p);
        });
      }
    }
  }
}

TimerCluster::~TimerCluster() = default;

// --- transport ---------------------------------------------------------------

bool TimerCluster::GateSend(std::uint32_t from, NodeId /*to*/) {
  if (from == kCoordinatorId) {
    return true;  // the coordinator is never faulted
  }
  Node& sender = nodes_[from];
  if (!sender.alive) {
    return false;  // a dead node has no state to send from
  }
  if (sender.partitioned) {
    ++stats_.partition_drops;
    return false;
  }
  if (sender.dropping) {
    ++stats_.window_drops;
    return false;
  }
  return true;
}

void TimerCluster::SendToNode(NodeId to, net::Packet packet) {
  if (config_.synchronous_transport) {
    OnNodeMessage(to, packet);
    return;
  }
  down_[to]->Send(packet);
}

void TimerCluster::SendToCoord(NodeId from, net::Packet packet) {
  if (config_.synchronous_transport) {
    OnCoordMessage(packet);
    return;
  }
  if (!GateSend(from, 0)) {
    return;
  }
  up_[from]->Send(packet);
}

void TimerCluster::SendNodeToNode(NodeId from, NodeId to, net::Packet packet) {
  if (config_.synchronous_transport) {
    OnNodeMessage(to, packet);
    return;
  }
  if (!GateSend(from, to)) {
    return;
  }
  mesh_[from * config_.nodes + to]->Send(packet);
}

// --- client ops --------------------------------------------------------------

NodeId TimerCluster::ReplicaStart(std::uint64_t key) const {
  rng::SplitMix64 hash(key ^ (config_.seed * 0x9E3779B97F4A7C15ULL));
  return static_cast<NodeId>(hash.Next() % nodes_.size());
}

std::uint32_t TimerCluster::ReplicaCount(std::uint32_t replication) const {
  std::uint32_t r = std::max<std::uint32_t>(1, replication);
  r = std::min<std::uint32_t>(r, kMaxReplication);
  return std::min<std::uint32_t>(r, static_cast<std::uint32_t>(nodes_.size()));
}

bool TimerCluster::DeadlineFits(Duration interval) const {
  const Tick last =
      std::numeric_limits<Tick>::max() -
      static_cast<Tick>(ReplicaCount(kMaxReplication) - 1) * config_.failover_delay;
  return now_ <= last && interval <= last - now_;
}

std::vector<NodeId> TimerCluster::ReplicaSetFor(
    std::uint64_t key, std::uint32_t replication) const {
  const NodeId start = ReplicaStart(key);
  const std::uint32_t count = ReplicaCount(replication);
  std::vector<NodeId> set;
  set.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    set.push_back(static_cast<NodeId>((start + i) % nodes_.size()));
  }
  return set;
}

bool TimerCluster::Set(std::uint64_t key, Duration interval) {
  return Set(key, interval, config_.replication_factor);
}

bool TimerCluster::Set(std::uint64_t key, Duration interval,
                       std::uint32_t replication) {
  if (interval == 0 || !DeadlineFits(interval)) {
    return false;
  }
  PendingTimer& entry = *timers_.FindOrInsert(key).first;
  const bool was_live =
      entry.gen != 0 && entry.state == PendingTimer::State::kLive;
  // A Set superseding a resolved generation aborts its disarm fan-out: the
  // fresh arms overwrite the replicas by generation anyway.
  if (!entry.disarm_done) {
    entry.disarm_done = true;
    --pending_disarms_;
  }
  ++entry.gen;
  entry.deadline = now_ + interval;
  entry.replication = ReplicaCount(replication);
  const NodeId start = ReplicaStart(key);
  for (std::uint32_t rank = 0; rank < entry.replication; ++rank) {
    entry.replicas[rank] = static_cast<NodeId>((start + rank) % nodes_.size());
  }
  entry.arm_acked = 0;
  entry.disarm_acked = 0;
  entry.disarm_round = 0;
  entry.state = PendingTimer::State::kLive;
  if (!was_live) {
    ++live_count_;
  }
  ++stats_.accepted;
  events_.push_back({ClientEventKind::kAccepted, key, entry.gen, now_,
                     entry.deadline});
  for (std::uint32_t rank = 0; rank < entry.replication; ++rank) {
    SendArm(key, entry, rank);
  }
  QueueRetry(key, entry);
  return true;
}

bool TimerCluster::Restart(std::uint64_t key, Duration interval) {
  if (interval == 0 || !DeadlineFits(interval)) {
    return false;
  }
  PendingTimer* entry = timers_.Find(key);
  if (entry == nullptr || entry->state != PendingTimer::State::kLive) {
    ++stats_.restart_misses;
    return false;
  }
  ++entry->gen;
  entry->deadline = now_ + interval;
  entry->arm_acked = 0;
  ++stats_.restarts;
  events_.push_back({ClientEventKind::kRestarted, key, entry->gen, now_,
                     entry->deadline});
  for (std::uint32_t rank = 0; rank < entry->replication; ++rank) {
    SendArm(key, *entry, rank);
  }
  QueueRetry(key, *entry);
  return true;
}

bool TimerCluster::Cancel(std::uint64_t key) {
  PendingTimer* entry = timers_.Find(key);
  if (entry == nullptr || entry->state != PendingTimer::State::kLive) {
    ++stats_.cancel_misses;
    return false;
  }
  entry->state = PendingTimer::State::kCancelled;
  --live_count_;
  ++stats_.cancels;
  events_.push_back({ClientEventKind::kCancelAcked, key, entry->gen, now_,
                     entry->deadline});
  BeginDisarm(key, *entry, /*fired=*/false);
  return true;
}

// --- coordinator internals ---------------------------------------------------

void TimerCluster::SendArm(const std::uint64_t key, const PendingTimer& entry,
                           std::uint32_t rank) {
  net::Packet packet;
  packet.connection_id = kCoordinatorId;
  packet.seq = key;
  packet.type = net::PacketType::kClusterArm;
  packet.arg0 = entry.deadline;
  packet.arg1 = ArmPayload(entry.gen, rank, entry.replication);
  ++stats_.arm_sends;
  SendToNode(entry.replicas[rank], packet);
}

void TimerCluster::BeginDisarm(std::uint64_t key, PendingTimer& entry,
                               bool fired) {
  // Only reachable from state kLive, where no fan-out is outstanding.
  ++pending_disarms_;
  entry.disarm_done = false;
  entry.disarm_round = 0;
  entry.disarm_fired_flag = fired;
  const std::uint32_t full = (1u << entry.replication) - 1;
  if ((entry.disarm_acked & full) == full) {
    // Single replica that itself fired: nothing left to disarm.
    entry.disarm_done = true;
    --pending_disarms_;
    return;
  }
  SendDisarms(key, entry);
  QueueRetry(key, entry);
}

void TimerCluster::SendDisarms(std::uint64_t key, PendingTimer& entry) {
  for (std::uint32_t rank = 0; rank < entry.replication; ++rank) {
    if ((entry.disarm_acked >> rank) & 1u) {
      continue;
    }
    net::Packet packet;
    packet.connection_id = kCoordinatorId;
    packet.seq = key;
    packet.type = net::PacketType::kClusterDisarm;
    packet.arg0 = entry.gen;
    packet.arg1 = (static_cast<std::uint64_t>(entry.disarm_fired_flag) << 8) |
                  rank;
    ++stats_.disarm_sends;
    SendToNode(entry.replicas[rank], packet);
  }
}

void TimerCluster::PushRetry(RetryQueue& queue, Retry retry) {
  TWHEEL_ASSERT_MSG(queue.empty() || queue.back().due <= retry.due,
                    "retry queued out of deadline order");
  queue.push_back(retry);
}

void TimerCluster::QueueRetry(std::uint64_t key, PendingTimer& entry) {
  if (!entry.retry_queued) {
    PushRetry(retry_queue_, {now_ + config_.retry_every, key});
    entry.retry_queued = true;
  }
}

void TimerCluster::CoordRetryScan() {
  while (!retry_queue_.empty() && retry_queue_.front().due <= now_) {
    const std::uint64_t key = retry_queue_.front().key;
    retry_queue_.pop_front();
    PendingTimer* found = timers_.Find(key);
    if (found == nullptr) {
      continue;
    }
    PendingTimer& entry = *found;
    entry.retry_queued = false;
    bool again = false;
    if (entry.state == PendingTimer::State::kLive) {
      const std::uint32_t full = (1u << entry.replication) - 1;
      if ((entry.arm_acked & full) != full) {
        for (std::uint32_t rank = 0; rank < entry.replication; ++rank) {
          if (!((entry.arm_acked >> rank) & 1u)) {
            ++stats_.arm_retries;
            SendArm(key, entry, rank);
          }
        }
        again = true;
      }
    } else if (!entry.disarm_done) {
      if (entry.disarm_round < config_.disarm_retry_cap) {
        ++entry.disarm_round;
        SendDisarms(key, entry);
        again = true;
      } else {
        // Unreachable replicas (dead forever, or long-partitioned — their
        // copy will pop and be suppressed by generation/state instead).
        entry.disarm_done = true;
        --pending_disarms_;
      }
    }
    if (again) {
      QueueRetry(key, entry);
    }
  }
}

void TimerCluster::RearmNodeTimers(NodeId node) {
  // Runs only on the async transport (a node-up follows a restart fault), so
  // its sends re-enter nothing and the walk may send from inside ForEach.
  timers_.ForEach([this, node](std::uint64_t key, PendingTimer& entry) {
    if (entry.state != PendingTimer::State::kLive) {
      return;
    }
    for (std::uint32_t rank = 0; rank < entry.replication; ++rank) {
      if (entry.replicas[rank] != node) {
        continue;
      }
      entry.arm_acked &= ~(1u << rank);
      ++stats_.rearms_on_node_up;
      SendArm(key, entry, rank);
      QueueRetry(key, entry);
    }
  });
}

void TimerCluster::OnCoordMessage(const net::Packet& packet) {
  const std::uint64_t key = packet.seq;
  const NodeId sender = packet.connection_id;
  switch (packet.type) {
    case net::PacketType::kClusterArmAck: {
      PendingTimer* entry = timers_.Find(key);
      if (entry != nullptr && entry->state == PendingTimer::State::kLive &&
          entry->gen == static_cast<std::uint32_t>(packet.arg0)) {
        entry->arm_acked |= 1u << (packet.arg1 & 0xFF);
      }
      return;
    }
    case net::PacketType::kClusterDisarmAck: {
      PendingTimer* found = timers_.Find(key);
      if (found == nullptr) {
        return;
      }
      PendingTimer& entry = *found;
      if (entry.state != PendingTimer::State::kLive && !entry.disarm_done &&
          entry.gen == static_cast<std::uint32_t>(packet.arg0)) {
        entry.disarm_acked |= 1u << (packet.arg1 & 0xFF);
        const std::uint32_t full = (1u << entry.replication) - 1;
        if ((entry.disarm_acked & full) == full) {
          entry.disarm_done = true;
          --pending_disarms_;
        }
      }
      return;
    }
    case net::PacketType::kClusterFire: {
      ++stats_.fire_receipts;
      const std::uint32_t gen = static_cast<std::uint32_t>(packet.arg1);
      const std::uint32_t rank =
          static_cast<std::uint32_t>(packet.arg1 >> 32) & 0xFF;
      const Tick pop_tick = packet.arg0;
      bool deliver = false;
      PendingTimer* entry = timers_.Find(key);
      if (entry == nullptr || gen != entry->gen) {
        ++stats_.stale_gen_suppressed;
      } else if (entry->state == PendingTimer::State::kCancelled) {
        ++stats_.after_cancel_suppressed;
      } else if (entry->state == PendingTimer::State::kFired) {
        ++stats_.duplicate_suppressed;
      } else {
        deliver = true;
      }
      if (deliver) {
        entry->state = PendingTimer::State::kFired;
        --live_count_;
        ++stats_.delivered;
        events_.push_back(
            {ClientEventKind::kFired, key, gen, now_, pop_tick});
        // The popping replica resolves via the fire-ack, not a disarm.
        entry->disarm_acked = 1u << rank;
        BeginDisarm(key, *entry, /*fired=*/true);
      }
      // Ack the notify regardless of classification so the sender stops
      // retransmitting; the callback runs last — it may re-enter the cluster
      // and insert into timers_, so `entry` is dead from here on.
      net::Packet ack;
      ack.connection_id = kCoordinatorId;
      ack.seq = key;
      ack.type = net::PacketType::kClusterFireAck;
      ack.arg0 = gen;
      SendToNode(sender, ack);
      if (deliver && fire_callback_) {
        fire_callback_(key, gen, pop_tick);
      }
      return;
    }
    case net::PacketType::kClusterNodeUp: {
      net::Packet ack;
      ack.connection_id = kCoordinatorId;
      ack.type = net::PacketType::kClusterNodeUpAck;
      ack.arg0 = packet.arg0;
      SendToNode(sender, ack);
      if (packet.arg0 > node_epoch_seen_[sender]) {
        node_epoch_seen_[sender] = packet.arg0;
        RearmNodeTimers(sender);
      }
      return;
    }
    default:
      return;
  }
}

// --- node internals ----------------------------------------------------------

void TimerCluster::MakeHost(NodeId node) {
  nodes_[node].host = MakeTimerService(config_.node_scheme);
  nodes_[node].host->set_expiry_handler(
      [this, node](RequestId key, Tick /*host_now*/, bool /*last*/) {
        OnHostPop(node, key);
      });
}

void TimerCluster::OnHostPop(NodeId node, std::uint64_t key) {
  Node& n = nodes_[node];
  ReplicaLocal* replica = n.local.Find(key);
  if (replica == nullptr || replica->popped) {
    ++stats_.orphan_pops;
    return;
  }
  replica->popped = true;
  replica->pop_tick = now_;
  ++stats_.pops;
  // Copy everything needed before the first send: with synchronous transport
  // the notify chain (fire -> fire-ack) erases this very entry re-entrantly,
  // and the callback's Set may insert into the table and move it.
  const std::uint32_t gen = replica->gen;
  const std::uint32_t rank = replica->rank;
  const std::uint32_t replication = replica->replication;
  PushRetry(n.notify_retry, {now_ + config_.retry_every, key, gen});
  SendFireNotify(node, key, gen, rank, now_);
  // Best-effort lease-extension hints: peers push their takeover lease out
  // rather than cancelling it, so a lost hint can only cost a duplicate pop.
  const NodeId start = ReplicaStart(key);
  const std::uint32_t count = ReplicaCount(replication);
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId peer = static_cast<NodeId>((start + i) % nodes_.size());
    if (peer == node) {
      continue;
    }
    net::Packet hint;
    hint.connection_id = node;
    hint.seq = key;
    hint.type = net::PacketType::kClusterSuppress;
    hint.arg0 = gen;
    SendNodeToNode(node, peer, hint);
  }
}

void TimerCluster::SendFireNotify(NodeId node, std::uint64_t key,
                                  std::uint32_t gen, std::uint32_t rank,
                                  Tick pop_tick) {
  net::Packet notify;
  notify.connection_id = node;
  notify.seq = key;
  notify.type = net::PacketType::kClusterFire;
  notify.arg0 = pop_tick;
  notify.arg1 = static_cast<std::uint64_t>(gen) |
                (static_cast<std::uint64_t>(rank) << 32);
  SendToCoord(node, notify);
}

void TimerCluster::OnNodeMessage(NodeId node, const net::Packet& packet) {
  Node& n = nodes_[node];
  const std::uint64_t key = packet.seq;
  switch (packet.type) {
    case net::PacketType::kClusterArm: {
      const std::uint32_t gen = static_cast<std::uint32_t>(packet.arg1 >> 16);
      const std::uint32_t rank =
          static_cast<std::uint32_t>(packet.arg1 >> 8) & 0xFF;
      const std::uint32_t replication =
          static_cast<std::uint32_t>(packet.arg1) & 0xFF;
      const Tick deadline = packet.arg0;
      ReplicaLocal* replica = n.local.Find(key);
      if (replica != nullptr && replica->gen >= gen) {
        // Duplicate (retried) or stale arm: idempotent, just re-ack.
      } else {
        // A newer generation replaces the replica in its slot.
        if (replica != nullptr && !replica->popped) {
          n.host->StopTimer(replica->handle);
        }
        // The rank-k lease: arm the HOST scheme for the deadline plus k
        // failover delays (catching up past-due deadlines to the host's next
        // tick). Both the floor and the interval are computed on the host's
        // own clock position — see Node::host_base.
        const Tick host_now = n.host_base + n.host->now();
        const Tick target = std::max(deadline, host_now + 1) +
                            static_cast<Tick>(rank) * config_.failover_delay;
        StartResult started = n.host->StartTimer(target - host_now, key);
        if (!started.has_value()) {
          if (replica != nullptr) {
            n.local.EraseAt(replica);
            --replica_entries_;
          }
          ++stats_.arm_rejects;  // config error; no ack, coordinator retries
          return;
        }
        if (replica == nullptr) {
          replica = n.local.FindOrInsert(key).first;
          ++replica_entries_;
        }
        *replica = ReplicaLocal{.deadline = deadline,
                                .gen = gen,
                                .rank = rank,
                                .replication = replication,
                                .handle = started.value()};
      }
      net::Packet ack;
      ack.connection_id = node;
      ack.seq = key;
      ack.type = net::PacketType::kClusterArmAck;
      ack.arg0 = gen;
      ack.arg1 = rank;
      SendToCoord(node, ack);
      return;
    }
    case net::PacketType::kClusterDisarm: {
      const std::uint32_t gen = static_cast<std::uint32_t>(packet.arg0);
      const bool fired = ((packet.arg1 >> 8) & 1u) != 0;
      const ReplicaLocal* replica = n.local.Find(key);
      if (replica != nullptr && replica->gen <= gen) {
        if (!replica->popped) {
          n.host->StopTimer(replica->handle);
          if (fired) {
            ++stats_.lease_disarms;
          } else {
            ++stats_.cancel_disarms;
          }
        }
        // A popped entry's pending notify dies with it: the coordinator has
        // already resolved this generation.
        n.local.EraseAt(replica);
        --replica_entries_;
      }
      net::Packet ack;
      ack.connection_id = node;
      ack.seq = key;
      ack.type = net::PacketType::kClusterDisarmAck;
      ack.arg0 = packet.arg0;
      ack.arg1 = packet.arg1 & 0xFF;  // echo the rank
      SendToCoord(node, ack);
      return;
    }
    case net::PacketType::kClusterSuppress: {
      const std::uint32_t gen = static_cast<std::uint32_t>(packet.arg0);
      ReplicaLocal* replica = n.local.Find(key);
      if (replica != nullptr && replica->gen == gen && !replica->popped &&
          replica->extensions < kMaxLeaseExtensions) {
        if (n.host->RestartTimer(replica->handle, config_.failover_delay) ==
            TimerError::kOk) {
          ++replica->extensions;
          ++stats_.lease_extensions;
        }
      }
      return;
    }
    case net::PacketType::kClusterFireAck: {
      const ReplicaLocal* replica = n.local.Find(key);
      if (replica != nullptr && replica->popped &&
          replica->gen == static_cast<std::uint32_t>(packet.arg0)) {
        n.local.EraseAt(replica);
        --replica_entries_;
      }
      return;
    }
    case net::PacketType::kClusterNodeUpAck: {
      if (packet.arg0 == n.epoch) {
        n.up_acked = true;
      }
      return;
    }
    default:
      return;
  }
}

void TimerCluster::NodeRetryScan(NodeId node) {
  Node& n = nodes_[node];
  if (!n.up_acked && now_ >= n.next_up_retry) {
    net::Packet up;
    up.connection_id = node;
    up.type = net::PacketType::kClusterNodeUp;
    up.arg0 = n.epoch;
    SendToCoord(node, up);
    n.next_up_retry = now_ + config_.retry_every;
  }
  while (!n.notify_retry.empty() && n.notify_retry.front().due <= now_) {
    const Retry retry = n.notify_retry.front();
    n.notify_retry.pop_front();
    const ReplicaLocal* replica = n.local.Find(retry.key);
    if (replica == nullptr || !replica->popped || replica->gen != retry.gen) {
      continue;  // resolved or superseded since the retry was queued
    }
    ++stats_.notify_retries;
    // The arguments copy the replica's fields before the send re-enters.
    SendFireNotify(node, retry.key, retry.gen, replica->rank,
                   replica->pop_tick);
    PushRetry(n.notify_retry,
              {now_ + config_.retry_every, retry.key, retry.gen});
  }
}

// --- clock -------------------------------------------------------------------

void TimerCluster::ApplyFaults() {
  while (schedule_cursor_ < schedule_.events.size() &&
         schedule_.events[schedule_cursor_].at <= now_) {
    const FaultEvent& event = schedule_.events[schedule_cursor_++];
    Node& n = nodes_[event.node];
    switch (event.kind) {
      case FaultKind::kKill:
        if (n.alive) {
          n.alive = false;
          n.host.reset();
          replica_entries_ -= n.local.size();
          n.local = {};
          n.notify_retry.clear();
          ++stats_.kills;
        }
        break;
      case FaultKind::kRestart:
        if (!n.alive) {
          n.alive = true;
          ++n.epoch;
          // The fresh host ticks to 1 later this very Step (faults apply
          // before hosts tick), anchoring host tick 1 at cluster tick now_.
          n.host_base = now_ - 1;
          MakeHost(event.node);
          n.up_acked = false;
          n.next_up_retry = now_;  // announce this very tick
          ++stats_.node_restarts;
        }
        break;
      case FaultKind::kPartitionStart:
        n.partitioned = true;
        ++stats_.partitions;
        break;
      case FaultKind::kPartitionEnd:
        n.partitioned = false;
        break;
      case FaultKind::kDropStart:
        n.dropping = true;
        ++stats_.drop_windows;
        break;
      case FaultKind::kDropEnd:
        n.dropping = false;
        break;
    }
  }
}

void TimerCluster::Step() {
  ++now_;
  ApplyFaults();
  if (network_ != nullptr) {
    network_->Step();
  }
  for (Node& n : nodes_) {
    if (n.alive) {
      n.host->PerTickBookkeeping();
    }
  }
  CoordRetryScan();
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive) {
      NodeRetryScan(i);
    }
  }
}

bool TimerCluster::quiesced() const {
  return live_count_ == 0 && replica_entries_ == 0 && pending_disarms_ == 0 &&
         (network_ == nullptr || network_->pending() == 0);
}

Tick TimerCluster::Drain(Tick max_ticks) {
  Tick stepped = 0;
  while (!quiesced() && stepped < max_ticks) {
    Step();
    ++stepped;
  }
  return stepped;
}

std::uint64_t TimerCluster::link_drops() const {
  std::uint64_t total = 0;
  for (const auto& channel : up_) {
    total += channel->dropped();
  }
  for (const auto& channel : down_) {
    total += channel->dropped();
  }
  for (const auto& channel : mesh_) {
    if (channel != nullptr) {
      total += channel->dropped();
    }
  }
  return total;
}

}  // namespace twheel::cluster
