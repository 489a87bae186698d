// ClusterFacadeService: the whole replicated cluster behind the four-routine
// TimerService interface, so the decide-then-replay differential driver
// (src/verify/) can torture the replication protocol against OracleTimers.
//
// The wrapped TimerCluster runs in synchronous-transport mode — messages are
// direct calls, no loss, no delay, no faults — which makes the protocol's
// client-visible semantics EXACT: a Set with interval k delivers its fire on
// the k-th subsequent PerTickBookkeeping, precisely what the driver's oracle
// demands. Everything else still runs for real: generation bumps, replica-set
// fan-out, rank leases armed in the host schemes, pop/notify/disarm rounds,
// suppress hints. A protocol bug that double-delivers, loses a cancel, or
// skews a deadline shows up as a differential divergence, tick by tick.
//
// Handle discipline mirrors verify::OracleTimers: slots are never recycled
// (slot == cluster key), generation is always 1, and a stale poke gets
// kNoSuchTimer. Periodic registration is kNotSupported (the driver must run
// with periodic_probability = 0).

#ifndef TWHEEL_SRC_CLUSTER_FACADE_SERVICE_H_
#define TWHEEL_SRC_CLUSTER_FACADE_SERVICE_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/base/types.h"
#include "src/cluster/cluster.h"
#include "src/core/timer_service.h"

namespace twheel::cluster {

struct FacadeConfig {
  std::size_t nodes = 3;
  std::uint32_t replication_factor = 2;
  Duration failover_delay = 12;
  std::uint64_t seed = 1;
  FacilityConfig node_scheme;  // host scheme each node runs
};

class ClusterFacadeService final : public TimerService {
 public:
  explicit ClusterFacadeService(const FacadeConfig& config) {
    ClusterConfig cluster_config;
    cluster_config.nodes = config.nodes;
    cluster_config.replication_factor = config.replication_factor;
    cluster_config.failover_delay = config.failover_delay;
    cluster_config.seed = config.seed;
    cluster_config.node_scheme = config.node_scheme;
    cluster_config.synchronous_transport = true;
    cluster_ = std::make_unique<TimerCluster>(cluster_config);
    cluster_->set_fire_callback(
        [this](std::uint64_t key, std::uint32_t /*gen*/, Tick /*pop_tick*/) {
          auto it = live_.find(key);
          if (it == live_.end()) {
            return;  // unreachable: the cluster delivers each gen once
          }
          const RequestId request_id = it->second;
          // Erase BEFORE dispatch: a handler poking its own just-fired handle
          // must see kNoSuchTimer, exactly like the schemes and the oracle.
          live_.erase(it);
          ++counts_.expiries;
          ++counts_.expiry_dispatches;
          ++tick_expiries_;
          // Every fire is last: the facade starts no periodics.
          if (handler_) {
            handler_(request_id, cluster_->now(), /*last=*/true);
          }
        });
  }

  StartResult StartTimer(Duration interval, RequestId request_id) override {
    ++counts_.start_calls;
    if (interval == 0) {
      return TimerError::kZeroInterval;
    }
    if (!cluster_->Set(next_key_, interval)) {
      // The deadline plus the replicas' leases would pass the end of Tick.
      return TimerError::kIntervalOutOfRange;
    }
    const std::uint64_t key = next_key_++;
    live_.emplace(key, request_id);
    ++counts_.insert_link_ops;
    // Generation 1 everywhere, like verify::OracleTimers: keys are never
    // recycled, so any other generation is garbage by construction.
    return TimerHandle{static_cast<std::uint32_t>(key), 1};
  }

  TimerError StopTimer(TimerHandle handle) override {
    ++counts_.stop_calls;
    if (!handle.valid() || handle.generation != 1) {
      return TimerError::kNoSuchTimer;
    }
    auto it = live_.find(handle.slot);
    if (it == live_.end()) {
      return TimerError::kNoSuchTimer;
    }
    if (!cluster_->Cancel(it->first)) {
      return TimerError::kNoSuchTimer;  // unreachable while live_ is in sync
    }
    live_.erase(it);
    ++counts_.delete_unlink_ops;
    return TimerError::kOk;
  }

  TimerError RestartTimer(TimerHandle handle, Duration new_interval) override {
    if (new_interval == 0) {
      return TimerError::kZeroInterval;
    }
    if (!handle.valid() || handle.generation != 1) {
      return TimerError::kNoSuchTimer;
    }
    auto it = live_.find(handle.slot);
    if (it == live_.end()) {
      return TimerError::kNoSuchTimer;
    }
    if (!cluster_->Restart(it->first, new_interval)) {
      // A miss is unreachable while live_ is in sync: the leases would pass the
      // end of Tick.
      return TimerError::kIntervalOutOfRange;
    }
    ++counts_.restart_calls;
    ++counts_.restart_relink_ops;
    return TimerError::kOk;
  }

  std::size_t PerTickBookkeeping() override {
    ++counts_.ticks;
    tick_expiries_ = 0;
    cluster_->Step();
    return tick_expiries_;
  }

  Tick now() const override { return cluster_->now(); }
  std::size_t outstanding() const override { return live_.size(); }
  metrics::OpCounts counts() const override { return counts_; }
  std::string_view name() const override { return "cluster-facade"; }

  void set_expiry_handler(ExpiryHandler handler) override {
    handler_ = std::move(handler);
  }

  SpaceProfile Space() const override {
    SpaceProfile profile;
    profile.hot_record_bytes = 0;
    profile.cold_record_bytes = 0;
    profile.actual_record_bytes = 0;
    // The replication cost in space: R replica-side records plus the
    // coordinator entry per timer, across the cluster.
    profile.auxiliary_bytes =
        live_.size() * sizeof(std::pair<std::uint64_t, RequestId>);
    return profile;
  }

  const TimerCluster& cluster() const { return *cluster_; }

 private:
  std::unique_ptr<TimerCluster> cluster_;
  std::unordered_map<std::uint64_t, RequestId> live_;
  std::uint64_t next_key_ = 0;
  std::size_t tick_expiries_ = 0;
  metrics::OpCounts counts_;
  ExpiryHandler handler_;
};

}  // namespace twheel::cluster

#endif  // TWHEEL_SRC_CLUSTER_FACADE_SERVICE_H_
