// TimerCluster basics: exact client semantics on the synchronous transport,
// eventual exactly-once on the lossy async transport with no faults, and the
// replica-placement function's contract. Every episode ends with a
// ClusterOracle::Check pass — the oracle is exercised here on the EASY cases
// so a fault-matrix failure (cluster_fault_test.cc) can be trusted to indict
// the protocol, not the referee.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/cluster_oracle.h"
#include "src/cluster/fault_schedule.h"

namespace twheel::cluster {
namespace {

struct Fire {
  std::uint64_t key;
  std::uint32_t gen;
  Tick pop;
  friend bool operator==(const Fire&, const Fire&) = default;
};

class FireLog {
 public:
  explicit FireLog(TimerCluster& cluster) {
    cluster.set_fire_callback(
        [this](std::uint64_t key, std::uint32_t gen, Tick pop) {
          fires_.push_back({key, gen, pop});
        });
  }
  const std::vector<Fire>& fires() const { return fires_; }

 private:
  std::vector<Fire> fires_;
};

void ExpectOracleOk(const TimerCluster& cluster, const ClusterConfig& config,
                    const FaultSchedule& schedule = {}) {
  ClusterOracle oracle(config, schedule);
  const OracleReport report = oracle.Check(cluster.events(), cluster.stats());
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(ClusterBasicTest, SynchronousFiresAtExactDeadlines) {
  ClusterConfig config;
  config.synchronous_transport = true;
  TimerCluster cluster(config);
  FireLog log(cluster);

  EXPECT_FALSE(cluster.Set(1, 0)) << "zero interval must be refused";
  ASSERT_TRUE(cluster.Set(1, 5));
  ASSERT_TRUE(cluster.Set(2, 3));
  EXPECT_EQ(cluster.live_timers(), 2u);
  for (int t = 0; t < 10; ++t) {
    cluster.Step();
  }
  const std::vector<Fire> want = {{2, 1, 3}, {1, 1, 5}};
  EXPECT_EQ(log.fires(), want);
  EXPECT_TRUE(cluster.quiesced());
  EXPECT_EQ(cluster.stats().delivered, 2u);
  EXPECT_EQ(cluster.stats().duplicate_suppressed, 0u);
  ExpectOracleOk(cluster, config);
}

// A Set or Restart whose deadline plus the latest lease a replica can arm
// would pass the end of Tick is refused; the live timer keeps its old
// deadline and fires exactly once.
TEST(ClusterBasicTest, DeadlinesPastTheEndOfTickAreRefused) {
  ClusterConfig config;
  config.synchronous_transport = true;
  TimerCluster cluster(config);
  FireLog log(cluster);
  cluster.Step();

  const Duration huge = std::numeric_limits<Duration>::max() - 2;
  EXPECT_FALSE(cluster.Set(1, huge));
  ASSERT_TRUE(cluster.Set(2, 5));
  EXPECT_FALSE(cluster.Restart(2, huge));
  EXPECT_EQ(cluster.live_timers(), 1u);
  for (int t = 0; t < 20; ++t) {
    cluster.Step();
  }
  const std::vector<Fire> want = {{2, 1, 6}};
  EXPECT_EQ(log.fires(), want);
  EXPECT_TRUE(cluster.quiesced());
  ExpectOracleOk(cluster, config);
}

TEST(ClusterBasicTest, AcknowledgedCancelNeverFires) {
  ClusterConfig config;
  config.synchronous_transport = true;
  TimerCluster cluster(config);
  FireLog log(cluster);

  ASSERT_TRUE(cluster.Set(7, 10));
  for (int t = 0; t < 4; ++t) {
    cluster.Step();
  }
  ASSERT_TRUE(cluster.Cancel(7));
  EXPECT_FALSE(cluster.Cancel(7)) << "second cancel must miss";
  cluster.Drain(100);
  EXPECT_TRUE(cluster.quiesced());
  EXPECT_TRUE(log.fires().empty());
  EXPECT_EQ(cluster.stats().cancels, 1u);
  EXPECT_EQ(cluster.stats().cancel_misses, 1u);
  ExpectOracleOk(cluster, config);
}

TEST(ClusterBasicTest, RestartMovesTheDeadline) {
  ClusterConfig config;
  config.synchronous_transport = true;
  TimerCluster cluster(config);
  FireLog log(cluster);

  ASSERT_TRUE(cluster.Set(1, 4));
  cluster.Step();
  cluster.Step();  // now = 2, original deadline 4
  EXPECT_FALSE(cluster.Restart(1, 0));
  EXPECT_FALSE(cluster.Restart(99, 5)) << "restart of unknown key must miss";
  ASSERT_TRUE(cluster.Restart(1, 10));  // new deadline 12, gen 2
  cluster.Drain(50);
  const std::vector<Fire> want = {{1, 2, 12}};
  EXPECT_EQ(log.fires(), want) << "must fire at the restarted deadline only";
  ExpectOracleOk(cluster, config);
}

TEST(ClusterBasicTest, ReplacingSetSupersedesTheOldGeneration) {
  ClusterConfig config;
  config.synchronous_transport = true;
  TimerCluster cluster(config);
  FireLog log(cluster);

  ASSERT_TRUE(cluster.Set(1, 5));
  cluster.Step();  // now = 1
  ASSERT_TRUE(cluster.Set(1, 7));  // gen 2, deadline 8 — gen 1 must not fire
  cluster.Drain(50);
  const std::vector<Fire> want = {{1, 2, 8}};
  EXPECT_EQ(log.fires(), want);
  ExpectOracleOk(cluster, config);
}

TEST(ClusterBasicTest, FireCallbackMayReenterTheCluster) {
  ClusterConfig config;
  config.synchronous_transport = true;
  TimerCluster cluster(config);
  int fires = 0;
  cluster.set_fire_callback(
      [&cluster, &fires](std::uint64_t key, std::uint32_t, Tick) {
        if (++fires < 4) {
          cluster.Set(key, 3);  // re-arm the same key from inside delivery
        }
      });
  ASSERT_TRUE(cluster.Set(1, 3));
  cluster.Drain(50);
  EXPECT_EQ(fires, 4) << "chain of in-callback re-sets: 3, 6, 9, 12";
  EXPECT_TRUE(cluster.quiesced());
  ExpectOracleOk(cluster, config);
}

TEST(ClusterBasicTest, ReplicaSetsAreDistinctRankedAndDeterministic) {
  ClusterConfig config;
  config.nodes = 4;
  TimerCluster cluster(config);
  bool node_used[4] = {false, false, false, false};
  for (std::uint64_t key = 0; key < 512; ++key) {
    const std::vector<NodeId> set = cluster.ReplicaSetFor(key, 2);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_NE(set[0], set[1]);
    EXPECT_LT(set[0], 4u);
    EXPECT_LT(set[1], 4u);
    EXPECT_EQ(set, cluster.ReplicaSetFor(key, 2)) << "must be a pure function";
    node_used[set[0]] = true;
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(node_used[i]) << "placement never owns node " << i;
  }
  // Replication clamps to the cluster size.
  EXPECT_EQ(cluster.ReplicaSetFor(1, 99).size(), 4u);
  EXPECT_EQ(cluster.ReplicaSetFor(1, 0).size(), 1u);
}

TEST(ClusterBasicTest, LossyAsyncNoFaultsIsStillExactlyOnce) {
  ClusterConfig config;  // default links: 5% loss, delay 2..10
  config.nodes = 4;
  config.replication_factor = 2;
  config.seed = 3;
  TimerCluster cluster(config);
  FireLog log(cluster);

  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(cluster.Set(key, 1 + (key % 40)));
  }
  for (int t = 0; t < 10; ++t) {
    cluster.Step();
  }
  // Cancel a band mid-flight; the acks are immediate (coordinator-local).
  std::uint64_t cancelled = 0;
  for (std::uint64_t key = 20; key < 30; ++key) {
    if (cluster.Cancel(key)) {
      ++cancelled;
    }
  }
  cluster.Drain(5000);
  ASSERT_TRUE(cluster.quiesced());
  EXPECT_EQ(log.fires().size(), kKeys - cancelled);
  EXPECT_EQ(cluster.stats().delivered, kKeys - cancelled);
  EXPECT_GT(cluster.link_drops(), 0u) << "lossy links were never exercised";
  ExpectOracleOk(cluster, config);
}

TEST(ClusterBasicTest, OracleRejectsADoctoredTrace) {
  // The referee must actually referee: duplicate a fire event and the check
  // fails; drop the delivery and the completeness check fails.
  ClusterConfig config;
  config.synchronous_transport = true;
  TimerCluster cluster(config);
  FireLog log(cluster);
  ASSERT_TRUE(cluster.Set(1, 3));
  cluster.Drain(20);
  ClusterOracle oracle(config, {});
  ASSERT_TRUE(oracle.Check(cluster.events(), cluster.stats()).ok);

  std::vector<ClientEvent> doctored = cluster.events();
  doctored.push_back(doctored.back());  // second kFired for the same gen
  EXPECT_FALSE(oracle.Check(doctored, cluster.stats()).ok);

  std::vector<ClientEvent> lost(cluster.events().begin(),
                                cluster.events().end() - 1);
  EXPECT_FALSE(oracle.Check(lost, cluster.stats()).ok)
      << "a lost fire must fail completeness";
}

// Channels raise delay_hi to delay_lo, so an inverted link window is as slow as
// the clamped one and the oracle's bounds must match it.
TEST(ClusterBasicTest, OracleSlopReadsTheClampedLinkWindow) {
  ClusterConfig inverted;
  inverted.link.delay_lo = 5;
  inverted.link.delay_hi = 2;
  ClusterConfig clamped;
  clamped.link.delay_lo = 5;
  clamped.link.delay_hi = 5;
  const ClusterOracle a(inverted, {});
  const ClusterOracle b(clamped, {});
  EXPECT_EQ(a.slop_bound(), b.slop_bound());
  EXPECT_EQ(a.delivery_slack(), b.delivery_slack());
}

// Configuration checks stay on in NDEBUG builds (TWHEEL_ASSERT_MSG, not
// <cassert>): with retry_every = 0 an unchecked cluster re-queues every retry
// at now() and its first Step never returns.
TEST(ClusterConfigDeathTest, ZeroNodesAborts) {
  ClusterConfig config;
  config.nodes = 0;
  EXPECT_DEATH(TimerCluster cluster(config), "at least one node");
}

TEST(ClusterConfigDeathTest, ZeroFailoverDelayAborts) {
  ClusterConfig config;
  config.failover_delay = 0;
  EXPECT_DEATH(TimerCluster cluster(config), "failover_delay");
}

TEST(ClusterConfigDeathTest, ZeroRetryCadenceAborts) {
  ClusterConfig config;
  config.retry_every = 0;
  EXPECT_DEATH(TimerCluster cluster(config), "retry_every");
}

TEST(ClusterConfigDeathTest, SynchronousTransportWithFaultsAborts) {
  ClusterConfig config;
  config.synchronous_transport = true;
  FaultSchedule schedule;
  schedule.events.push_back({5, FaultKind::kKill, 0});
  EXPECT_DEATH(TimerCluster cluster(config, schedule), "no fault schedule");
}

}  // namespace
}  // namespace twheel::cluster
