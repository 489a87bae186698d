// A warm replicated cluster makes almost no heap allocation per delivered
// fire. This binary replaces the global allocation functions with counting
// forwards to malloc and free, so the count covers every operator new the
// coordinator, the replica tables, the host schemes, the channels and the
// network clock make while the cluster runs.
//
// The retry FIFOs reuse their buffers, so what remains is events() doubling:
// a handful of allocations over the whole window.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/cluster/cluster.h"
#include "src/rng/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) {
    size = 1;
  }
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace twheel::cluster {
namespace {

TEST(ClusterAllocTest, WarmSteadyStateAllocatesAlmostNothingPerFire) {
  // The e2ebench cluster shape: 3 nodes, R=2, lossless 1..2-tick links,
  // Scheme 6 hosts, 2048 keys each re-set from its own fire callback.
  ClusterConfig config;
  config.nodes = 3;
  config.replication_factor = 2;
  config.link.loss_probability = 0.0;
  config.link.delay_lo = 1;
  config.link.delay_hi = 2;
  config.node_scheme.scheme = SchemeId::kScheme6HashedUnsorted;
  config.node_scheme.wheel_size = 1u << 14;
  TimerCluster cluster(config);
  rng::Xoshiro256 rng(18);
  constexpr std::uint64_t kKeys = 2048;
  constexpr Duration kMaxInterval = 1024;
  cluster.set_fire_callback([&](std::uint64_t key, std::uint32_t, Tick) {
    ASSERT_TRUE(cluster.Set(key, 1 + rng.NextBounded(kMaxInterval)));
  });
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(cluster.Set(key, 1 + rng.NextBounded(kMaxInterval)));
  }
  // Warm through two full interval spreads: the tables, slabs, host arenas
  // and the network clock grow to their steady size.
  for (Duration t = 0; t < 2 * kMaxInterval; ++t) {
    cluster.Step();
  }

  constexpr std::uint64_t kFires = 20000;
  const std::uint64_t delivered_before = cluster.stats().delivered;
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (Tick t = 0; t < 100000 && cluster.stats().delivered - delivered_before < kFires;
       ++t) {
    cluster.Step();
  }
  g_counting.store(false, std::memory_order_relaxed);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t fires = cluster.stats().delivered - delivered_before;

  ASSERT_GE(fires, kFires);
  EXPECT_EQ(cluster.live_timers(), kKeys);
  EXPECT_EQ(cluster.stats().arm_rejects, 0u);
  const double per_fire = static_cast<double>(allocations) / static_cast<double>(fires);
  EXPECT_LE(per_fire, 0.01) << allocations << " heap allocations over " << fires
                            << " delivered fires";
}

}  // namespace
}  // namespace twheel::cluster
