// MpscRing: single-thread edge cases (full ring, wraparound, drain-while-empty,
// bounded drains) plus a randomized multi-producer differential test against a
// mutex-protected model. The concurrent cases are where TSan earns its keep —
// scripts/verify.sh runs this suite in all three sanitizer configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/mpsc_queue.h"
#include "src/rng/rng.h"

namespace twheel {
namespace {

TEST(MpscRingTest, DrainWhileEmpty) {
  MpscRing<int> ring(8);
  EXPECT_TRUE(ring.EmptyFromConsumer());
  bool emptied = false;
  const std::size_t drained =
      ring.Drain(8, [](const int&) { FAIL() << "drained from empty ring"; },
                 &emptied);
  EXPECT_EQ(drained, 0u);
  EXPECT_TRUE(emptied);
}

TEST(MpscRingTest, FullRingRejectsAndRecovers) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  // Full: the reject must not perturb the ring (no ticket is claimed).
  EXPECT_FALSE(ring.TryPush(99));
  EXPECT_FALSE(ring.TryPush(100));
  std::vector<int> out;
  bool emptied = false;
  EXPECT_EQ(ring.Drain(8, [&](const int& v) { out.push_back(v); }, &emptied), 4u);
  EXPECT_TRUE(emptied);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  // Rejected values are gone; the ring is immediately usable again.
  EXPECT_TRUE(ring.TryPush(7));
  EXPECT_EQ(ring.Drain(8, [&](const int& v) { out.push_back(v); }), 1u);
  EXPECT_EQ(out.back(), 7);
}

TEST(MpscRingTest, WraparoundPreservesFifo) {
  MpscRing<std::uint64_t> ring(4);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  // Many laps around a tiny ring with varying occupancy.
  for (int lap = 0; lap < 100; ++lap) {
    const std::size_t burst = 1 + (lap % 4);
    for (std::size_t i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.TryPush(next_in));
      ++next_in;
    }
    ring.Drain(burst, [&](const std::uint64_t& v) {
      ASSERT_EQ(v, next_out);
      ++next_out;
    });
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(ring.EmptyFromConsumer());
}

TEST(MpscRingTest, DrainHonorsLimit) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
  }
  std::vector<int> out;
  bool emptied = true;
  EXPECT_EQ(ring.Drain(2, [&](const int& v) { out.push_back(v); }, &emptied), 2u);
  EXPECT_FALSE(emptied) << "limit-bounded drain must not report empty";
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  EXPECT_EQ(ring.Drain(8, [&](const int& v) { out.push_back(v); }, &emptied), 4u);
  EXPECT_TRUE(emptied);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// A drain that stops at its limit reads the next cell once more, so it still
// reports empty when nothing follows: the submission layer drains at most one
// ring's worth, and a drain that emptied a full ring must clear its
// pending-deadline hint.
TEST(MpscRingTest, DrainOfExactlyTheLimitSeesWhetherMoreFollows) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
  }
  std::vector<int> out;
  bool emptied = false;
  EXPECT_EQ(ring.Drain(4, [&](const int& v) { out.push_back(v); }, &emptied), 4u);
  EXPECT_TRUE(emptied) << "nothing follows the limit";
  ASSERT_TRUE(ring.TryPush(4));
  ASSERT_TRUE(ring.TryPush(5));
  EXPECT_EQ(ring.Drain(1, [&](const int& v) { out.push_back(v); }, &emptied), 1u);
  EXPECT_FALSE(emptied) << "a published value follows the limit";
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MpscRingTest, ReservedTicketParksDrainUntilPublish) {
  // Two-phase push: a reserved-but-unpublished cell is a hard FIFO cut — the
  // consumer must not drain it or anything behind it. ShardSubmitQueue's
  // restart protocol leans on this to interpose a commit CAS between the
  // reserve and the publish.
  MpscRing<int> ring(8);
  ASSERT_TRUE(ring.TryPush(1));
  std::uint64_t ticket;
  ASSERT_TRUE(ring.TryReserve(&ticket));
  ASSERT_TRUE(ring.TryPush(3));  // later ticket, parked behind the reservation
  std::vector<int> out;
  bool emptied = false;
  EXPECT_EQ(ring.Drain(8, [&](const int& v) { out.push_back(v); }, &emptied),
            1u)
      << "drain must stop at the unpublished cell";
  EXPECT_TRUE(emptied) << "the cut ends the drain, not the limit";
  EXPECT_EQ(out, (std::vector<int>{1}));
  ring.Publish(ticket, 2);
  EXPECT_EQ(ring.Drain(8, [&](const int& v) { out.push_back(v); }), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3})) << "ticket order preserved";
  EXPECT_TRUE(ring.EmptyFromConsumer());
}

TEST(MpscRingTest, ReserveDetectsFullWithoutPerturbing) {
  MpscRing<int> ring(4);
  std::uint64_t tickets[4];
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryReserve(&tickets[i]));
  }
  std::uint64_t overflow;
  EXPECT_FALSE(ring.TryReserve(&overflow)) << "all cells reserved: full";
  EXPECT_FALSE(ring.TryPush(99));
  for (int i = 3; i >= 0; --i) {
    ring.Publish(tickets[i], i);  // publish order need not match ticket order
  }
  std::vector<int> out;
  EXPECT_EQ(ring.Drain(8, [&](const int& v) { out.push_back(v); }), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3})) << "drain is in ticket order";
  EXPECT_TRUE(ring.TryPush(7)) << "ring immediately reusable";
}

TEST(MpscRingTest, UncontendedPushReportsNoRetries) {
  MpscRing<int> ring(8);
  std::uint64_t retries = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPush(i, &retries));
  }
  EXPECT_EQ(retries, 0u) << "single-producer pushes must be wait-free";
}

// ---------------------------------------------------------------------------
// Randomized multi-producer differential: producers mirror every successful
// push into a mutex-protected model; the consumer drains concurrently. The ring
// must deliver exactly the model's multiset, in per-producer FIFO order.
// ---------------------------------------------------------------------------

struct Item {
  std::uint32_t producer;
  std::uint64_t seq;
};

TEST(MpscRingTest, MultiProducerDifferentialAgainstMutexModel) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  // Small enough that the ring fills under contention (exercising the full
  // path and wraparound thousands of times).
  MpscRing<Item> ring(64);

  std::mutex model_mutex;
  std::deque<Item> model;  // multiset reference; order across producers is racy
  std::atomic<std::uint64_t> total_retries{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      rng::Xoshiro256 rng(0xabcd1234 + p);
      std::uint64_t retries = 0;
      for (std::uint64_t seq = 0; seq < kPerProducer; ++seq) {
        const Item item{p, seq};
        {
          // Mirror BEFORE pushing: once the consumer sees the item, the model
          // must already contain it.
          std::lock_guard<std::mutex> lock(model_mutex);
          model.push_back(item);
        }
        while (!ring.TryPush(item, &retries)) {
          std::this_thread::yield();  // full: wait for the consumer
        }
        if (rng.NextBool(0.01)) {
          std::this_thread::yield();  // jitter the interleavings
        }
      }
      total_retries.fetch_add(retries, std::memory_order_relaxed);
    });
  }

  std::vector<Item> consumed;
  consumed.reserve(kProducers * kPerProducer);
  while (consumed.size() < kProducers * kPerProducer) {
    ring.Drain(64, [&](const Item& item) { consumed.push_back(item); });
  }
  for (std::thread& t : producers) {
    t.join();
  }

  ASSERT_EQ(consumed.size(), kProducers * kPerProducer);
  EXPECT_TRUE(ring.EmptyFromConsumer());

  // Per-producer FIFO: each producer's sequence numbers arrive in order.
  std::uint64_t next_seq[kProducers] = {};
  for (const Item& item : consumed) {
    ASSERT_LT(item.producer, kProducers);
    ASSERT_EQ(item.seq, next_seq[item.producer])
        << "producer " << item.producer << " reordered";
    ++next_seq[item.producer];
  }
  // Multiset equality with the model (sorted comparison).
  std::vector<Item> expected(model.begin(), model.end());
  auto key = [](const Item& i) {
    return (static_cast<std::uint64_t>(i.producer) << 48) | i.seq;
  };
  std::sort(consumed.begin(), consumed.end(),
            [&](const Item& a, const Item& b) { return key(a) < key(b); });
  std::sort(expected.begin(), expected.end(),
            [&](const Item& a, const Item& b) { return key(a) < key(b); });
  ASSERT_EQ(consumed.size(), expected.size());
  for (std::size_t i = 0; i < consumed.size(); ++i) {
    ASSERT_EQ(key(consumed[i]), key(expected[i])) << "multiset divergence";
  }
}

}  // namespace
}  // namespace twheel
