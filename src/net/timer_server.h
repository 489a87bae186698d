// A networked timer facility: the paper's timer module behind a protocol.
//
// Client sessions manage timers on a remote timer module — set one-shots, set
// periodics, restart ("update"), cancel — by sending request packets over a
// lossy Channel, and receive kTimerFire callback packets when their timers
// expire. This is ROADMAP item 1's product surface: the host scheme under test
// serves the whole population's timers, so its op-count profile under a
// realistic set/update/cancel/fire mix is directly observable.
//
// Addressing: a session is a connection_id; a timer is the session-local
// `seq` the client chose. The pair packs into the 64-bit RequestId cookie the
// timer module already carries, so an expiry dispatch routes back to its
// session without any per-timer allocation on the server.
//
// Loss tolerance: requests are idempotent where the protocol allows it — a
// duplicate kTimerSet for a live timer replaces the old registration
// (cancel-and-replace), and kTimerRestart/kTimerCancel for a timer the server
// no longer has (expired, cancelled, or the set was lost) are counted as
// stale misses, not errors. The server never retransmits callbacks: a lost
// kTimerFire is simply lost, exactly like a lost ack in Section 1's model.
//
// Concurrent dispatch: when the host is a concurrent::ShardedWheel, the server
// can hand the clock to a DispatchPool (StartDispatchPool), after which expiry
// callbacks arrive on N drainer threads at once. The server is built for that:
// the session table is striped (per-stripe mutexes, stripe chosen by session
// hash, so drainers touching different sessions never contend), the stats are
// lock-free atomics, and callback sends are serialized behind a send mutex —
// the Channel itself is single-threaded by contract. Requests still arrive on
// one thread (the harness's uplink), racing only the drainers. now() and
// AdvanceTo() let a concurrent::TickerThread drive the server, and so its pool,
// from the wall clock.

#ifndef TWHEEL_SRC_NET_TIMER_SERVER_H_
#define TWHEEL_SRC_NET_TIMER_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/concurrent/dispatch_pool.h"
#include "src/core/timer_service.h"
#include "src/net/channel.h"
#include "src/net/types.h"

namespace twheel::net {

// (session, timer) <-> RequestId cookie. Sessions are 32-bit, timer names are
// truncated to 32 bits — sessions use small per-session timer numbers.
constexpr RequestId PackTimerCookie(std::uint32_t session, std::uint64_t timer) {
  return (static_cast<RequestId>(session) << 32) |
         static_cast<std::uint32_t>(timer);
}
constexpr std::uint32_t CookieSession(RequestId cookie) {
  return static_cast<std::uint32_t>(cookie >> 32);
}
constexpr std::uint32_t CookieTimer(RequestId cookie) {
  return static_cast<std::uint32_t>(cookie);
}

struct TimerServerStats {
  std::uint64_t sets = 0;            // one-shot registrations accepted
  std::uint64_t periodic_sets = 0;   // periodic registrations accepted
  std::uint64_t replaced = 0;        // duplicate set replaced a live timer
  std::uint64_t rejected = 0;        // host refused (capacity/range)
  std::uint64_t restarts = 0;        // kTimerRestart applied
  std::uint64_t restart_misses = 0;  // kTimerRestart for an unknown timer
  std::uint64_t cancels = 0;         // kTimerCancel applied
  std::uint64_t cancel_misses = 0;   // kTimerCancel for an unknown timer
  std::uint64_t fires_sent = 0;      // kTimerFire callbacks handed to the channel
  std::uint64_t periodic_laps = 0;   // fires that left the registration armed
  std::uint64_t decode_rejects = 0;  // OnWire buffers that failed DecodePacket
};

class TimerServer {
 public:
  // `host` is the timer scheme under test; `to_client` carries callbacks.
  TimerServer(std::unique_ptr<TimerService> host, Channel& to_client);
  ~TimerServer();

  // A request packet arrived (the harness wires this as the uplink receiver).
  void OnRequest(const Packet& request);

  // A raw request buffer arrived (the byte-transport uplink). Decodes via
  // net::DecodePacket and dispatches to OnRequest; malformed buffers —
  // truncated, oversized, or with an out-of-range type byte — are counted in
  // stats().decode_rejects and otherwise ignored. Returns whether the buffer
  // decoded.
  bool OnWire(const std::uint8_t* data, std::size_t size);

  // Advance the host timer module one tick, dispatching expiry callbacks.
  // With a dispatch pool attached, the tick is delivered through the pool (all
  // drainers participate).
  void Tick();
  // The host's clock, and a batched advance to the absolute tick `target`
  // (through the pool when one is attached). Together they let a
  // concurrent::TickerThread drive the server from the wall clock.
  twheel::Tick now() const { return host_->now(); }
  std::size_t AdvanceTo(twheel::Tick target);

  // Hand the host's clock to a DispatchPool: expiry callbacks then arrive on
  // `options.drainers` threads concurrently. Returns false (and attaches
  // nothing) if the host is not a concurrent::ShardedWheel or a pool is
  // already attached. While attached, advance the clock only through Tick()
  // or AdvanceTo() (or one TickerThread over the server), never the host.
  bool StartDispatchPool(const concurrent::DispatchOptions& options);
  // Stops and detaches the pool (idempotent). After return the server is
  // single-threaded again and Tick() drives the host directly.
  void StopDispatchPool();
  bool pool_attached() const { return pool_ != nullptr; }

  // Coherent snapshot at quiesce; transiently lagging fields mid-dispatch.
  TimerServerStats stats() const;
  const TimerService& host() const { return *host_; }
  // Timers currently registered (the server-side session table's view).
  std::size_t registrations() const;

 private:
  struct Registration {
    TimerHandle handle;
    // Laps still owed, mirroring the host's repeat budget: 0 = forever,
    // 1 = next fire is final, 0 remaining after it. One-shots store 1.
    std::uint64_t remaining = 1;
    bool periodic = false;
  };

  // The striped session table. A cookie's stripe is a function of its session
  // id, so one session's set/cancel/fire traffic serializes on one stripe
  // while different sessions proceed in parallel on different drainers.
  static constexpr std::size_t kStripes = 16;  // power of two
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<RequestId, Registration> timers;
  };
  Stripe& StripeFor(RequestId cookie) {
    // Fibonacci hash of the session id; sessions are typically small dense
    // integers, so multiply-shift spreads them across stripes.
    const std::uint32_t h = CookieSession(cookie) * 0x9E3779B9u;
    return stripes_[(h >> 27) & (kStripes - 1)];
  }

  void OnExpiry(RequestId cookie, twheel::Tick now);
  void Register(RequestId cookie, const Packet& request);

  std::unique_ptr<TimerService> host_;
  Channel& to_client_;
  // Serializes kTimerFire sends from concurrent drainers: Channel counts and
  // schedules its deliveries without internal locking.
  std::mutex send_mutex_;
  Stripe stripes_[kStripes];

  struct AtomicStats {
    std::atomic<std::uint64_t> sets{0};
    std::atomic<std::uint64_t> periodic_sets{0};
    std::atomic<std::uint64_t> replaced{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> restart_misses{0};
    std::atomic<std::uint64_t> cancels{0};
    std::atomic<std::uint64_t> cancel_misses{0};
    std::atomic<std::uint64_t> fires_sent{0};
    std::atomic<std::uint64_t> periodic_laps{0};
    std::atomic<std::uint64_t> decode_rejects{0};
  };
  AtomicStats stats_;

  std::unique_ptr<concurrent::DispatchPool> pool_;
};

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_TIMER_SERVER_H_
