// A networked timer facility: the paper's timer module behind a protocol.
//
// Client sessions manage timers on a remote timer module — set one-shots, set
// periodics, restart ("update"), cancel — by sending request packets over a
// lossy Channel, and receive kTimerFire callback packets when their timers
// expire. The host scheme under test serves the whole population's timers, so
// its op-count profile under a realistic set/update/cancel/fire mix is
// directly observable.
//
// Addressing: a session is a connection_id; a timer is the session-local
// `seq` the client chose. The pair packs into a 64-bit cookie that names the
// timer in the session table. The host is armed with a different 64-bit id:
// the generational slab reference of the registration's expiry record. An
// expiry resolves that id by array index, and a fire that belongs to an older
// registration of the same cookie finds a stale reference, so it never
// consumes a newer one.
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
// hash, so drainers touching different sessions never contend), each stripe
// keeps its own counters as plain fields written under the stripe mutex the
// request or expiry already holds, and callback sends are serialized behind a
// send mutex — the Channel itself is single-threaded by contract. Requests
// still arrive on one thread (the harness's uplink), racing only the drainers.
// now() and AdvanceTo() let a concurrent::TickerThread drive the server, and
// so its pool, from the wall clock.
//
// A sharded host claims a fire under its shard lock and delivers it later,
// outside every lock. A cancel or replacing set that lands in between finds
// the host timer already spent (StopTimer misses). The server then keeps the
// old registration's expiry record until the claimed fire arrives, and counts
// that fire as fired, so every accepted set ends as exactly one of fired,
// cancelled or replaced. A periodic lap claimed before a committed stop finds
// its expiry record freed and is dropped.
//
// Laps. The host says whether a fire ends its timer (ExpiryHandler's `last`),
// so the server keeps no copy of a periodic's lap budget: a fire that is not
// last is a lap and leaves the registration armed; a last fire — a one-shot's,
// a periodic's final lap, or one whose next lap the host dropped at the end of
// Tick — resolves it.
//
// Restarts. Section 2's retransmission timer is restarted by nearly every ACK
// and almost never expires, so a kTimerRestart of a live one-shot is lazy when
// it can be: if the new deadline (now() + interval) is no earlier than the one
// recorded for the registration, the interval is no longer than one the host
// already accepted for it, and the recorded deadline is still ahead of now(),
// the server only records the new deadline, under the stripe mutex the request
// holds, and makes no host call. The host timer then fires at its old deadline
// as a *check-in*: OnExpiry re-arms it with StartTimer(recorded - now()),
// keeping the same expiry record and storing the new handle on the
// registration, and sends nothing. If the host's clock already reached the
// recorded deadline (a batched advance crossed both), the check-in sends the
// fire at once with arg0 = the recorded deadline. Restarts to an earlier
// deadline or by a longer interval, restarts of periodics, cancels and
// replacing sets call the host as before. A check-in is counted in
// stats().checkins.
//
// A claimed check-in is not an expiry. A cancel, replacing set or restart that
// finds its host timer spent because a check-in was claimed and not yet
// delivered (a DispatchPool split) resolves against the recorded deadline:
// while it is ahead of now(), the cancel or set wins (the expiry record is
// freed, so the check-in is dropped on delivery) and the restart records its
// deadline; once now() reached it, the fire wins: a cancel or set sends it
// itself with arg0 = the recorded deadline, and a restart misses. If the host
// refuses a check-in's re-arm (capacity), the timer is dropped: the
// registration and its expiry record go, nothing is sent, and the refusal is
// counted in both checkins and rejected. (A check-in starts a host timer from
// inside the expiry handler, so a ShardedWheel host should refuse rather than
// wait: under SubmitPolicy::kSpin a full ring would make the handler wait for
// a drain that only its own thread can run.) So every accepted set ends
// exactly once — fired, cancelled, replaced, or refused at a check-in:
//
//   sets + periodic_sets == cancels + replaced + (fires_sent - periodic_laps)
//                           + check-ins refused
//
// Never early. A fire's arg0 is never before the deadline the client last
// set, and the host had reached tick arg0 when the fire was sent. Without a
// DispatchPool arg0 is exactly that deadline, through Tick() or a batched
// AdvanceTo alike. Under a pool a drainer may deliver a check-in after its
// shard has already advanced past the recorded deadline; the re-armed timer
// then fires at the shard's next step, late, and its arg0 says so. Inside one
// multi-tick ShardedWheel batch the fires go out in host tick order, and a
// check-in that fires at once carries its recorded deadline at its
// check-in's place, so arg0 need not be non-decreasing within a batch.

#ifndef TWHEEL_SRC_NET_TIMER_SERVER_H_
#define TWHEEL_SRC_NET_TIMER_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "src/base/flat_map.h"
#include "src/base/slab_arena.h"
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

// Every server counter, declared once, in declaration order:
// TWHEEL_TIMER_SERVER_STAT_FIELDS(X) expands X(name) for each field, and the
// snapshot struct and the stats() sum over the stripes' copies are both
// generated from it.
#define TWHEEL_TIMER_SERVER_STAT_FIELDS(X)                                    \
  X(sets)           /* one-shot registrations accepted */                     \
  X(periodic_sets)  /* periodic registrations accepted */                     \
  X(replaced)       /* duplicate set replaced a live timer */                 \
  X(rejected)       /* host refused (capacity/range) */                       \
  X(restarts)       /* kTimerRestart applied */                               \
  X(restart_misses) /* kTimerRestart for an unknown timer */                  \
  X(cancels)        /* kTimerCancel applied */                                \
  X(cancel_misses)  /* kTimerCancel for an unknown timer */                   \
  X(fires_sent)     /* kTimerFire callbacks handed to the channel */          \
  X(periodic_laps)  /* fires that left the registration armed */              \
  X(checkins)       /* host fires at a lazily restarted one-shot's old     */ \
                    /* deadline: re-armed, fired, or refused (see above)   */ \
  X(decode_rejects) /* OnWire buffers that failed DecodePacket */

struct TimerServerStats {
#define TWHEEL_TIMER_SERVER_STAT_DECLARE(name) std::uint64_t name = 0;
  TWHEEL_TIMER_SERVER_STAT_FIELDS(TWHEEL_TIMER_SERVER_STAT_DECLARE)
#undef TWHEEL_TIMER_SERVER_STAT_DECLARE
};

// A field declared outside TWHEEL_TIMER_SERVER_STAT_FIELDS would be missed by
// the stats() sum.
#define TWHEEL_TIMER_SERVER_STAT_ONE(name) +1
static_assert(sizeof(TimerServerStats) ==
                  (0 TWHEEL_TIMER_SERVER_STAT_FIELDS(TWHEEL_TIMER_SERVER_STAT_ONE)) *
                      sizeof(std::uint64_t),
              "declare every TimerServerStats field in "
              "TWHEEL_TIMER_SERVER_STAT_FIELDS");
#undef TWHEEL_TIMER_SERVER_STAT_ONE

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

  // The stripes' counters summed, each stripe read under its lock: coherent
  // at quiesce, and each stripe's share coherent at any time.
  TimerServerStats stats() const;
  const TimerService& host() const { return *host_; }
  // Timers currently registered (the server-side session table's view).
  std::size_t registrations() const;

 private:
  // The session table's view of a timer: what a restart or cancel needs.
  struct Registration {
    TimerHandle handle;
    SlabRef armed;  // its expiry record in the stripe's slab
    // One-shots: the deadline the client last asked for. The host timer may
    // be armed earlier (see `checkin`), never later. 0 for a periodic.
    twheel::Tick deadline = 0;
    // The longest interval the host accepted for this one-shot, saturated to
    // 32 bits; a restart by no more than this may be lazy. 0 for a periodic,
    // which is never restarted lazily.
    std::uint32_t span = 0;
    // The host timer is armed earlier than `deadline` and will fire as a
    // check-in.
    bool checkin = false;
  };
  // The striped session table. A cookie's stripe is a function of its session
  // id, so one session's set/cancel/fire traffic serializes on one stripe
  // while different sessions proceed in parallel on different drainers.
  // Cache-line aligned so two drainers writing neighbouring stripes' counters
  // do not share a line.
  static constexpr std::uint32_t kStripeBits = 4;
  static constexpr std::size_t kStripes = std::size_t{1} << kStripeBits;
  // An armed id packs an expiry record's SlabRef with its stripe: generation
  // in the high 32 bits, then kSlotBits of slot, then the stripe.
  static constexpr std::uint32_t kSlotBits = 32 - kStripeBits;
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    FlatMap<Registration> timers;  // by cookie
    // The expiry side of each registration: its cookie. A record outlives the
    // Registration when a stop misses, until the fire the host already
    // claimed is delivered. At most 2^kSlotBits records, so every slot fits
    // its id; a set past that is rejected like one the host refuses.
    SlabArena<RequestId> armed{std::size_t{1} << kSlotBits};
    // decode_rejects stays 0 here: a reject has no stripe (see
    // decode_rejects_).
    TimerServerStats stats;
  };
  Stripe& StripeFor(RequestId cookie) {
    // Fibonacci hash of the session id; sessions are typically small dense
    // integers, so multiply-shift spreads them across stripes.
    const std::uint32_t h = CookieSession(cookie) * 0x9E3779B9u;
    return stripes_[(h >> 27) & (kStripes - 1)];
  }

  RequestId ArmedId(const Stripe& stripe, SlabRef ref) const {
    return (RequestId{ref.generation} << 32) |
           (RequestId{ref.slot} << kStripeBits) |
           static_cast<RequestId>(&stripe - stripes_);
  }
  static SlabRef ArmedRef(RequestId id) {
    return SlabRef{static_cast<std::uint32_t>(id >> kStripeBits) &
                       ((std::uint32_t{1} << kSlotBits) - 1),
                   static_cast<std::uint32_t>(id >> 32)};
  }

  // How StopRegistration ended a registration's host timer.
  enum class Stopped : std::uint8_t {
    kCancelled,  // the registration never fires
    kMissed,     // the host claimed its final fire, which resolves it on delivery
    kFireOwed,   // its recorded deadline passed while a check-in was claimed:
                 // the caller sends the fire
  };

  void OnExpiry(RequestId id, twheel::Tick when, bool last);
  void Register(RequestId cookie, const Packet& request);
  // A kTimerRestart of a live registration, under its stripe's mutex; false
  // is a miss.
  bool Restart(Registration& reg, Duration interval);
  // Stops `reg`'s host timer for a cancel or a replacing set, under its
  // stripe's mutex, freeing its expiry record unless a claimed final fire
  // still needs it (see the file comment).
  Stopped StopRegistration(Stripe& stripe, const Registration& reg);
  void SendFire(RequestId cookie, twheel::Tick at);

  std::unique_ptr<TimerService> host_;
  Channel& to_client_;
  // Serializes kTimerFire sends from concurrent drainers: Channel counts and
  // schedules its deliveries without internal locking.
  std::mutex send_mutex_;
  Stripe stripes_[kStripes];
  // Counted before a request has a cookie, so before any stripe is chosen.
  std::atomic<std::uint64_t> decode_rejects_{0};

  std::unique_ptr<concurrent::DispatchPool> pool_;
};

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_TIMER_SERVER_H_
