// Discrete-event simulation on top of a timer facility (Section 4).
//
// The paper's Section 4 argues the equivalence both ways: "time flow algorithms used
// for digital simulation can be used to implement timer algorithms; conversely,
// timer algorithms can be used to implement time flow mechanisms in simulations."
// This Simulator is the converse direction: a general event scheduler whose pending-
// event set is any TimerService — hand it a HierarchicalWheel and you have a
// TEGAS-style tick-stepped simulator; hand it a SortedListTimers and you have the
// event list of a GPSS/SIMULA-style simulator.
//
// Scheduled actions are arbitrary callbacks; the Simulator owns the dispatch table
// (slab-allocated, generation-checked tokens mirroring TimerHandle semantics) and
// multiplexes them over the service's single ExpiryHandler via RequestId. After
// takes the callable as a template parameter and constructs its std::function
// once, directly in the event's slab entry: a small callable (net::Channel's
// two-word delivery event) is stored inline there, with no temporary
// std::function built at the call site and moved in.

#ifndef TWHEEL_SRC_SIM_SIMULATOR_H_
#define TWHEEL_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/slab_arena.h"
#include "src/base/types.h"
#include "src/core/timer_service.h"

namespace twheel::sim {

// Opaque token for a scheduled (cancellable) event.
struct EventToken {
  SlabRef ref;
  constexpr bool valid() const { return ref.valid(); }
};

class Simulator {
 public:
  using Action = std::function<void()>;

  // The simulator assumes exclusive ownership of the service (it installs its own
  // expiry handler).
  explicit Simulator(std::unique_ptr<TimerService> service);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Schedule `action` to run `delay` ticks from now (delay >= 1). Actions scheduled
  // for the same tick run in scheme-dependent order, which Section 4.2 notes is
  // acceptable for timer-driven systems. Returns an invalid token if the underlying
  // service rejects the interval (range/capacity).
  template <typename F>
  EventToken After(Duration delay, F&& action) {
    auto [entry, ref] = entries_.Allocate(std::forward<F>(action));
    return entry == nullptr ? EventToken{} : Arm(*entry, ref, delay, /*periodic=*/false);
  }

  // Schedule `action` to run every `period` ticks (first run one period from now),
  // until cancelled. The action may cancel its own token. Built on the service's
  // StartPeriodic: re-arming happens on the service's expiry path as an in-place,
  // allocation-free relink, phase-stable — the k-th run lands exactly at
  // now + k*period — and the token stays valid across runs. Every
  // TimerServiceBase scheme relinks this way, the Section 4.2 TegasWheel
  // included. Returns an invalid token if the service rejects the interval
  // (range/capacity) or does not support periodic registration
  // (TimerError::kNotSupported). A run whose next one the service drops
  // (OpCounts::periodic_drops) is the last, and its token is spent like a
  // one-shot's.
  EventToken Every(Duration period, Action action);

  // Cancel a pending event. Returns false if it already ran its last time or
  // was cancelled. Cancelling a periodic event stops all future runs.
  bool Cancel(EventToken token);

  // Advance one tick, running due actions. Returns the number of actions run.
  std::size_t Step();

  // Run until no events remain or `max_ticks` more ticks have elapsed. Returns
  // ticks actually advanced. Tick-stepped time flow — Section 4's method 2, the
  // TEGAS/DECSIM style ("the program ... increments the clock variable by c until
  // it finds any outstanding events").
  Tick RunUntilIdle(Tick max_ticks = ~Tick{0});

  // Event-jumping time flow — Section 4's method 1, the GPSS/SIMULA style ("the
  // earliest event is immediately retrieved ... and the clock jumps to the time of
  // this event"). Requires a service with the NextExpiryHint/FastForward capability
  // (sorted list, heap, BST — and, via their occupancy bitmaps, all five wheel
  // schemes); returns the ticks covered (including jumped ones), or nullopt if the
  // service cannot jump (fall back to RunUntilIdle). Conservative hints (e.g. the
  // hierarchical wheel's kSingleStep lower bound) are fine: a step that fires
  // nothing just re-queries the hint.
  std::optional<Tick> RunUntilIdleJumping(Tick max_ticks = ~Tick{0});

  Tick now() const { return service_->now(); }
  std::size_t pending() const { return service_->outstanding(); }
  const TimerService& service() const { return *service_; }

 private:
  // Live exactly while its timer is: the expiry handler frees it on the last
  // fire.
  struct Entry {
    template <typename F>
    explicit Entry(F&& f) : action(std::forward<F>(f)) {}

    Action action;
    TimerHandle handle;  // for cancellation
  };

  // Starts the timer for a freshly allocated entry: `interval` ticks out, and
  // every `interval` ticks after that when `periodic`. If the service refuses,
  // frees the entry and returns an invalid token.
  EventToken Arm(Entry& entry, SlabRef ref, Duration interval, bool periodic);

  std::unique_ptr<TimerService> service_;
  SlabArena<Entry> entries_;
};

}  // namespace twheel::sim

#endif  // TWHEEL_SRC_SIM_SIMULATOR_H_
