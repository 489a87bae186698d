// Static-dispatch facade: the zero-virtual-call path to a concrete scheme.
//
// Every scheme in this library is reachable two ways:
//
//   1. Through the virtual `TimerService` interface (timer_service.h) — the
//      oracle, the differential driver, the factory, wrappers like
//      LockedService, and any caller that picks a scheme at runtime.
//   2. Through `StaticTimerFacility<Scheme>` below — a by-value wrapper whose
//      every forwarding call is *qualified* (`scheme_.Scheme::StartTimer`), so
//      dispatch is resolved at compile time regardless of optimization level,
//      the calls inline, and the per-op cost is exactly the scheme's own code.
//      This is the path benches and the networked server use when the scheme is
//      known at build time; bench_static_dispatch records what it saves.
//
// Correct-by-construction guarantee: the facility adds NO logic — every method
// is a one-line forward to the same member functions the virtual path invokes
// on the same object. `StaticFacadeService<Scheme>` then re-wraps the facility
// in the virtual interface so the differential harness can drive the static
// path with the full oracle alphabet (restart, periodic, AdvanceTo, …) and
// prove the two paths byte-identical (tests/verify/static_facade_test.cc). The
// layering means a divergence could only come from the facade's forwarding
// itself, which is exactly what the equivalence suite pins.
//
// START/STOP/RESTART and StartPeriodic are written once in
// TimerServiceBase<Scheme>, which reaches the scheme's Link/Unlink hooks by
// static type, and TryFirePeriodic's expiry-path re-arm uses the same hooks; so
// the four hot ops and every periodic lap bottom out in straight-line scheme
// code with no virtual call at all.

#ifndef TWHEEL_SRC_CORE_STATIC_FACILITY_H_
#define TWHEEL_SRC_CORE_STATIC_FACILITY_H_

#include <cstddef>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/core/timer_service.h"

namespace twheel {

template <typename Scheme>
class StaticTimerFacility {
  static_assert(std::is_base_of_v<TimerService, Scheme>,
                "StaticTimerFacility wraps a concrete TimerService scheme");
  static_assert(std::is_final_v<Scheme>,
                "wrap only final schemes: a subclass could make the qualified "
                "calls below skip its overrides");

 public:
  template <typename... Args>
  explicit StaticTimerFacility(Args&&... args)
      : scheme_(std::forward<Args>(args)...) {}

  StaticTimerFacility(const StaticTimerFacility&) = delete;
  StaticTimerFacility& operator=(const StaticTimerFacility&) = delete;

  // -- The four hot ops: statically dispatched, inlinable ------------------------
  StartResult StartTimer(Duration interval, RequestId request_id) {
    return scheme_.Scheme::StartTimer(interval, request_id);
  }
  TimerError StopTimer(TimerHandle handle) {
    return scheme_.Scheme::StopTimer(handle);
  }
  TimerError RestartTimer(TimerHandle handle, Duration new_interval) {
    return scheme_.Scheme::RestartTimer(handle, new_interval);
  }
  std::size_t PerTickBookkeeping() { return scheme_.Scheme::PerTickBookkeeping(); }

  // -- The rest of the interface, same qualified-forward shape -------------------
  StartResult StartPeriodic(Duration interval, RequestId request_id,
                            std::uint64_t repeat_for = TimerService::kRepeatForever) {
    return scheme_.Scheme::StartPeriodic(interval, request_id, repeat_for);
  }
  std::size_t AdvanceTo(Tick target) { return scheme_.Scheme::AdvanceTo(target); }
  std::size_t AdvanceBy(Duration n) {
    std::size_t total = 0;
    for (Duration i = 0; i < n; ++i) {
      total += scheme_.Scheme::PerTickBookkeeping();
    }
    return total;
  }
  std::optional<Tick> NextExpiryHint() const { return scheme_.Scheme::NextExpiryHint(); }
  bool FastForward(Tick target) { return scheme_.Scheme::FastForward(target); }

  Tick now() const { return scheme_.Scheme::now(); }
  std::size_t outstanding() const { return scheme_.Scheme::outstanding(); }
  metrics::OpCounts counts() const { return scheme_.Scheme::counts(); }
  std::string_view name() const { return scheme_.Scheme::name(); }
  TimerService::SpaceProfile Space() const { return scheme_.Scheme::Space(); }
  void set_expiry_handler(ExpiryHandler handler) {
    scheme_.Scheme::set_expiry_handler(std::move(handler));
  }

  // Escape hatch for scheme-specific diagnostics (CheckBstInvariant, cursor(), …).
  Scheme& scheme() { return scheme_; }
  const Scheme& scheme() const { return scheme_; }

 private:
  Scheme scheme_;
};

// Virtual adapter over the static path, so the oracle/differential harness can
// drive StaticTimerFacility<Scheme> through the TimerService alphabet and pin
// it exact-match against the plain virtual twin. Also the shape a runtime
// scheme switch would use without giving up the static path elsewhere.
template <typename Scheme>
class StaticFacadeService final : public TimerService {
 public:
  template <typename... Args>
  explicit StaticFacadeService(Args&&... args)
      : facility_(std::forward<Args>(args)...) {}

  StartResult StartTimer(Duration interval, RequestId request_id) final {
    return facility_.StartTimer(interval, request_id);
  }
  StartResult StartPeriodic(Duration interval, RequestId request_id,
                            std::uint64_t repeat_for = kRepeatForever) final {
    return facility_.StartPeriodic(interval, request_id, repeat_for);
  }
  TimerError StopTimer(TimerHandle handle) final { return facility_.StopTimer(handle); }
  TimerError RestartTimer(TimerHandle handle, Duration new_interval) final {
    return facility_.RestartTimer(handle, new_interval);
  }
  std::size_t PerTickBookkeeping() final { return facility_.PerTickBookkeeping(); }
  std::size_t AdvanceTo(Tick target) final { return facility_.AdvanceTo(target); }
  std::optional<Tick> NextExpiryHint() const final { return facility_.NextExpiryHint(); }
  bool FastForward(Tick target) final { return facility_.FastForward(target); }

  Tick now() const final { return facility_.now(); }
  std::size_t outstanding() const final { return facility_.outstanding(); }
  metrics::OpCounts counts() const final { return facility_.counts(); }
  std::string_view name() const final { return facility_.name(); }
  SpaceProfile Space() const final { return facility_.Space(); }
  void set_expiry_handler(ExpiryHandler handler) final {
    facility_.set_expiry_handler(std::move(handler));
  }

  StaticTimerFacility<Scheme>& facility() { return facility_; }

 private:
  StaticTimerFacility<Scheme> facility_;
};

}  // namespace twheel

#endif  // TWHEEL_SRC_CORE_STATIC_FACILITY_H_
