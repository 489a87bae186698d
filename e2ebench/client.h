// The benchmark's client population: generates wire-encoded timer requests and
// checks every callback against an exact model of what the service must do.
//
// Each session owns one timer (timer name 0). The model tracks, per session,
// the absolute tick the timer is due and how many periodic laps remain. The
// benchmark's transport is lossless, and a callback reaches the client in the
// same benchmark tick the service dispatches it, so the model knows at every
// tick which timers are live. A restart or cancel is therefore only sent for
// a live timer, and any miss the service reports is a failure, not protocol
// noise.
//
// Two request sources, each taken from a generator already in the repository:
//   - ACKs (workload::RetransmitSpec): every tick each live timer is
//     restarted to a fresh interval with probability ack_probability;
//   - a round-robin cursor (net::TimerWorkload): requests_per_tick sessions
//     act per tick; an idle session sets its timer, a live one restarts it,
//     cancels it, or replaces it with a fresh set.

#ifndef E2EBENCH_CLIENT_H_
#define E2EBENCH_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/types.h"

namespace e2ebench {

// SplitMix64: the benchmark's own generator, so inputs depend only on the seed
// and not on the library under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct ClientConfig {
  std::uint32_t sessions = 1u << 16;
  // A timer whose last callback arrived is set again on the next tick.
  bool rearm_on_fire = false;
  // Per tick and live timer: restart it to a fresh interval.
  double ack_probability = 0.0;
  // Round-robin sessions acted on per tick, and what a live one does.
  std::uint32_t requests_per_tick = 0;
  double restart_probability = 0.0;
  double cancel_probability = 0.0;  // the rest of the draws replace the timer
  std::uint64_t min_interval = 1;
  std::uint64_t max_interval = 256;
  // Share of sets that are periodic, with a lap budget in [1, max_laps].
  double periodic_probability = 0.0;
  std::uint32_t max_laps = 8;
};

class Client {
 public:
  Client(const ClientConfig& config, std::uint64_t seed);

  // One set per session, all at tick 0.
  void Prime(std::vector<std::uint8_t>& wire);
  // This tick's requests, appended to `wire` as whole encoded packets: first
  // the re-arms, then the ACKs, then the round-robin actions. `tick` is the
  // service clock the requests will be processed at.
  void Generate(std::uint64_t tick, std::vector<std::uint8_t>& wire);
  // A cancel for every live periodic timer, so a drain ends within one
  // interval instead of after the remaining laps.
  void CancelPeriodic(std::vector<std::uint8_t>& wire);
  // A kTimerFire callback arrived. Returns the tick the timer was due (the
  // model's deadline), or 0 if the callback was wrong; the first error is
  // kept in error().
  std::uint64_t OnCallback(const twheel::net::Packet& fire);

  // A callback may land at most this many ticks after the due tick (0, the
  // default: the service must fire exactly on time).
  void set_max_late(std::uint64_t ticks) { max_late_ = ticks; }

  std::uint64_t requests() const { return requests_; }
  std::uint64_t callbacks() const { return callbacks_; }
  std::uint64_t live() const { return live_; }
  // The largest lateness (callback tick minus due tick) seen so far.
  std::uint64_t late_max() const { return late_max_; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  struct Session {
    std::uint64_t deadline = 0;  // 0: idle
    std::uint32_t interval = 0;  // periodic cadence
    std::uint32_t laps_left = 0;
  };

  void Send(std::vector<std::uint8_t>& wire, std::uint32_t session,
            twheel::net::PacketType type, std::uint64_t arg0,
            std::uint64_t arg1);
  void Set(std::uint64_t tick, std::uint32_t session,
           std::vector<std::uint8_t>& wire);
  // Moves only the next deadline; a periodic keeps its cadence and budget
  // (TimerService::RestartTimer).
  void Restart(std::uint64_t tick, std::uint32_t session,
               std::vector<std::uint8_t>& wire);
  void Cancel(std::uint32_t session, std::vector<std::uint8_t>& wire);
  std::uint64_t Interval();
  // Sessions skipped before the next ACK: geometric in ack_probability.
  std::uint64_t AckGap();
  void Fail(const std::string& why);

  ClientConfig config_;
  Rng rng_;
  std::vector<Session> sessions_;
  std::vector<std::uint32_t> finished_;  // sessions to set again next tick
  std::uint32_t cursor_ = 0;
  std::uint64_t max_late_ = 0;
  std::uint64_t late_max_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t callbacks_ = 0;
  std::string error_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_CLIENT_H_
