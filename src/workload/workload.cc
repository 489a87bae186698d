#include "src/workload/workload.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/base/assert.h"

namespace twheel::workload {
namespace {

// One pre-drawn START_TIMER request. request_id == index in the script.
struct StartReq {
  Tick start_tick = 0;
  Duration interval = 0;
  Tick stop_tick = 0;  // meaningful only when `stopped`
  bool stopped = false;
};

struct Script {
  std::vector<StartReq> requests;
  Tick horizon = 0;  // last tick the replay will run through
};

std::unique_ptr<rng::IntervalDistribution> MakeIntervals(const WorkloadSpec& spec) {
  switch (spec.intervals) {
    case IntervalKind::kConstant:
      return std::make_unique<rng::ConstantInterval>(spec.interval_lo);
    case IntervalKind::kUniform:
      return std::make_unique<rng::UniformInterval>(spec.interval_lo, spec.interval_hi);
    case IntervalKind::kExponential:
      return std::make_unique<rng::ExponentialInterval>(spec.interval_mean);
    case IntervalKind::kPareto:
      return std::make_unique<rng::ParetoInterval>(spec.pareto_alpha, spec.interval_lo);
    case IntervalKind::kGeometric:
      return std::make_unique<rng::GeometricInterval>(1.0 / spec.interval_mean);
  }
  TWHEEL_ASSERT_MSG(false, "unknown IntervalKind");
  return nullptr;
}

std::unique_ptr<rng::ArrivalProcess> MakeArrivals(const WorkloadSpec& spec) {
  switch (spec.arrivals) {
    case ArrivalKind::kPoisson:
      return std::make_unique<rng::PoissonArrivals>(spec.arrival_rate);
    case ArrivalKind::kPeriodic:
      return std::make_unique<rng::PeriodicArrivals>(spec.arrival_gap);
  }
  TWHEEL_ASSERT_MSG(false, "unknown ArrivalKind");
  return nullptr;
}

// Draw the full request stream. Depends only on the spec (not on any scheme), so
// every service replaying the script sees identical calls.
Script BuildScript(const WorkloadSpec& spec) {
  rng::Xoshiro256 gen(spec.seed);
  auto intervals = MakeIntervals(spec);
  auto arrivals = MakeArrivals(spec);

  Script script;
  const std::size_t total = spec.warmup_starts + spec.measured_starts;
  script.requests.reserve(total);

  Tick t = 0;
  Tick last_event = 0;
  for (std::size_t i = 0; i < total; ++i) {
    t += arrivals->NextGap(gen);
    StartReq req;
    req.start_tick = t;
    req.interval = intervals->Draw(gen);
    if (spec.interval_cap != 0 && req.interval > spec.interval_cap) {
      req.interval = spec.interval_cap;
    }
    if (spec.stop_fraction > 0.0 && gen.NextBool(spec.stop_fraction)) {
      req.stopped = true;
      // Uniform over the timer's life: a stop at tick s (with now == s) cancels any
      // expiry at s+1 or later, so s in [start, start+interval-1] always precedes
      // the expiry.
      req.stop_tick = req.start_tick + gen.NextBounded(req.interval);
    }
    Tick resolution = req.stopped ? req.stop_tick : req.start_tick + req.interval;
    last_event = std::max(last_event, resolution);
    script.requests.push_back(req);
  }

  script.horizon = last_event;
  if (spec.max_ticks != 0) {
    script.horizon = std::min(script.horizon, spec.max_ticks);
  }
  return script;
}

}  // namespace

WorkloadResult Run(TimerService& service, const WorkloadSpec& spec) {
  const Script script = BuildScript(spec);

  WorkloadResult result;
  result.scheme_name = std::string(service.name());

  std::vector<TimerHandle> handles(script.requests.size(), kInvalidHandle);

  // Group stop actions by tick for O(1) lookup during the replay.
  std::map<Tick, std::vector<std::size_t>> stops_by_tick;
  for (std::size_t i = 0; i < script.requests.size(); ++i) {
    if (script.requests[i].stopped) {
      stops_by_tick[script.requests[i].stop_tick].push_back(i);
    }
  }

  service.set_expiry_handler([&result](RequestId id, Tick when, bool) {
    result.trace.push_back(ExpiryEvent{when, id});
    ++result.expiries;
  });

  bool measuring = spec.warmup_starts == 0;
  bool measurement_closed = false;

  auto wall_start = std::chrono::steady_clock::now();

  std::size_t next_start = 0;
  auto stop_cursor = stops_by_tick.begin();
  metrics::OpCounts phase_baseline = service.counts();

  // Iterate now == t over [0, horizon): the final bookkeeping call advances the
  // clock to exactly `horizon`, so expiries at ticks <= horizon fire and nothing
  // later does — matching PredictedTrace's cutoff.
  for (Tick t = 0; t < script.horizon; ++t) {
    // now == t here. 1) Issue starts scheduled for t.
    while (next_start < script.requests.size() &&
           script.requests[next_start].start_tick == t) {
      const StartReq& req = script.requests[next_start];
      if (!measuring && next_start >= spec.warmup_starts) {
        measuring = true;
        phase_baseline = service.counts();
      }
      const metrics::OpCounts before = service.counts();
      StartResult sr = service.StartTimer(req.interval, next_start);
      if (sr.has_value()) {
        handles[next_start] = sr.value();
      } else {
        ++result.starts_rejected;
      }
      if (measuring) {
        const metrics::OpCounts delta = service.counts() - before;
        result.start_comparisons.Add(static_cast<double>(delta.comparisons));
        result.start_ops.Add(static_cast<double>(delta.comparisons + delta.insert_link_ops));
      }
      ++result.starts_issued;
      ++next_start;
    }

    // Close the measurement window at the last start: the drain tail that follows
    // (arrivals stopped, population decaying to zero) is not steady state and would
    // bias outstanding/tick-work statistics downward.
    if (measuring && next_start == script.requests.size()) {
      result.measured_ops = service.counts() - phase_baseline;
      measuring = false;
      measurement_closed = true;
    }

    // 2) Execute stops scheduled for t (still now == t; cancels expiries > t).
    if (stop_cursor != stops_by_tick.end() && stop_cursor->first == t) {
      for (std::size_t idx : stop_cursor->second) {
        if (handles[idx].valid()) {
          TimerError err = service.StopTimer(handles[idx]);
          TWHEEL_ASSERT_MSG(err == TimerError::kOk, "scripted stop hit a dead timer");
          handles[idx] = kInvalidHandle;
          ++result.stops_issued;
        }
      }
      ++stop_cursor;
    }

    // 3) Advance the clock: expiries due at t+1 fire inside this call.
    if (measuring) {
      result.outstanding.Add(static_cast<double>(service.outstanding()));
    }
    const metrics::OpCounts before_tick = service.counts();
    service.PerTickBookkeeping();
    ++result.ticks_run;
    if (measuring) {
      const std::uint64_t work = (service.counts() - before_tick).TickWork();
      result.tick_work.Add(static_cast<double>(work));
      result.tick_work_hist.Add(work);
    }
  }

  auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  if (!measurement_closed) {  // horizon truncation ended the replay mid-stream
    result.measured_ops = service.counts() - phase_baseline;
  }
  return result;
}

RetransmitResult RunRetransmit(TimerService& service, const RetransmitSpec& spec) {
  TWHEEL_ASSERT_MSG(spec.rto > 0, "RetransmitSpec::rto must be positive");
  rng::Xoshiro256 gen(spec.seed);

  RetransmitResult result;
  result.scheme_name = std::string(service.name());

  // Expiries are only *recorded* inside the handler and re-armed after the
  // bookkeeping call returns: no in-handler mutation, so the workload runs on
  // every scheme including LockedService.
  std::vector<RequestId> expired;
  service.set_expiry_handler([&expired](RequestId id, Tick /*when*/, bool) {
    expired.push_back(id);
  });

  std::vector<TimerHandle> handles(spec.connections, kInvalidHandle);
  for (std::size_t c = 0; c < spec.connections; ++c) {
    StartResult sr = service.StartTimer(spec.rto, c);
    TWHEEL_ASSERT_MSG(sr.has_value(), "retransmit preload rejected");
    handles[c] = sr.value();
  }

  const metrics::OpCounts baseline = service.counts();
  auto wall_start = std::chrono::steady_clock::now();

  for (Tick t = 0; t < spec.ticks; ++t) {
    // ACK arrivals for this tick. The draw is unconditional — one bool per
    // connection — so the RNG stream is identical across schemes even when
    // their expiry timing differs.
    for (std::size_t c = 0; c < spec.connections; ++c) {
      if (!gen.NextBool(spec.ack_probability)) {
        continue;
      }
      ++result.acks;
      if (spec.use_restart) {
        TimerError err = service.RestartTimer(handles[c], spec.rto);
        TWHEEL_ASSERT_MSG(err == TimerError::kOk, "ACK restart hit a dead timer");
        ++result.restarts_issued;
      } else {
        TimerError err = service.StopTimer(handles[c]);
        TWHEEL_ASSERT_MSG(err == TimerError::kOk, "ACK stop hit a dead timer");
        StartResult sr = service.StartTimer(spec.rto, c);
        TWHEEL_ASSERT_MSG(sr.has_value(), "ACK re-start rejected");
        handles[c] = sr.value();
        ++result.stop_start_pairs;
      }
    }

    service.PerTickBookkeeping();
    ++result.ticks_run;

    // Retransmit: a quiet connection's RTO fired; arm the next attempt.
    for (RequestId id : expired) {
      ++result.retransmissions;
      StartResult sr = service.StartTimer(spec.rto, id);
      TWHEEL_ASSERT_MSG(sr.has_value(), "retransmission re-arm rejected");
      handles[static_cast<std::size_t>(id)] = sr.value();
    }
    expired.clear();
  }

  auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.ops = service.counts() - baseline;
  return result;
}

std::vector<ExpiryEvent> NormalizedTrace(const std::vector<ExpiryEvent>& trace) {
  std::vector<ExpiryEvent> sorted = trace;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::vector<ExpiryEvent> PredictedTrace(const WorkloadSpec& spec) {
  const Script script = BuildScript(spec);
  std::vector<ExpiryEvent> events;
  for (std::size_t i = 0; i < script.requests.size(); ++i) {
    const StartReq& req = script.requests[i];
    if (req.stopped) {
      continue;
    }
    Tick expiry = req.start_tick + req.interval;
    if (expiry > script.horizon) {
      continue;  // beyond the replay horizon: Run() never reaches it either
    }
    events.push_back(ExpiryEvent{expiry, i});
  }
  return NormalizedTrace(events);
}

}  // namespace twheel::workload
