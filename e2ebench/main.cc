// End-to-end benchmark of the timer service, with per-layer spans recorded
// from outside the library.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// A client population (client.h) sends wire-encoded set/restart/cancel
// requests and receives kTimerFire callbacks. Each benchmark tick is one tick
// of service time: the tick's requests go through Front, the engine advances
// one tick, and the Downlink delivers the tick's callbacks (stacks.h). Ticks
// run back to back (closed loop in service time): the offered load per tick
// is fixed by the workload and each tick starts when the previous one is
// served.
//
// End-to-end metrics (--trace 0) are what a client of the service sees:
// ops_per_s (requests plus callbacks per second of service time), tick_us
// (service time of one tick), lag_us (wall time from the start of the tick a
// timer is due in to its callback reaching the client) and setup_s (time to
// build the stack and load its primed population). --trace 1 adds a span at
// each layer boundary and reports per-layer metrics instead; with --spans the
// spans are written out as CSV when the run ends.
//
// The run is a series of episodes (see kEpisodeNs). Each episode yields its
// throughput and its median tick time and lag. A metric is the slow end of
// its episode values: the kSlowQuantile percentile of the times, the
// 1 - kSlowQuantile percentile of the throughput. setup_s is the median of
// the episodes' builds. On a shared host the same code runs 1.5..2.5x slower
// for seconds at a time while another tenant shares the core's caches, so a
// run's episodes fall into a fast and a slow group whose sizes change from
// run to run; that moves a median or mean across the gap between the groups,
// and a low percentile whenever the fast group is small. The slow group is
// present in almost every run and its level is steady, so the benchmark
// reports the service's speed on a loaded host. The phases come and go on
// each CPU on its own, so each episode runs on the next CPU the process may
// use: the run samples every CPU it was given, not only the one the
// scheduler first placed it on.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics. Human-readable detail (sample counts) goes to stderr.

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/client.h"
#include "e2ebench/stacks.h"
#include "src/net/wire.h"

namespace e2ebench {
namespace {

using twheel::net::kWirePacketSize;

struct Workload {
  const char* name = "";
  ClientConfig client;
  bool cluster = false;
  twheel::cluster::ClusterConfig replicated;  // cluster workload only
  std::uint64_t warmup_ticks = 0;
};

// Each mix is one the repository already defines and measures; BENCHMARK.json
// records why each workload exists.
std::vector<Workload> Workloads() {
  std::vector<Workload> all;

  // bench_periodic's recorded server row has 128Ki sessions; the server
  // workloads keep its per-session mix at 1/64 of that population, so a tick
  // takes tens of microseconds and the working set stays inside the core's
  // own caches. At 128Ki sessions a tick took 4..13 ms, and at 8Ki its median
  // still moved 2.5x between runs with the load other tenants put on the
  // shared host.
  constexpr std::uint32_t kServerSessions = 1u << 11;

  // workload::RetransmitSpec (paper section 2): one retransmission timer per
  // connection with rto 64, restarted by an ACK that arrives with
  // probability 1/8 per tick, so (7/8)^64 ~ 0.02% of RTO windows expire;
  // each expiry is a retransmission that sets the timer again. No cancels.
  Workload retransmit;
  retransmit.name = "retransmit";
  retransmit.client.sessions = kServerSessions;
  retransmit.client.rearm_on_fire = true;
  retransmit.client.ack_probability = 0.125;
  retransmit.client.min_interval = 64;
  retransmit.client.max_interval = 64;
  retransmit.warmup_ticks = 128;
  all.push_back(retransmit);

  // bench_periodic's server row, net::TimerWorkload's mix: one timer per
  // session, requests round-robin over 1/32 of the sessions per tick (4096 of
  // 128Ki there, 64 of 2Ki here), intervals 16..128, 90% periodic with up to
  // 200 laps, and a live timer restarted, cancelled or replaced with
  // probability 0.3 / 0.3 / 0.4 (TimerWorkloadConfig).
  Workload periodic;
  periodic.name = "periodic";
  periodic.client.sessions = kServerSessions;
  periodic.client.requests_per_tick = kServerSessions / 32;
  periodic.client.restart_probability = 0.3;
  periodic.client.cancel_probability = 0.3;
  periodic.client.min_interval = 16;
  periodic.client.max_interval = 128;
  periodic.client.periodic_probability = 0.9;
  periodic.client.max_laps = 200;
  periodic.warmup_ticks = 256;
  all.push_back(periodic);

  // bench_cluster's steady state at R=2 (BENCH_cluster.json): 3 nodes of
  // Scheme 6 hashed wheels (16Ki slots), lossless links with delay 1..2,
  // intervals 1..1024, and every delivered fire sets its key again. Warmed,
  // as there, through one interval spread plus link delay. 2Ki keys rather
  // than bench_cluster's 256Ki: fires per tick, and with them the replication
  // messages and the tick time, grow with the key count; at 32Ki keys a tick
  // took ~500 us and its median moved by a third between runs on a shared
  // host.
  Workload cluster;
  cluster.name = "cluster";
  cluster.cluster = true;
  cluster.client.sessions = 1u << 11;
  cluster.client.rearm_on_fire = true;
  cluster.client.min_interval = 1;
  cluster.client.max_interval = 1024;
  cluster.replicated.nodes = 3;
  cluster.replicated.replication_factor = 2;
  cluster.replicated.link.loss_probability = 0.0;
  cluster.replicated.link.delay_lo = 1;
  cluster.replicated.link.delay_hi = 2;
  cluster.replicated.node_scheme.scheme =
      twheel::SchemeId::kScheme6HashedUnsorted;
  cluster.replicated.node_scheme.wheel_size = 1u << 14;
  cluster.warmup_ticks = 1024 + 16;
  all.push_back(cluster);

  return all;
}

// The run is a series of episodes. Each builds a stack from a fresh client
// (one setup_s sample), warms it up, measures kEpisodeNs of ticks, then
// drains and checks it: memory stays bounded (the cluster keeps a trace of
// every client event for its oracle), every episode's output is verified,
// and builds spread over the run see the same mix of host load the ticks do.
constexpr std::int64_t kEpisodeNs = 250'000'000;
constexpr std::uint64_t kEpisodeSeedStride = 0x9e3779b97f4a7c15ull;
constexpr double kSlowQuantile = 0.9;
constexpr std::uint64_t kMaxDrainTicks = 1u << 16;
constexpr std::size_t kMaxSpanTicks = 1u << 20;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Move the calling thread to `cpu`; a refusal leaves it where it is.
void MoveTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[rank];
}

class Bench {
 public:
  Bench(const Workload& workload, std::uint64_t seed, bool trace)
      : workload_(workload), seed_(seed), trace_(trace) {}

  // Episodes until `seconds` of ticks were measured or one of them failed.
  void Run(double seconds) {
    const auto run_ns = static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t measured_ns = 0;
    for (std::uint64_t episode = 0; measured_ns < run_ns && error_.empty(); ++episode) {
      if (!cpus_.empty()) {
        MoveTo(cpus_[episode % cpus_.size()]);
      }
      measured_ns += Episode(episode, std::min(kEpisodeNs, run_ns - measured_ns));
    }
  }

  void Report(const std::string& spans_path) const {
    std::fprintf(stderr,
                 "%s seed=%llu: %llu ticks measured, %llu requests, %llu "
                 "callbacks, %zu episodes\n",
                 workload_.name, static_cast<unsigned long long>(seed_),
                 static_cast<unsigned long long>(measured_ticks_),
                 static_cast<unsigned long long>(requests_),
                 static_cast<unsigned long long>(callbacks_), setup_s_.size());

    std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
    auto add = [&](const char* name, double value, const char* unit) {
      metrics.push_back({name, {value, unit}});
    };
    const double ticks_d = static_cast<double>(measured_ticks_);
    const double callbacks_d = static_cast<double>(callbacks_);
    auto layer = [&](const char* name) {
      auto it = layer_.find(name);
      return it == layer_.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    if (!trace_) {
      add("ops_per_s", Quantile(episode_ops_per_s_, 1.0 - kSlowQuantile), "1/s");
      add("tick_us", Quantile(episode_tick_ns_, kSlowQuantile) * 1e-3, "us");
      add("lag_us", Quantile(episode_lag_us_, kSlowQuantile), "us");
      add("setup_s", Quantile(setup_s_, 0.5), "s");
    } else {
      add("front_ns_per_req", ratio(front_ns_, static_cast<double>(requests_)), "ns");
      add("engine_us_per_tick", Quantile(engine_ns_, 0.5) * 1e-3, "us");
      add("downlink_ns_per_callback", ratio(downlink_ns_, callbacks_d), "ns");
      add("requests_per_tick", ratio(static_cast<double>(requests_), ticks_d), "count");
      add("callbacks_per_tick", ratio(callbacks_d, ticks_d), "count");
      add("wheel_vax_per_op",
          ratio(layer("vax"), static_cast<double>(requests_ + callbacks_)), "instr");
      add("wheel_drained_per_tick", ratio(layer("drained"), ticks_d), "count");
      add("repl_sends_per_fire", ratio(layer("repl_sends"), layer("delivered")), "count");
      add("repl_pops_per_fire", ratio(layer("pops"), layer("delivered")), "count");
      add("repl_dup_receipt_pct",
          100.0 * ratio(layer("receipts") - layer("delivered"), layer("receipts")), "%");
      add("repl_lease_ext_per_fire",
          ratio(layer("lease_extensions"), layer("delivered")), "count");
      add("fire_late_max_ticks", static_cast<double>(late_max_), "ticks");
      if (!spans_path.empty()) {
        WriteSpans(spans_path);
      }
    }
    for (const auto& [name, value] : metrics) {
      std::fprintf(stderr, "  %-26s %14.4f %s\n", name.c_str(), value.first,
                   value.second);
    }
    std::fprintf(stderr,
                 "  (episode median tick p10/p50/p90 %.3f/%.3f/%.3f us; latest "
                 "callback %llu ticks late, %llu allowed)\n",
                 Quantile(episode_tick_ns_, 0.1) * 1e-3,
                 Quantile(episode_tick_ns_, 0.5) * 1e-3,
                 Quantile(episode_tick_ns_, 0.9) * 1e-3,
                 static_cast<unsigned long long>(late_max_),
                 static_cast<unsigned long long>(max_late_));
    if (!error_.empty()) {
      std::fprintf(stderr, "INCORRECT: %s\n", error_.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                error_.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].first.c_str(), metrics[i].second.first,
                  metrics[i].second.second);
    }
    std::printf("}}\n");
  }

 private:
  // One episode: build a stack from a fresh client (one setup_s sample), warm
  // it up, measure ticks for `budget_ns`, then drain and check it. Returns the
  // measured wall time.
  std::int64_t Episode(std::uint64_t episode, std::int64_t budget_ns) {
    const std::uint64_t seed = seed_ + episode * kEpisodeSeedStride;
    Client client(workload_.client, seed);
    wire_.clear();
    client.Prime(wire_);
    const std::int64_t build_start = NowNs();
    std::unique_ptr<Stack> stack;
    if (workload_.cluster) {
      stack = std::make_unique<ClusterStack>(workload_.replicated, seed);
    } else {
      stack = std::make_unique<ServerStack>(seed);
    }
    SendWire(*stack);
    setup_s_.push_back(static_cast<double>(NowNs() - build_start) * 1e-9);
    client.set_max_late(stack->max_late());
    stack->set_receiver([this](const twheel::net::Packet& fire) { OnFire(fire); });
    client_ = &client;
    stack_ = stack.get();
    tick_ = 0;
    tick_start_.clear();

    for (std::uint64_t i = 0; i < workload_.warmup_ticks; ++i) {
      Tick(true);
    }
    const Counters before = stack->LayerCounts();
    const std::uint64_t requests_before = client.requests();
    const std::uint64_t callbacks_before = client.callbacks();
    tick_ns_.clear();
    lag_us_.clear();
    measuring_ = true;
    first_measured_ = tick_;
    const std::int64_t start = NowNs();
    do {
      Tick(true);
    } while (NowNs() - start < budget_ns);
    const std::int64_t measured_ns = NowNs() - start;
    measuring_ = false;

    // Throughput is the operations of the mean tick over the median tick
    // time, so a few ticks the host stalled do not weigh in. The requests
    // include those generated for the first measured tick.
    const std::uint64_t requests = client.requests() - requests_before;
    const std::uint64_t callbacks = client.callbacks() - callbacks_before;
    const double tick_ns = Quantile(tick_ns_, 0.5);
    episode_ops_per_s_.push_back(static_cast<double>(requests + callbacks) /
                                 static_cast<double>(tick_ns_.size()) / (tick_ns * 1e-9));
    episode_tick_ns_.push_back(tick_ns);
    if (!lag_us_.empty()) {
      episode_lag_us_.push_back(Quantile(lag_us_, 0.5));
    }
    measured_ticks_ += tick_ns_.size();
    requests_ += requests;
    callbacks_ += callbacks;
    for (const auto& [name, value] : stack->LayerCounts()) {
      layer_[name] += value - before.at(name);
    }

    // Drain: periodic timers are cancelled, then no new requests; every live
    // timer must still fire, and no request may have been refused.
    wire_.clear();
    client.CancelPeriodic(wire_);
    SendWire(*stack);
    std::uint64_t drained = 0;
    while ((client.live() != 0 || !stack->idle()) && drained < kMaxDrainTicks) {
      Tick(false);
      ++drained;
    }
    std::string why;
    if (!client.ok()) {
      why = client.error();
    } else if (stack->refused() != 0) {
      why = std::to_string(stack->refused()) + " requests refused or missed";
    } else if (client.live() != 0 || !stack->idle()) {
      why = std::to_string(client.live()) + " timers never fired";
    } else {
      stack->Verify(client.callbacks(), &why);
    }
    if (!why.empty()) {
      error_ = "episode " + std::to_string(episode) + ": " + why;
    }
    attempted_ += client.requests();
    failed_ += stack->refused();
    late_max_ = std::max(late_max_, client.late_max());
    max_late_ = stack->max_late();
    client_ = nullptr;
    stack_ = nullptr;
    return measured_ns;
  }

  void SendWire(Stack& stack) {
    for (std::size_t off = 0; off + kWirePacketSize <= wire_.size();
         off += kWirePacketSize) {
      stack.Front(wire_.data() + off, kWirePacketSize);
    }
  }

  // One benchmark tick; `generate` is false while draining.
  void Tick(bool generate) {
    wire_.clear();
    if (generate) {
      client_->Generate(tick_, wire_);
    }
    const std::int64_t t0 = NowNs();
    tick_start_.push_back(t0);
    SendWire(*stack_);
    const std::int64_t t1 = trace_ ? NowNs() : 0;
    stack_->Engine();
    const std::int64_t t2 = trace_ ? NowNs() : 0;
    stack_->Downlink();
    const std::int64_t t3 = NowNs();
    if (measuring_) {
      tick_ns_.push_back(static_cast<double>(t3 - t0));
      if (trace_) {
        front_ns_ += static_cast<double>(t1 - t0);
        engine_ns_.push_back(static_cast<double>(t2 - t1));
        downlink_ns_ += static_cast<double>(t3 - t2);
        if (spans_.size() < kMaxSpanTicks) {
          spans_.push_back({t0, t1, t2, t3});
        }
      }
    }
    ++tick_;
  }

  void OnFire(const twheel::net::Packet& fire) {
    const std::uint64_t due = client_->OnCallback(fire);
    if (!measuring_ || due == 0 || due - 1 < first_measured_ ||
        due - 1 >= tick_start_.size()) {
      return;
    }
    lag_us_.push_back(static_cast<double>(NowNs() - tick_start_[due - 1]) * 1e-3);
  }

  // CSV, one row per span: measured tick number, span name, parent span,
  // start and end in ns since the first measured tick. Spans of one tick
  // share the tick number.
  void WriteSpans(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      return;
    }
    out << "tick,span,parent,start_ns,end_ns\n";
    const std::int64_t base = spans_.empty() ? 0 : spans_.front()[0];
    const char* names[] = {"front", "engine", "downlink"};
    for (std::size_t tick = 0; tick < spans_.size(); ++tick) {
      const auto& s = spans_[tick];
      out << tick << ",tick,," << s[0] - base << ',' << s[3] - base << '\n';
      for (int k = 0; k < 3; ++k) {
        out << tick << ',' << names[k] << ",tick," << s[k] - base << ','
            << s[k + 1] - base << '\n';
      }
    }
  }

  const Workload& workload_;
  const std::uint64_t seed_;
  const bool trace_;
  const std::vector<int> cpus_ = AllowedCpus();

  // The running episode's client and stack.
  Client* client_ = nullptr;
  Stack* stack_ = nullptr;
  std::vector<std::uint8_t> wire_;
  std::uint64_t tick_ = 0;
  std::vector<std::int64_t> tick_start_;  // wall start of every tick of the episode
  bool measuring_ = false;
  std::uint64_t first_measured_ = 0;
  // The running episode's measured tick times and callback lags.
  std::vector<double> tick_ns_;
  std::vector<double> lag_us_;

  // One value per episode.
  std::vector<double> setup_s_;
  std::vector<double> episode_ops_per_s_;
  std::vector<double> episode_tick_ns_;
  std::vector<double> episode_lag_us_;

  // Totals over the measured ticks of every episode.
  std::uint64_t measured_ticks_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t callbacks_ = 0;
  Counters layer_;
  double front_ns_ = 0;
  std::vector<double> engine_ns_;
  double downlink_ns_ = 0;
  std::vector<std::array<std::int64_t, 4>> spans_;

  // Totals over whole episodes.
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t late_max_ = 0;
  twheel::Duration max_late_ = 0;
  std::string error_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <retransmit|periodic|cluster> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n");
  return 2;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  for (const Workload& workload : Workloads()) {
    if (workload_name == workload.name) {
      Bench bench(workload, seed, trace == 1);
      bench.Run(seconds);
      bench.Report(spans_path);
      return 0;
    }
  }
  return Usage();
}
