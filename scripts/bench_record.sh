#!/usr/bin/env bash
# Build and run the recorded benchmarks, writing one BENCH_<name>.json per
# experiment at the repository root, with a python summary when python3 is
# available:
#
#   sparse_tick   BENCH_sparse_tick.json — loop-vs-batched tick advancement
#                 (*_Loop = one PerTickBookkeeping call per tick, *_Batched =
#                 one occupancy-bitmap AdvanceTo per span) per wheel scheme.
#   mpsc_submit   BENCH_mpsc_submit.json — deferred (MPSC ring) start/stop
#                 submission throughput at 1/2/4/8 producer threads against a
#                 driver thread sweeping a 4Mi-timer wheel.
#   restart       BENCH_restart.json — in-place RestartTimer vs the
#                 StopTimer+StartTimer fallback: tight relink loop and
#                 TCP-retransmission replay per scheme single-threaded, plus
#                 multi-producer relinks against the deferred ShardedWheel.
#   periodic      BENCH_periodic.json — expiry-path periodic re-arm: relink vs
#                 the stop+start round trip (micro + whole-lap families per
#                 scheme), and the networked timer server's end-to-end callback
#                 throughput at up to millions of concurrent sessions.
#   mpmc_dispatch BENCH_mpmc_dispatch.json — DispatchPool expiry dispatch
#                 throughput over drainers x shards x live periodic timers
#                 (the MPMC tick pipeline; see bench/bench_mpmc_dispatch.cc
#                 for the single-core caveat on the drainer sweep).
#   lawn          BENCH_lawn.json — scheme 8 (Lawn) distinct-TTL crossover
#                 frontier vs schemes 4-7: steady-state tick throughput and
#                 start+stop cost swept over 4..4096 distinct TTLs at 64Ki
#                 and 4Mi live timers (bench/bench_lawn.cc).
#   space         BENCH_space.json — the Section 2 SPACE measure per scheme
#                 (fixed/essential/hot/cold/auxiliary bytes as counters) plus
#                 the 2^32-range coverage comparison (bench/bench_space.cc).
#   static_dispatch
#                 BENCH_static_dispatch.json — virtual TimerService vs
#                 the concrete final Scheme (calls bound at compile time)
#                 per scheme per op
#                 (start_stop/restart/tick), and the measured hot/cold slab
#                 footprint out to 100M live timers
#                 (bench/bench_static_dispatch.cc).
#   cluster       BENCH_cluster.json — the replicated timer cluster's
#                 steady-state delivered-callback throughput at 256Ki live
#                 replicated sessions, swept over replication factor
#                 R in {1, 2, 3} (bench/bench_cluster.cc): what failure
#                 survival costs as a multiple of the R=1 protocol overhead.
#
# Recordings are performance claims, so they are only taken from an optimized
# build: benchmarks are built in a dedicated -DCMAKE_BUILD_TYPE=Release tree
# (default: build-bench, separate from the dev/test build), and after each run
# the emitted JSON's context.library_build_type is checked — a "debug"
# recording is deleted and the script fails rather than committing numbers
# measured on unoptimized code. Compare a fresh recording against a committed
# one with scripts/bench_compare.py.
#
# Usage:
#   scripts/bench_record.sh                         # record every experiment
#   scripts/bench_record.sh mpsc_submit             # just one
#   scripts/bench_record.sh all --benchmark_repetitions=5
#
# Environment:
#   BUILD_DIR=<dir>   bench build directory (default: build-bench; configured
#                     as Release by this script)
#   JOBS=<n>          parallel build jobs (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-bench}"
JOBS="${JOBS:-$(nproc)}"

TARGET="all"
case "${1:-}" in
  sparse_tick|mpsc_submit|restart|periodic|mpmc_dispatch|lawn|space|static_dispatch|cluster|all)
    TARGET="$1"
    shift ;;
esac

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null

# Refuse to keep a recording whose context says the measured code was built
# without optimization. bench_main.h stamps library_build_type from the
# benchmark binary's own NDEBUG (not the libbenchmark .so), so "debug" here
# means the numbers really were taken on -O0 code.
check_release() {
  local out="$1"
  local build_type
  if command -v python3 >/dev/null 2>&1; then
    build_type="$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1])).get("context",{}).get("library_build_type","missing"))' "$out")"
  else
    build_type="$(grep -o '"library_build_type": "[a-z]*"' "$out" |
      head -n1 | cut -d'"' -f4 || echo missing)"
  fi
  if [ "$build_type" != "release" ]; then
    rm -f "$out"
    echo "ERROR: $out reported library_build_type=$build_type;" \
      "refusing to record benchmarks from an unoptimized build." >&2
    echo "       (build dir: $BUILD_DIR — delete it and rerun, or point" \
      "BUILD_DIR at a Release tree.)" >&2
    exit 1
  fi
}

record() {
  local bench="$1" out="$2"
  shift 2
  cmake --build "$BUILD_DIR" -j "$JOBS" --target "$bench"
  "$BUILD_DIR"/bench/"$bench" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    "$@"
  check_release "$out"
  echo
  echo "Recorded $out"
}

summarize() {
  command -v python3 >/dev/null 2>&1 || return 0
  python3 - "$@"
}

if [ "$TARGET" = "sparse_tick" ] || [ "$TARGET" = "all" ]; then
  record bench_sparse_tick BENCH_sparse_tick.json "$@"
  summarize BENCH_sparse_tick.json <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

# benchmark_repetitions > 1 adds *_mean/_median/_stddev rows; prefer the mean
# when present, plain rows otherwise.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    base = name[: -len("_mean")] if name.endswith("_mean") else name
    if name.endswith("_mean") or base not in rows:
        rows[base] = b["real_time"]

print(f"{'scheme':<24}{'loop ns/span':>16}{'batched ns/span':>18}{'speedup':>10}")
for name, loop_ns in sorted(rows.items()):
    if not name.endswith("_Loop"):
        continue
    batched = rows.get(name[: -len("_Loop")] + "_Batched")
    if batched is None:
        continue
    scheme = name[len("BM_"):-len("_Loop")]
    print(f"{scheme:<24}{loop_ns:>16.0f}{batched:>18.0f}{loop_ns / batched:>9.1f}x")
PYEOF
fi

if [ "$TARGET" = "mpsc_submit" ] || [ "$TARGET" = "all" ]; then
  record bench_mpsc_submit BENCH_mpsc_submit.json "$@"
  summarize BENCH_mpsc_submit.json <<'PYEOF'
import json
import re
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

# rows[threads] = items_per_second; prefer the *_mean rows when
# benchmark_repetitions > 1 adds aggregates.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    m = re.match(r"mpsc_submit/deferred/real_time/threads:(\d+)", name)
    if not m or "items_per_second" not in b:
        continue
    key = int(m.group(1))
    if name.endswith("_mean") or key not in rows:
        rows[key] = b["items_per_second"]

print(f"{'producers':<12}{'deferred ops/s':>18}")
for threads in sorted(rows):
    print(f"{threads:<12}{rows[threads]:>18,.0f}")
PYEOF
fi

if [ "$TARGET" = "restart" ] || [ "$TARGET" = "all" ]; then
  record bench_restart BENCH_restart.json "$@"
  summarize BENCH_restart.json <<'PYEOF'
import json
import re
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

# rows[name] = items_per_second; prefer *_mean rows when repetitions add
# aggregates.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    base = name[: -len("_mean")] if name.endswith("_mean") else name
    if "items_per_second" not in b:
        continue
    if name.endswith("_mean") or base not in rows:
        rows[base] = b["items_per_second"]

for family in ("restart_micro", "restart_tcp"):
    print(f"{family}:")
    print(f"  {'scheme':<26}{'stopstart/s':>14}{'inplace/s':>14}{'speedup':>10}")
    schemes = sorted({
        m.group(1)
        for n in rows
        if (m := re.match(rf"{family}/([^/]+)/(inplace|stopstart)(?:/|$)", n))
    })
    for scheme in schemes:
        inplace = next((v for n, v in rows.items()
                        if n.startswith(f"{family}/{scheme}/inplace")), None)
        stopstart = next((v for n, v in rows.items()
                          if n.startswith(f"{family}/{scheme}/stopstart")), None)
        if inplace is None or stopstart is None:
            continue
        print(f"  {scheme:<26}{stopstart:>14,.0f}{inplace:>14,.0f}"
              f"{inplace / stopstart:>9.2f}x")
    print()

mpsc = {}
for name, ips in rows.items():
    m = re.match(r"restart_mpsc/(inplace|stopstart)/real_time/threads:(\d+)", name)
    if m:
        mpsc[(m.group(1), int(m.group(2)))] = ips
if mpsc:
    print("restart_mpsc (deferred ShardedWheel):")
    print(f"  {'producers':<12}{'stopstart/s':>14}{'inplace/s':>14}{'speedup':>10}")
    for threads in sorted({t for (_, t) in mpsc}):
        inplace = mpsc.get(("inplace", threads))
        stopstart = mpsc.get(("stopstart", threads))
        if inplace is None or stopstart is None:
            continue
        print(f"  {threads:<12}{stopstart:>14,.0f}{inplace:>14,.0f}"
              f"{inplace / stopstart:>9.2f}x")
PYEOF
fi

if [ "$TARGET" = "periodic" ] || [ "$TARGET" = "all" ]; then
  record bench_periodic BENCH_periodic.json "$@"
  summarize BENCH_periodic.json <<'PYEOF'
import json
import re
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

# rows[name] = items_per_second; prefer *_mean rows when repetitions add
# aggregates.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    base = name[: -len("_mean")] if name.endswith("_mean") else name
    if "items_per_second" not in b:
        continue
    if name.endswith("_mean") or base not in rows:
        rows[base] = b["items_per_second"]

for family in ("periodic_rearm_micro", "periodic_lap"):
    print(f"{family}:")
    print(f"  {'scheme':<26}{'stopstart/s':>14}{'relink/s':>14}{'speedup':>10}")
    schemes = sorted({
        m.group(1)
        for n in rows
        if (m := re.match(rf"{family}/([^/]+)/(relink|stopstart)(?:/|$)", n))
    })
    for scheme in schemes:
        relink = next((v for n, v in rows.items()
                       if n.startswith(f"{family}/{scheme}/relink")), None)
        stopstart = next((v for n, v in rows.items()
                          if n.startswith(f"{family}/{scheme}/stopstart")), None)
        if relink is None or stopstart is None:
            continue
        print(f"  {scheme:<26}{stopstart:>14,.0f}{relink:>14,.0f}"
              f"{relink / stopstart:>9.2f}x")
    print()

server = {
    (m.group(1), int(m.group(3))): ips
    for name, ips in rows.items()
    if (m := re.match(r"periodic_server/([^/]+)/(\d+)/(\d+)", name))
}
if server:
    print("periodic_server (end-to-end callbacks/s):")
    print(f"  {'scheme':<26}{'sessions':>12}{'callbacks/s':>14}")
    for (scheme, sessions) in sorted(server):
        print(f"  {scheme:<26}{sessions:>12,}{server[(scheme, sessions)]:>14,.0f}")
PYEOF
fi

if [ "$TARGET" = "mpmc_dispatch" ] || [ "$TARGET" = "all" ]; then
  record bench_mpmc_dispatch BENCH_mpmc_dispatch.json "$@"
  summarize BENCH_mpmc_dispatch.json <<'PYEOF'
import json
import re
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

ncpus = data.get("context", {}).get("num_cpus", "?")

# rows[(drainers, shards, live)] = (items_per_second, steal_frac); prefer
# *_mean rows when repetitions add aggregates.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    m = re.match(
        r"mpmc_dispatch/drainers:(\d+)/shards:(\d+)/live:(\d+)", name)
    if not m or "items_per_second" not in b:
        continue
    key = tuple(int(g) for g in m.groups())
    if name.endswith("_mean") or key not in rows:
        rows[key] = (b["items_per_second"], b.get("steal_frac", 0.0))

print(f"mpmc_dispatch (sustained expiry dispatches/s; host num_cpus={ncpus}):")
for (shards, live) in sorted({(s, l) for (_, s, l) in rows}):
    print(f"  shards={shards} live={live:,}:")
    print(f"    {'drainers':<10}{'fires/s':>16}{'steal_frac':>12}{'vs 1':>8}")
    base = rows.get((1, shards, live), (None, 0.0))[0]
    for drainers in sorted({d for (d, s, l) in rows if (s, l) == (shards, live)}):
        ips, steal = rows[(drainers, shards, live)]
        rel = f"{ips / base:>7.2f}x" if base else f"{'-':>8}"
        print(f"    {drainers:<10}{ips:>16,.0f}{steal:>12.3f}{rel}")
    print()
print("NOTE: drainer scaling above 1 requires num_cpus > 1; on a single-CPU")
print("host the sweep measures oversubscription overhead (expected flat).")
PYEOF
fi

if [ "$TARGET" = "lawn" ] || [ "$TARGET" = "all" ]; then
  record bench_lawn BENCH_lawn.json "$@"
  summarize BENCH_lawn.json <<'PYEOF'
import json
import re
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

# rows[(family, scheme, distinct, live)] = items_per_second; prefer *_mean
# rows when repetitions add aggregates.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    m = re.match(r"(lawn_tick|lawn_start)/([^/]+)/(\d+)/(\d+)", name)
    if not m or "items_per_second" not in b:
        continue
    key = (m.group(1), m.group(2), int(m.group(3)), int(m.group(4)))
    if name.endswith("_mean") or key not in rows:
        rows[key] = b["items_per_second"]

for family, unit in (("lawn_tick", "ticks/s"), ("lawn_start", "pairs/s")):
    sub = {k: v for k, v in rows.items() if k[0] == family}
    if not sub:
        continue
    for live in sorted({k[3] for k in sub}):
        distincts = sorted({k[2] for k in sub if k[3] == live})
        print(f"{family} ({unit}) at live={live:,}:")
        header = f"  {'scheme':<16}" + "".join(f"{f'D={d}':>12}" for d in distincts)
        print(header)
        schemes = sorted({k[1] for k in sub if k[3] == live})
        for scheme in schemes:
            cells = []
            for d in distincts:
                v = sub.get((family, scheme, d, live))
                cells.append(f"{v:>12,.0f}" if v is not None else f"{'-':>12}")
            print(f"  {scheme:<16}" + "".join(cells))
        print()
print("Crossover read: lawn's tick cost grows with D (one head probe per")
print("distinct TTL) and is flat in live; the wheels are flat in D and pay")
print("per-population migration/occupancy costs. lawn_capped64 beyond D=64")
print("shows the documented overflow-list fallback price.")
PYEOF
fi

if [ "$TARGET" = "space" ] || [ "$TARGET" = "all" ]; then
  record bench_space BENCH_space.json "$@"
  summarize BENCH_space.json <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

# rows[name] = benchmark dict (counters ride at the top level); prefer *_mean
# rows when repetitions add aggregates.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    base = name[: -len("_mean")] if name.endswith("_mean") else name
    if name.endswith("_mean") or base not in rows:
        rows[base] = b

print(f"{'scheme':<24}{'fixed B':>12}{'essential':>11}{'hot':>6}{'cold':>6}"
      f"{'actual':>8}{'aux @1k':>10}")
for name in sorted(n for n in rows if n.startswith("space/")):
    b = rows[name]
    print(f"{name[len('space/'):]:<24}{b.get('fixed_B', 0):>12,.0f}"
          f"{b.get('essential_B', 0):>11,.0f}{b.get('hot_B', 0):>6,.0f}"
          f"{b.get('cold_B', 0):>6,.0f}{b.get('actual_B', 0):>8,.0f}"
          f"{b.get('aux_B_at_1k', 0):>10,.0f}")
print()
print(f"{'coverage of a 2^32-tick range':<34}{'slots':>14}{'fixed B':>18}")
for name in sorted(n for n in rows if n.startswith("space_coverage/")):
    b = rows[name]
    print(f"{name[len('space_coverage/'):]:<34}{b.get('slots', 0):>14,.0f}"
          f"{b.get('fixed_B', 0):>18,.0f}")
PYEOF
fi

if [ "$TARGET" = "cluster" ] || [ "$TARGET" = "all" ]; then
  record bench_cluster BENCH_cluster.json "$@"
  summarize BENCH_cluster.json <<'PYEOF'
import json
import re
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

# rows[R] = benchmark dict; prefer *_mean rows when repetitions add
# aggregates.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    m = re.match(r"cluster/steady_state_R/(\d+)", name)
    if not m or "items_per_second" not in b:
        continue
    key = int(m.group(1))
    if name.endswith("_mean") or key not in rows:
        rows[key] = b

print("cluster steady state (delivered client callbacks/s, 256Ki sessions):")
print(f"  {'R':<4}{'callbacks/s':>16}{'live':>12}{'vs R=1':>10}")
base = rows.get(1, {}).get("items_per_second")
for r in sorted(rows):
    b = rows[r]
    ips = b["items_per_second"]
    rel = f"{base / ips:>9.2f}x" if base and ips else f"{'-':>10}"
    print(f"  {r:<4}{ips:>16,.0f}{b.get('live', 0):>12,.0f}{rel}")
print()
print("Read: every client timer costs R arms, R-1 standby leases in the host")
print("wheels, and a pop/notify/disarm round per fire; 'vs R=1' is the")
print("throughput COST multiple of that redundancy (higher = slower).")
PYEOF
fi

if [ "$TARGET" = "static_dispatch" ] || [ "$TARGET" = "all" ]; then
  record bench_static_dispatch BENCH_static_dispatch.json "$@"
  summarize BENCH_static_dispatch.json <<'PYEOF'
import json
import re
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

# rows[name] = benchmark dict; prefer *_mean rows when repetitions add
# aggregates.
rows = {}
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.endswith(("_median", "_stddev", "_cv")):
        continue
    base = name[: -len("_mean")] if name.endswith("_mean") else name
    if name.endswith("_mean") or base not in rows:
        rows[base] = b

print("virtual vs static dispatch, static = calls through the concrete final")
print("Scheme (ns/op; delta = virtual/static - 1):")
pairs = sorted({
    (m.group(1), m.group(2))
    for n in rows
    if (m := re.match(r"static_dispatch/([^/]+)/([^/]+)/(virtual|static)$", n))
})
print(f"  {'scheme':<24}{'op':<12}{'virtual':>10}{'static':>10}{'delta':>9}")
for scheme, op in pairs:
    v = rows.get(f"static_dispatch/{scheme}/{op}/virtual")
    s = rows.get(f"static_dispatch/{scheme}/{op}/static")
    if v is None or s is None:
        continue
    vt, st = v["real_time"], s["real_time"]
    print(f"  {scheme:<24}{op:<12}{vt:>10.1f}{st:>10.1f}"
          f"{(vt / st - 1) * 100:>+8.1f}%")
print()

scale = {
    int(m.group(1)): b
    for n, b in rows.items()
    if (m := re.match(r"space_at_scale/(\d+)", n))
}
if scale:
    print("space at scale (measured slab footprint, hashed wheel held by value):")
    print(f"  {'live':>12}{'hot slab MiB':>14}{'cold slab MiB':>15}"
          f"{'hot B/live':>12}{'total B/live':>14}{'starts/s':>14}")
    for live in sorted(scale):
        b = scale[live]
        print(f"  {live:>12,}{b.get('hot_slab_B', 0) / 2**20:>14,.1f}"
              f"{b.get('cold_slab_B', 0) / 2**20:>15,.1f}"
              f"{b.get('hot_B_per_live', 0):>12,.1f}"
              f"{b.get('total_B_per_live', 0):>14,.1f}"
              f"{b.get('items_per_second', 0):>14,.0f}")
print()
print("Read: both rows run identical loop code over identically-constructed")
print("schemes, so the delta isolates dispatch — vtable call vs inlined")
print("qualified call. The cheap ops (single-digit-ns restart/start_stop on")
print("the O(1) wheels) carry the honest per-call cost; on heavy ops (tick,")
print("us/call) dispatch is in the noise and the delta is inlining/code-")
print("layout luck that can swing either way. Record with")
print("--benchmark_repetitions=3 on a busy 1-CPU host; the summary folds the")
print("_mean rows. Hot B/live pins the 64-byte record at every scale.")
PYEOF
fi
