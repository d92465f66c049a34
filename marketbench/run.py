#!/usr/bin/env python3
"""The market-period benchmark for planetmarket.

Builds marketbench/ (a CMake package that compiles ../src) into
.bench_build/ at the root of the checkout, runs one workload through the
marketbench binary, checks its outputs, and prints a human-readable summary
followed, as the last line of standard output, by one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and the run also writes
the program's chrome://tracing file (federation workloads) and a per-layer
table under .bench_build/traces/.

    python3 marketbench/run.py --workload big-shard --seed 1 --seconds 20
    python3 marketbench/run.py --smoke    # all four workloads at toy size

Metric definitions, workload rationale and the layer -> metric predictions
are in marketbench/README.md.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
BINARY = os.path.join(BUILD_DIR, "marketbench")

# Workload names and metric names/units are declared once, in
# BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DECLARED = json.load(_f)
WORKLOADS = [w["name"] for w in _DECLARED["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in _DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _DECLARED["per_layer"]]

FEDERATED = {"big-shard", "planet-churn", "planet-pipelined"}
# The workloads each per-layer metric applies to (default: all). Where a
# layer is not on a workload's path the metric reads 0 there and "n/a" in
# the table (README.md, "Per-layer").
APPLIES = {
    "agents.make_bids_ms": {"bid-window"},
    "agents.bids_made": {"bid-window"},
    "auction.preliminary_ms": {"bid-window"},
    "auction.tick_ms_p50": {"bid-window"},
    "auction.tick_ms_p95": {"bid-window"},
    "auction.compile_ms": {"bid-window"},
    "auction.run_ms": {"bid-window"},
    "exchange.trades": FEDERATED,
    "exchange.moves": FEDERATED,
    "exchange.placement_failures": FEDERATED,
    "exchange.placed_ratio": FEDERATED,
    "federation.construct_ms": FEDERATED,
    "federation.route_ms": {"big-shard", "planet-churn"},
    "federation.barrier_ms": FEDERATED,
    "federation.window_wait_ms": {"planet-pipelined"},
    "federation.build_views_ms": FEDERATED,
    "federation.shard_overlap": FEDERATED,
    "federation.routed_parts": {"big-shard", "planet-churn"},
    "federation.spilled_bids": {"big-shard", "planet-churn"},
    "federation.rejected_parts": {"big-shard", "planet-churn"},
    "federation.contained_failures": {"planet-churn"},
    "federation.checkpoint_restores": {"planet-churn"},
    "federation.migrations": {"planet-churn"},
    "scenario.events_fired": {"planet-churn"},
    "scenario.churn_jobs_started": {"planet-churn"},
    "telemetry.metrics_json_ms": FEDERATED,
    "telemetry.metrics_json_bytes": FEDERATED,
}

# The binary's wall budget: it must finish well inside the 180 s a run
# may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package; False on error."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(max(1, os.cpu_count() or 1))])
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("marketbench: build step failed:", " ".join(step), err)
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("marketbench: build step failed:", " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, trace, scale):
    """Runs the binary once; returns its raw JSON object or None."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    # The binary writes a program trace only when it has one; never read
    # an earlier run's.
    stale = program_trace({"workload": workload, "seed": seed})
    if os.path.exists(stale):
        os.remove(stale)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--scale", scale, "--trace-dir", TRACE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("marketbench: run failed:", err)
        return None
    if proc.returncode != 0:
        log("marketbench: binary exited with", proc.returncode)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("marketbench: unreadable binary output")
        return None


def git_sha():
    """The checkout's HEAD commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(raw):
    """The end-to-end metrics and their sample counts (README.md)."""
    units = raw["units"]
    periods = sum(u["periods"] for u in units)
    replays = sum(u["replays"] for u in units)
    best_ms = sum(u["best_ms"] for u in units)
    return {
        "setup_s": (min(raw["setup_s"]), len(raw["setup_s"])),
        "periods_per_s": (1e3 * periods / best_ms, replays),
        "cpu_s_per_period":
            (sum(u["best_cpu_s"] for u in units) / periods, replays),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }


def program_spans(raw):
    """Σ duration (ms) per (track kind, span name) in the program's trace."""
    path = program_trace(raw)
    sums = {}
    if not os.path.exists(path):
        return sums
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    fed_tracks = {e["tid"] for e in events
                  if e.get("ph") == "M" and e["args"]["name"] == "federation"}
    for e in events:
        if e.get("ph") != "X" or e["args"]["epoch"] < raw["trace_first_epoch"]:
            continue
        kind = "federation" if e["tid"] in fed_tracks else "shard"
        key = (kind, e["name"])
        sums[key] = sums.get(key, 0.0) + e["dur"] / 1e3
    return sums


def window_wait_spans(raw):
    """Number of pipelined window-wait spans after the warm-up epochs."""
    path = program_trace(raw)
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return sum(1 for e in events
               if e.get("ph") == "X" and e["name"] == "window-wait" and
               e["args"]["epoch"] >= raw["trace_first_epoch"])


def trace_stem(raw):
    return os.path.join(TRACE_DIR, "%s-seed%d" % (raw["workload"],
                                                  raw["seed"]))


def program_trace(raw):
    """Where the binary writes a run's program chrome trace."""
    return trace_stem(raw) + ".program.trace.json"


def per_layer(raw):
    """The per-layer metrics of a traced run (README.md, "Per-layer")."""
    layers = raw["layers"]
    periods = raw["traced_periods"]
    wall = raw["traced_wall_ms"]
    workload = raw["workload"]

    def get(name):
        return layers.get(name, 0.0)

    def per_period(name):
        return get(name) / periods

    def per_call(name, calls):
        return get(name) / get(calls) if get(calls) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    ticks = [t for u in raw["units"] for t in u["best_split_ms"]] \
        if workload == "bid-window" else []
    spans = program_spans(raw)
    shard_ms = sum(v for (kind, _), v in spans.items() if kind == "shard")
    fed_ms = sum(v for (kind, _), v in spans.items() if kind == "federation")
    if workload in FEDERATED:
        collect = spans.get(("shard", "collect"), 0.0)
        bisect = spans.get(("shard", "bisect"), 0.0)
        settle = spans.get(("shard", "settle"), 0.0)
        spanned = shard_ms + fed_ms
    else:
        collect = get("auction.collect_ms")
        bisect = get("auction.bisect_ms")
        settle = get("exchange.settle_ms")
        spanned = (get("agents.make_bids_ms") + get("auction.preliminary_ms") +
                   get("auction.compile_ms") + get("auction.run_ms") + settle)

    m = {
        "agents.generate_world_ms": per_call("agents.generate_world_ms",
                                             "probe.world_setups"),
        "agents.make_bids_ms": per_period("agents.make_bids_ms"),
        "agents.bids_made": per_period("agents.bids_made"),
        "auction.collect_ms": collect / periods,
        "auction.bisect_ms": bisect / periods,
        "auction.preliminary_ms": per_period("auction.preliminary_ms"),
        # Only bid-window has preliminary ticks; a p95 needs >= 200.
        "auction.tick_ms_p50": statistics.median(ticks) if ticks else 0.0,
        "auction.tick_ms_p95":
            statistics.quantiles(ticks, n=20, method="inclusive")[18]
            if len(ticks) >= 200 else 0.0,
        "auction.compile_ms": per_period("auction.compile_ms"),
        "auction.run_ms": per_period("auction.run_ms"),
        "auction.reeval_ratio": ratio(get("auction.proxies_reevaluated"),
                                      get("auction.demand_evaluations")),
        "exchange.settle_ms": settle / periods,
        "exchange.unattributed_ms": (wall - spanned) / periods,
        "exchange.placed_ratio": ratio(get("exchange.placed_units"),
                                       get("exchange.awarded_units")),
        "exchange.snapshot_ms": per_call("exchange.snapshot_ms",
                                         "probe.snapshot_calls"),
        "exchange.snapshot_bytes": per_call("exchange.snapshot_bytes",
                                            "probe.snapshot_calls"),
        "cluster.utilization_vector_us": per_call(
            "cluster.utilization_vector_us", "probe.utilization_vector_calls"),
        "cluster.utilization_percentile_us": per_call(
            "cluster.utilization_percentile_us",
            "probe.utilization_percentile_calls"),
        "reserve.price_us": per_call("reserve.price_us", "probe.reserve_calls"),
        "federation.construct_ms": get("federation.construct_ms"),
        "federation.route_ms":
            spans.get(("federation", "route"), 0.0) / periods,
        "federation.barrier_ms":
            spans.get(("federation", "barrier"), 0.0) / periods,
        "federation.window_wait_ms":
            spans.get(("federation", "window-wait"), 0.0) / periods,
        "federation.build_views_ms": per_call("federation.build_views_ms",
                                              "probe.build_views_calls"),
        "federation.span_coverage": ratio(spanned, wall),
        "federation.shard_overlap": ratio(shard_ms, wall),
        "scenario.events_fired": get("scenario.events_fired"),
        "scenario.churn_jobs_started": get("scenario.churn_jobs_started"),
        "telemetry.metrics_json_ms": get("telemetry.metrics_json_ms"),
        "telemetry.metrics_json_bytes": get("telemetry.metrics_json_bytes"),
        "trace.overhead_frac": 1.0 - ratio(
            raw["untraced_best_ms"], sum(u["best_ms"] for u in raw["units"])),
    }
    for name in ("auction.rounds", "auction.demand_evaluations",
                 "auction.proxies_reevaluated", "auction.bisection_probes",
                 "auction.dot_blocks", "auction.dirty_bidders",
                 "exchange.bids", "exchange.winners", "exchange.trades",
                 "exchange.moves", "exchange.placement_failures",
                 "federation.routed_parts", "federation.spilled_bids",
                 "federation.rejected_parts",
                 "federation.contained_failures",
                 "federation.checkpoint_restores", "federation.migrations"):
        m[name] = per_period(name)
    return m


def layer_table(raw, metrics):
    rows = ["per-layer metrics: %s seed %d, %d traced periods "
            "(per period unless the unit says otherwise)"
            % (raw["workload"], raw["seed"], raw["traced_periods"])]
    for name, unit in PER_LAYER:
        value = ("%.6g" % metrics[name]) \
            if raw["workload"] in APPLIES.get(name, WORKLOADS) else "n/a"
        rows.append("  %-36s %14s %s" % (name, value, unit))
    return "\n".join(rows)


def check(raw, trace):
    """Output checks beyond the binary's own; returns a list of problems."""
    problems = list(raw["failures"])
    if raw["failed"] != 0 and not problems:
        problems.append("%d failed operations" % raw["failed"])
    stamp = raw["stamp"]
    if stamp["build_type"] != "Release" or "-fsanitize" in stamp["cxx_flags"]:
        problems.append("not a Release build without sanitizers")
    if not raw["digest"]:
        problems.append("no output digest")
    if not raw["units"] or raw["measure_s"] <= 0:
        problems.append("no period completed")
    if trace and raw["traced_periods"] <= 0:
        problems.append("traced pass ran no period")
    return problems


def report(raw, trace):
    """Prints the summary and returns the result object."""
    stamp = dict(raw["stamp"])
    stamp["git_sha"] = git_sha()
    problems = check(raw, trace)
    if trace and raw["workload"] == "planet-pipelined":
        waits = window_wait_spans(raw)
        stamp["pipelined"] = "ran: %d window-wait spans" % waits
        if waits == 0:
            problems.append("no window-wait span: RunEpochs did not pipeline")
    print("host/build: " + json.dumps(stamp, sort_keys=True))
    print("digest: %s (%s seed %d)" % (raw["digest"], raw["workload"],
                                       raw["seed"]))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    attempted = max(1, raw["attempted"])
    failed = max(raw["failed"], 1 if problems else 0)
    print("failed_frac: %.6g (%d of %d shard auctions, ticks and checks)"
          % (failed / attempted, failed, attempted))
    metrics = {}
    if not raw["units"]:
        pass  # Nothing was measured; check() has said why.
    elif trace:
        values = per_layer(raw)
        for name, unit in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
        table = layer_table(raw, values)
        with open(trace_stem(raw) + ".layers.txt", "w") as f:
            f.write(table + "\n")
        print(table)
        if os.path.exists(program_trace(raw)):
            print("trace: " + program_trace(raw))
    else:
        values = end_to_end(raw)
        for name, unit in END_TO_END:
            value, samples = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print("  %-18s %14.6g %-4s (n=%d)" % (name, value, unit, samples))
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            problems.append("metric %s is not finite" % name)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def smoke():
    """Every workload at toy size: both modes, two seeds, digests repeat."""
    ok = True
    for workload in WORKLOADS:
        digests = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0), (1, 0)):
            raw = run_binary(workload, seed, 0.5, trace, "smoke")
            if raw is None:
                log("smoke: %s seed %d trace %d did not run"
                    % (workload, seed, trace))
                ok = False
                continue
            result = report(raw, trace)
            if not result["correct"]:
                ok = False
            previous = digests.setdefault(seed, raw["digest"])
            if previous != raw["digest"]:
                log("smoke: %s seed %d digest changed between runs"
                    % (workload, seed))
                ok = False
        if digests.get(1) == digests.get(2):
            log("smoke: %s digest does not depend on the seed" % workload)
            ok = False
    print("smoke: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    raw = run_binary(args.workload, args.seed, args.seconds, args.trace,
                     "full")
    if raw is None:
        return 1
    result = report(raw, args.trace == 1)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
