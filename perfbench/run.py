#!/usr/bin/env python3
"""The repo benchmark: two composition workloads, measured end to end and
layer by layer.

    python3 perfbench/run.py --workload xl_acp --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The first call builds the bench binary
(perfbench/perfbench.cpp plus the simulator sources under src/) into
.bench_build/perfbench; later calls reuse that build. Each call runs one
workload in its own process and prints, as the last line of stdout, one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1 runs the
traced pass and reports the per-layer metrics. Every call checks the
simulator's outputs (see check_e2e / check_trace) and exits 1 when they are
wrong. perfbench/NOTES.md explains the workloads and the metrics.
"""
import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "acp_perfbench"

WORKLOADS = ("xl_acp", "paper_acp")

# Sim outputs of one run. They are a pure function of the workload, the
# seed and the engine lineage (serial, or sharded with any lane count), so
# they must agree bit for bit between runs of one lineage.
SIM_OUTPUTS = ("requests", "successes", "success_rate", "mean_phi", "overhead_per_minute",
               "mean_candidates_qualified")

END_TO_END_UNITS = {
    "requests_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "mean_phi": "phi",
    "overhead_msgs_per_min": "msgs/min",
}

# Scopes that src/ records (obs::prof_scope), by their key in acp_perfbench's JSON.
DISPATCH = "sim.dispatch"
HOP = "probing.process_probe"
RANK = "probing.rank_candidates"
FINALIZE = "probing.finalize"
LOOKUP = "discovery.lookup"
CHECK_SWEEP = "state.check_sweep"
PUBLISH = "state.publish"

LAYER_UNITS = {
    "core.finalize_calls": "count",
    "core.finalize_s": "s",
    "core.finalize_share": "fraction",
    "core.finalize_us_p50": "us",
    "core.finalize_us_p99": "us",
    "core.qualified_per_request": "graphs",
    "core.rank_calls": "count",
    "core.rank_s": "s",
    "core.rank_share": "fraction",
    "core.rank_us_p50": "us",
    "core.rank_us_p99": "us",
    "core.candidates_evaluated": "count",
    "core.rank_ns_per_candidate": "ns",
    "core.hops": "count",
    "core.hop_self_s": "s",
    "core.hop_self_share": "fraction",
    "core.hop_us_p50": "us",
    "core.hop_us_p99": "us",
    "core.probe_return_ratio": "fraction",
    "core.candidate_reject_ratio": "fraction",
    "core.confirm_ratio": "fraction",
    "core.messages_per_request": "msgs",
    "sim.events": "count",
    "sim.events_per_request": "count",
    "sim.events_per_s": "1/s",
    "sim.dispatch_calls": "count",
    "sim.dispatch_s": "s",
    "sim.dispatch_share": "fraction",
    "sim.dispatch_us_p50": "us",
    "sim.dispatch_us_p99": "us",
    "sim.lane_phase_s": "s",
    "sim.lane_phase_share": "fraction",
    "sim.shard_speedup": "x",
    "sim.window_tax": "x",
    "state.check_sweep_s": "s",
    "state.check_sweep_share": "fraction",
    "state.publish_s": "s",
    "state.publish_share": "fraction",
    "state.global_updates": "count",
    "state.aggregation_updates": "count",
    "discovery.lookups": "count",
    "discovery.lookup_s": "s",
    "discovery.lookup_share": "fraction",
    "net.fabric_build_s": "s",
    "stream.deploy_build_s": "s",
    "obs.trace_overhead_ratio": "x",
    "exp.traced_wall_s": "s",
    "exp.untraced_wall_s": "s",
    "exp.unscoped_s": "s",
    "exp.unscoped_share": "fraction",
}

BENCH_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a failed build, a crash)."""


def ratio(num, den):
    return num / den if den else 0.0


def batched_median(values, batches=5):
    """Median of the means of `batches` consecutive, near-equal slices of
    `values`. A single torus set-up takes a few ms and its time is bimodal,
    so a plain median flips between the modes from run to run; batch means
    do not."""
    n = len(values)
    cuts = [round(i * n / batches) for i in range(batches + 1)]
    return statistics.median(statistics.fmean(values[a:b])
                             for a, b in zip(cuts, cuts[1:]) if b > a)


def check_identical(label_a, a, label_b, b):
    """Problems when two runs' sim outputs differ in any bit."""
    return [f"{label_b} {k}={b[k]!r} differs from {label_a} {k}={a[k]!r}"
            for k in SIM_OUTPUTS if a[k] != b[k]]


def check_run(label, run, expected_requests):
    """Problems with one run's outputs taken on their own."""
    problems = []
    n, ok = run["requests"], run["successes"]
    # Poisson arrivals: a count more than 6 sigma from the mean means the
    # workload generator or the outcome accounting is broken.
    if abs(n - expected_requests) > 6.0 * math.sqrt(expected_requests):
        problems.append(f"{label} saw {n} requests, expected about {expected_requests:.0f}")
    if not 0 < ok <= n:
        problems.append(f"{label} successes={ok} not in (0, requests={n}]")
    elif run["success_rate"] != ok / n:
        problems.append(f"{label} success_rate={run['success_rate']!r} != {ok}/{n}")
    if not (math.isfinite(run["mean_phi"]) and run["mean_phi"] > 0):
        problems.append(f"{label} mean_phi={run['mean_phi']!r} is not positive")
    if not run["overhead_per_minute"] > 0:
        problems.append(f"{label} overhead_per_minute={run['overhead_per_minute']!r}")
    if not run["wall_s"] > 0:
        problems.append(f"{label} wall_s={run['wall_s']!r}")
    return problems


def check_e2e(raw):
    """Output check of an untraced pass: each run is sane, and every repeat
    reproduces the first run's sim outputs exactly."""
    runs = raw["runs"]
    problems = []
    for i, run in enumerate(runs):
        problems += check_run(f"run {i}", run, raw["expected_requests"])
        if i > 0:
            problems += check_identical("run 0", runs[0], f"run {i}", run)
    return problems


def check_trace(raw):
    """Output check of a traced pass: the traced run reproduces the untraced
    ones and its request counters balance. The sharded runs, when present,
    reproduce each other; they are another lineage than the serial runs and
    are not compared with them."""
    untraced, traced, counters = raw["untraced"], raw["traced"], raw["counters"]
    problems = check_run("traced run", traced, raw["expected_requests"])
    for i, run in enumerate(untraced):
        problems += check_run(f"untraced run {i}", run, raw["expected_requests"])
        problems += check_identical("traced run", traced, f"untraced run {i}", run)
    accepted = counters.get("acp.request.accepted", 0)
    confirmed = counters.get("acp.request.confirmed", 0)
    failed = counters.get("acp.request.failed", 0)
    if not accepted == confirmed + failed == traced["requests"]:
        problems.append(f"acp.request counters accepted={accepted} confirmed={confirmed} "
                        f"failed={failed} do not balance with requests={traced['requests']}")
    if confirmed != traced["successes"]:
        problems.append(f"acp.request.confirmed={confirmed} != successes={traced['successes']}")
    sharded = raw.get("sharded")
    if sharded:
        for key in ("untraced", "one_lane", "traced"):
            problems += check_run(f"sharded {key} run", sharded[key], raw["expected_requests"])
        for key in ("one_lane", "traced"):
            problems += check_identical("sharded untraced run", sharded["untraced"],
                                        f"sharded {key} run", sharded[key])
    return problems


def e2e_metrics(raw):
    runs = raw["runs"]
    first = runs[0]
    return {
        "requests_per_s": statistics.median(r["requests"] / r["wall_s"] for r in runs),
        "setup_s": batched_median([s["fabric_s"] + s["deploy_s"] for s in raw["setup"]]),
        "peak_rss_mb": raw["peak_rss_bytes"] / 1e6,
        "success_rate": first["success_rate"],
        "mean_phi": first["mean_phi"],
        "overhead_msgs_per_min": first["overhead_per_minute"],
    }


def layer_metrics(raw):
    scopes, counters = raw["scopes"], raw["counters"]
    traced = raw["traced"]
    wall = traced["wall_s"]
    untraced_wall = statistics.fmean(r["wall_s"] for r in raw["untraced"])
    requests = traced["requests"]

    def s(name):
        return scopes[name]["sum_s"]

    def us(name, q):
        return scopes[name][q] * 1e6

    def c(name):
        return counters.get(name, 0)

    evaluated = c("acp.probe.candidates_evaluated")
    hop_self = max(0.0, s(HOP) - s(RANK) - s(LOOKUP))
    m = {
        "core.finalize_calls": scopes[FINALIZE]["count"],
        "core.finalize_s": s(FINALIZE),
        "core.finalize_us_p50": us(FINALIZE, "p50_s"),
        "core.finalize_us_p99": us(FINALIZE, "p99_s"),
        "core.qualified_per_request": traced["mean_candidates_qualified"],
        "core.rank_calls": scopes[RANK]["count"],
        "core.rank_s": s(RANK),
        "core.rank_us_p50": us(RANK, "p50_s"),
        "core.rank_us_p99": us(RANK, "p99_s"),
        "core.candidates_evaluated": evaluated,
        "core.rank_ns_per_candidate": ratio(s(RANK), evaluated) * 1e9,
        "core.hops": scopes[HOP]["count"],
        "core.hop_self_s": hop_self,
        "core.hop_us_p50": us(HOP, "p50_s"),
        "core.hop_us_p99": us(HOP, "p99_s"),
        "core.probe_return_ratio": ratio(c("acp.probe.returned"), c("acp.probe.spawned")),
        "core.candidate_reject_ratio": ratio(c("acp.probe.candidates_rejected"), evaluated),
        "core.confirm_ratio": ratio(c("acp.request.confirmed"), c("acp.request.accepted")),
        "core.messages_per_request": ratio(c("acp.probe.messages"), requests),
        "sim.events": c("acp.sim.events_executed"),
        "sim.events_per_request": ratio(c("acp.sim.events_executed"), requests),
        "sim.events_per_s": ratio(c("acp.sim.events_executed"), untraced_wall),
        "sim.dispatch_calls": scopes[DISPATCH]["count"],
        "sim.dispatch_s": s(DISPATCH),
        "sim.dispatch_us_p50": us(DISPATCH, "p50_s"),
        "sim.dispatch_us_p99": us(DISPATCH, "p99_s"),
        "state.check_sweep_s": s(CHECK_SWEEP),
        "state.publish_s": s(PUBLISH),
        "state.global_updates": c("acp.state.global_updates"),
        "state.aggregation_updates": c("acp.state.aggregation_updates"),
        "discovery.lookups": scopes[LOOKUP]["count"],
        "discovery.lookup_s": s(LOOKUP),
        "net.fabric_build_s": batched_median([x["fabric_s"] for x in raw["setup"]]),
        "stream.deploy_build_s": batched_median([x["deploy_s"] for x in raw["setup"]]),
        "obs.trace_overhead_ratio": ratio(wall, untraced_wall),
        "exp.traced_wall_s": wall,
        "exp.untraced_wall_s": untraced_wall,
        "exp.unscoped_s": max(0.0, wall - s(DISPATCH)),
    }
    for name in ("core.finalize", "core.rank", "core.hop_self", "sim.dispatch",
                 "state.check_sweep", "state.publish", "discovery.lookup", "exp.unscoped"):
        m[name + "_share"] = ratio(m[name + "_s"], wall)
    # Zero where the sharded engine did not run. It times only its global
    # lane under sim.dispatch, so the rest of its traced wall is the lane
    # phase.
    m.update(dict.fromkeys(("sim.lane_phase_s", "sim.lane_phase_share", "sim.shard_speedup",
                            "sim.window_tax"), 0.0))
    sharded = raw.get("sharded")
    if sharded:
        lanes_wall = sharded["traced"]["wall_s"]
        lane_phase = max(0.0, lanes_wall - sharded["global_dispatch_s"])
        m.update({
            "sim.lane_phase_s": lane_phase,
            "sim.lane_phase_share": ratio(lane_phase, lanes_wall),
            "sim.shard_speedup": ratio(untraced_wall, sharded["untraced"]["wall_s"]),
            "sim.window_tax": ratio(sharded["one_lane"]["wall_s"], untraced_wall),
        })
    return m


def result_line(metrics, units, problems, attempted):
    """The benchmark's result object; every metric is printed with its unit."""
    correct = not problems
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_process(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and returns (exit code, stdout).
    On a timeout, an error or a signal, kills the whole group (a build's
    compilers too) and waits for it before re-raising."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "exp" / "experiment.h").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "acp_perfbench", "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        code, _ = run_process(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            raise BenchError(f"build step failed ({code}): {' '.join(cmd)}")


def run_binary(args):
    cmd = [str(BINARY)] + args
    code, out = run_process(cmd, BENCH_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        raise BenchError(f"acp_perfbench failed ({code}): {' '.join(cmd)}")
    return json.loads(out)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so run_process stops its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.trace:
            raw = run_binary(common + ["--mode", "trace"])
            problems = check_trace(raw)
            runs = raw["untraced"] + [raw["traced"]]
            if "sharded" in raw:
                runs += [raw["sharded"][k] for k in ("untraced", "one_lane", "traced")]
            result = result_line(layer_metrics(raw), LAYER_UNITS, problems,
                                 sum(r["requests"] for r in runs))
        else:
            raw = run_binary(common + ["--mode", "e2e", "--seconds", str(args.seconds)])
            problems = check_e2e(raw)
            result = result_line(e2e_metrics(raw), END_TO_END_UNITS, problems,
                                 sum(r["requests"] for r in raw["runs"]))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
