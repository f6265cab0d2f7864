#!/usr/bin/env python3
"""Wall-clock benchmark of the RQP engine, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is olap-star, robust-trap, serve-mixed, or `all` to run the three in
turn. The script builds the engine and the benchmark runner from source
(CMake, Release) under $CARGO_TARGET_DIR, or .bench_build when that is
unset, runs the self-tests of its own arithmetic, runs the workload and
checks every answer. The last line of standard output is one JSON object:
end-to-end metrics with --trace 0; with --trace 1 the per-layer metrics of
a traced run of the same seed, which is compared against a second,
untraced run to report the tracing overhead. README.md describes the
workloads and metrics.

Exit codes: 0 done; 1 some answer was wrong (the JSON is still printed);
2 build or harness failure; 3 the open-loop run was invalid (the load
generator fell behind or the backlog grew), so no latency is reported.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import test_metrics  # noqa: E402

WORKLOADS = ("olap-star", "robust-trap", "serve-mixed")

# Wall-clock budget for the workload processes of one invocation.
RUN_BUDGET_S = 170

# Open-loop validity (serve-mixed): the generator's p99 lateness and the
# requests still in flight when the schedule ends.
MAX_GENERATOR_LATE_P99_MS = 50.0
MAX_BACKLOG_AT_END = 32


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


class InvalidRun(Exception):
    """The run completed but its open loop did not hold its schedule."""


class Record:
    """One workload process's observations (see harness.h for the format)."""

    def __init__(self, path):
        self.samples = defaultdict(list)
        self.spans = {}        # id -> (parent, start_ns, end_ns)
        self.span_name = {}    # id -> name
        self.counts = defaultdict(float)
        self.facts = {}
        self.errors = []
        with open(path) as f:
            for line in f:
                field = line.rstrip("\n").split("\t")
                kind = field[0]
                if kind == "sample":
                    self.samples[field[1]].append(float(field[2]))
                elif kind == "span":
                    sid = int(field[1])
                    self.spans[sid] = (int(field[2]), int(field[5]),
                                       int(field[6]))
                    self.span_name[sid] = field[4]
                elif kind == "count":
                    self.counts[field[1]] = float(field[2])
                elif kind == "fact":
                    self.facts[field[1]] = float(field[2])
                elif kind == "error":
                    self.errors.append(field[1])

    def failed(self):
        return int(sum(v for k, v in self.counts.items()
                       if k.startswith("failed.")))

    def mismatches(self):
        return int(self.counts["failed.mismatch"])


# --------------------------------------------------------------------------
# Building and running


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = target if os.path.isabs(target) else os.path.join(root, target)
    bdir = os.path.join(build_root, "perfbench")
    configured = any(os.path.exists(os.path.join(bdir, f))
                     for f in ("build.ninja", "Makefile"))
    steps = []
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build step failed: %s" % e)
        if proc.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "perfbench"), build_root


def run_workload(binary, build_root, workload, seed, seconds, trace,
                 deadline):
    records = os.path.join(build_root, "records")
    os.makedirs(records, exist_ok=True)
    out = os.path.join(records, "%s-seed%d-trace%d.tsv" % (workload, seed,
                                                           trace))
    spill = os.path.join(build_root, "spill", "%d-%d" % (os.getpid(), trace))
    os.makedirs(spill, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out,
           "--spill-dir", spill]
    try:
        # On timeout subprocess.run kills the child and waits for it.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in time" % workload)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d" % (workload,
                                                     proc.returncode))
    record = Record(out)
    for e in record.errors:
        log("%s: %s" % (workload, e))
    return record


def self_tests_pass():
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_metrics)
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


# --------------------------------------------------------------------------
# Metrics


def end_to_end(rec, workload):
    """The end-to-end metrics (name -> (value, unit)) of an untraced run,
    and the workload-specific extras printed beside them."""
    latency = rec.samples["latency_ms"]
    p99 = metrics.windowed_percentile(latency, 99)
    if p99 is None:
        raise BenchError("%d latency samples cannot support a p99"
                         % len(latency))
    window = rec.facts.get("window_s", 0.0)
    # The JSON gates p95: on a shared VM p99's spread over seeds outgrew
    # any usable bound under host steal, while p95 held (README.md).
    out = {
        "latency_p50_ms": (metrics.windowed_percentile(latency, 50), "ms"),
        "latency_p95_ms": (metrics.windowed_percentile(latency, 95), "ms"),
        "throughput_qps": (metrics.per(rec.counts["completed"], window),
                           "1/s"),
        "setup_s": (metrics.median(rec.samples["setup_s"]), "s"),
        "peak_rss_mb": (rec.facts["peak_rss_mb"], "MiB"),
    }
    extras = {
        "latency_p99_ms": (p99, "ms"),
        "latency_samples": (len(latency), "count"),
        "failed_frac": (metrics.per(rec.failed(), rec.counts["attempted"]),
                        "ratio"),
    }
    if workload == "olap-star":
        extras["rows_per_s"] = (metrics.per(rec.counts["rows_read"], window),
                                "rows/s")
    if workload == "serve-mixed":
        extras["bi_latency_p50_ms"] = (
            metrics.median(rec.samples["dash_latency_ms"]), "ms")
        extras["txn_latency_p50_ms"] = (
            metrics.median(rec.samples["txn_latency_ms"]), "ms")
        late = rec.samples["bench.generator_late_ms"]
        late_p99 = metrics.supported_percentile(late, 99)
        backlog = rec.facts["backlog_end"]
        extras["bench.generator_late_p99_ms"] = (late_p99, "ms")
        extras["backlog_at_end"] = (backlog, "count")
        if late_p99 is None or late_p99 > MAX_GENERATOR_LATE_P99_MS:
            raise InvalidRun("generator p99 lateness %s ms exceeds %.0f ms"
                             % (late_p99, MAX_GENERATOR_LATE_P99_MS))
        if backlog > MAX_BACKLOG_AT_END:
            raise InvalidRun("%d requests still in flight at the end of the "
                             "schedule (bound %d)"
                             % (backlog, MAX_BACKLOG_AT_END))
    return out, extras


def layer_of(name):
    return name.split(".", 1)[0] if "." in name else "bench"


def layer_self_ms(rec):
    """Per layer: self time per traced unit of work (a request, a replay or
    an append, i.e. a root span) that touched the layer, in ms. Set-up,
    reference and verification spans are left out."""
    roots = {}

    def root_of(sid):
        if sid not in roots:
            parent = rec.spans[sid][0]
            roots[sid] = root_of(parent) if parent in rec.spans else sid
        return roots[sid]

    selfs = metrics.self_times(rec.spans)
    total = defaultdict(float)
    units = defaultdict(set)
    skipped = {"setup", "bench.reference", "bench.verify"}
    for sid, self_ns in selfs.items():
        root = root_of(sid)
        if rec.span_name[root] in skipped:
            continue
        layer = layer_of(rec.span_name[sid])
        total[layer] += self_ns / 1e6
        units[layer].add(root)
    return {layer: metrics.per(total[layer], len(units[layer]))
            for layer in total}


def per_layer(traced, untraced):
    """Per-layer metrics (name -> (value, unit)) of a traced run; `untraced`
    is a run of the same seed without tracing, for the overhead."""
    c, s = traced.counts, traced.samples
    queries = c["queries"]
    plan_us = s["optimizer.plan_us"]
    tail_q, tail = metrics.highest_supported(plan_us)
    drain_ms = s["exec.drain_ms"]
    result_cache = metrics.Ratio(c["cache.result_hits"],
                                 c["cache.result_hits"] +
                                 c["cache.result_misses"])
    plan_cache = metrics.Ratio(c["engine.plan_cache_hits"],
                               c["engine.plan_cache_lookups"])
    self_ms = layer_self_ms(traced)
    traced_p50 = metrics.median(s["latency_ms"])
    untraced_p50 = metrics.median(untraced.samples["latency_ms"])

    def per_query(name):
        return metrics.per(c[name], queries)

    def p(values, q):
        return metrics.percentile(values, q)[0] or 0.0

    out = {
        "storage.generate_ms": (metrics.median(s["setup.generate_ms"]), "ms"),
        "storage.spill_pages_written":
            (per_query("storage.spill_pages_written"), "pages/query"),
        "storage.spill_pages_reread":
            (per_query("storage.spill_pages_reread"), "pages/query"),
        "stats.analyze_ms": (metrics.median(s["setup.analyze_ms"]), "ms"),
        "optimizer.plan_us_p50": (p(plan_us, 50), "us"),
        "optimizer.plan_us_tail": (tail or 0.0, "us"),
        "optimizer.plan_us_tail_pct": (tail_q or 0.0, "%"),
        "optimizer.plans_considered":
            (per_query("optimizer.plans_considered"), "plans/query"),
        "engine.overhead_us_p50": (p(s["engine.overhead_us"], 50), "us"),
        "engine.reopts_per_query": (per_query("engine.reopts"), "count"),
        "engine.guardrail_retries_per_query":
            (per_query("engine.guardrail_retries"), "count"),
        "engine.plan_cache_hit_ratio": (plan_cache.value, "ratio"),
        "engine.plan_cache_lookups": (plan_cache.base, "count"),
        "exec.drain_ms_p50": (p(drain_ms, 50), "ms"),
        "exec.pop_checks_fired": (c["exec.pop_checks_fired"], "count"),
        "exec.rows_processed": (per_query("exec.rows_processed"), "rows/query"),
        "exec.hash_ops": (per_query("exec.hash_ops"), "ops/query"),
        "exec.morsels": (per_query("exec.morsels"), "morsels/query"),
        "exec.rows_materialized":
            (per_query("exec.rows_materialized"), "rows/query"),
        "exec.transposes_elided":
            (per_query("exec.transposes_elided"), "rows/query"),
        "exec.rows_per_busy_s":
            (metrics.per(c["replay.rows_processed"], sum(drain_ms) / 1e3),
             "rows/s"),
        "expr.predicate_evals":
            (per_query("expr.predicate_evals"), "evals/query"),
        "cache.result_hit_ratio": (result_cache.value, "ratio"),
        "cache.result_lookups": (result_cache.base, "count"),
        "cache.result_patched": (c["cache.result_patched"], "count"),
        "cache.result_invalidations":
            (c["cache.result_invalidations"], "count"),
        "cache.result_evictions": (c["cache.result_evictions"], "count"),
        "server.queue_depth_p99": (p(s["server.queue_depth"], 99), "count"),
        "server.running_mean":
            (metrics.per(sum(s["server.running"]), len(s["server.running"])),
             "count"),
        "server.rejected": (c["server.rejected"], "count"),
        "server.shed_retries": (c["server.shed_retries"], "count"),
        "bench.generator_late_p99_ms":
            (p(s["bench.generator_late_ms"], 99), "ms"),
        "trace.overhead_pct":
            (100.0 * (traced_p50 / untraced_p50 - 1.0), "%"),
    }
    for layer in ("bench", "engine", "optimizer", "exec", "server",
                  "storage"):
        out[layer + ".self_ms"] = (self_ms.get(layer, 0.0), "ms/request")
    return out


# --------------------------------------------------------------------------


def measure(binary, build_root, workload, args, deadline):
    """Runs one workload. Returns its metrics for the JSON line and the
    (attempted, failed, mismatched) requests of every run it made."""
    untraced = run_workload(binary, build_root, workload, args.seed,
                            args.seconds, 0, deadline)
    e2e, extras = end_to_end(untraced, workload)
    for name, (value, unit) in list(e2e.items()) + list(extras.items()):
        print("%-12s %-34s %14.6g %s" % (workload, name, value, unit))
    runs = [untraced]
    values = e2e
    if args.trace:
        traced = run_workload(binary, build_root, workload, args.seed,
                              args.seconds, 1, deadline)
        runs.append(traced)
        values = per_layer(traced, untraced)
        for name, (value, unit) in sorted(values.items()):
            print("%-12s %-34s %14.6g %s" % (workload, name, value, unit))
    return values, (sum(int(r.counts["attempted"]) for r in runs),
                    sum(r.failed() for r in runs),
                    sum(r.mismatches() for r in runs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not self_tests_pass():
        log("self-tests of the benchmark arithmetic failed")
        return 2
    root = os.path.dirname(HERE)
    try:
        binary, build_root = build(root)
    except BenchError as e:
        log(str(e))
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.time() + RUN_BUDGET_S * len(workloads)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w in workloads:
            values, (attempted, failed, mismatched) = measure(
                binary, build_root, w, args, deadline)
            prefix = w + "." if len(workloads) > 1 else ""
            for name, (value, unit) in values.items():
                result["metrics"][prefix + name] = {"value": value,
                                                    "unit": unit}
            result["attempted"] += attempted
            result["failed"] += failed
            result["correct"] = result["correct"] and mismatched == 0
    except InvalidRun as e:
        log("invalid open-loop run: %s" % e)
        return 3
    except (BenchError, KeyError, TypeError, ValueError, OSError) as e:
        # KeyError/ValueError: a record without an expected line, or
        # malformed; the runner crashed before writing it out in full.
        log("no measurement: %r" % e)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
