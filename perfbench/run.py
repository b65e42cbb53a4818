#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds.

Run from the root of a checkout.  Builds perfbench/ssno_perf against the
checkout's library (CMake, Release, into .bench_build/), runs one
workload in its own process, checks every output, and prints each metric
by name with its unit.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The exit status is 0 only when every check passed.

The statistics live here; ssno_perf hands over raw samples and counts.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ssno_perf")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    """Workload names, {metric: unit} for both metric lists, and the
    seconds one run measures."""
    with open(path) as f:
        spec = json.load(f)
    e2e, layers = ({m["name"]: m["unit"] for m in spec[key]}
                   for key in ("end_to_end", "per_layer"))
    return ([w["name"] for w in spec["workloads"]], e2e, layers,
            spec["run_seconds"])


def percentile(samples, p):
    """The p-th percentile (nearest rank) of `samples` and the sample count.

    The median is always reported.  Any other percentile is reported only
    when at least MIN_BEYOND samples lie beyond it; otherwise the value is
    None.
    """
    n = len(samples)
    if n == 0:
        return None, 0
    if p == 50:
        return statistics.median(samples), n
    rank = math.ceil(p / 100 * n)
    if n - rank < MIN_BEYOND:
        return None, n
    return sorted(samples)[rank - 1], n


def summarize(raw, trace, e2e_units, layer_units):
    """Metrics {name: {"value", "unit"}} for one run's raw record.

    Raises ValueError when the record lacks what a metric needs.
    """
    values = {}
    if not trace:
        values["setup_s"] = statistics.median(raw["setup_s"])
        values["throughput"] = percentile(raw["rate_samples"], 50)[0]
        values["latency_s.p50"] = percentile(raw["latency_s"], 50)[0]
        values["peak_rss_mb"] = raw["peak_rss_mb"]
        values["moves"] = raw["moves"]
        values["rounds"] = raw["rounds"]
        units = e2e_units
    else:
        values.update(raw["layers"])
        values["error_rate"] = raw["failed"] / raw["attempted"]
        values["latency_s.n"] = len(raw["latency_s"])
        values["latency_s.p99"] = percentile(raw["latency_s"], 99)[0]
        # Each sample set is reported as its median, under its own name.
        for name, samples in raw["samples"].items():
            values[name] = percentile(samples, 50)[0]
        units = layer_units
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        # 0 marks a layer this workload does not exercise, or a tail
        # percentile without enough samples beyond it.
        metrics[name] = {"value": 0.0 if value is None else float(value),
                         "unit": unit}
    unknown = set(values) - set(units)
    if unknown:
        raise ValueError("metrics missing from BENCHMARK.json: "
                         + ", ".join(sorted(unknown)))
    check_format(metrics)
    return metrics


def check_format(metrics):
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
        if not UNIT_RE.match(m.get("unit", "")):
            raise ValueError("metric %r has no valid unit" % name)
        if not isinstance(m["value"], float) or not math.isfinite(m["value"]):
            raise ValueError("metric %r is not a finite number" % name)


def result_line(raw, metrics):
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    return correct, json.dumps({"correct": correct,
                                "attempted": int(raw["attempted"]),
                                "failed": int(raw["failed"]),
                                "metrics": metrics})


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("library sources not found beside perfbench/ "
                           "(run from the root of a full checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "ssno_perf",
                    "-j", jobs], stdout=sys.stderr, check=True)


def run_workload(workload, seed, seconds, trace):
    """Runs ssno_perf once and returns its raw record."""
    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [BINARY, workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(trace), "--workdir",
             os.path.relpath(workdir, ROOT)],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
            text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("ssno_perf exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="seconds to measure (default: BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads, e2e_units, layer_units, run_seconds = load_spec()
        if args.seconds is None:
            args.seconds = run_seconds
        if args.workload not in workloads:
            raise ValueError("unknown workload %r (have: %s)"
                             % (args.workload, ", ".join(workloads)))
        build()
        raw = run_workload(args.workload, args.seed, args.seconds,
                           args.trace)
        metrics = summarize(raw, args.trace == 1, e2e_units, layer_units)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2
    for err in raw["errors"]:
        log("perfbench: check failed: %s" % err)
    print("workload %s seed %d trace %d: %d attempted, %d failed, "
          "error_rate %.6g, %d latency samples"
          % (args.workload, args.seed, args.trace, raw["attempted"],
             raw["failed"], raw["failed"] / raw["attempted"],
             len(raw["latency_s"])))
    for name, m in metrics.items():
        print("  %-28s %.9g %s" % (name, m["value"], m["unit"]))
    correct, line = result_line(raw, metrics)
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
