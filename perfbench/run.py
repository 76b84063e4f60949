#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source, runs one workload,
checks its outputs and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness (perfbench/harness.cc) is built
with CMake into $CARGO_TARGET_DIR (default .bench_build). One invocation
runs the harness several times:

  * SETUP_RUNS short processes that only set up (dataset, model
    construction, PrepareView, cold epoch / server start and warm phase),
    alternating the given seed and seed + 1. setup_s is the median over
    these and the main run. The second seed must give the same graph sizes,
    and counters that differ between same-seed processes are reported by
    the determinism self-check (bench.nondeterministic_counters).
  * one main process that warms up, measures for --seconds and runs the
    correctness checks outside the timed window.
  * for the workloads in CONCURRENCY_PROBES, one untimed process with more
    threads whose counters only feed the determinism self-check.

With --trace 0 the result carries every end_to_end metric of BENCHMARK.json;
with --trace 1 every per_layer metric (the harness then alternates recorded
and unrecorded operations and writes its spans as Chrome-trace JSON under
the build directory). The metric names and units are read from
BENCHMARK.json, so the two cannot drift apart.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Thread budget per workload (SEASTAR_NUM_THREADS = pool workers + caller).
# Every workload computes on one thread: on a shared virtual machine, every
# parallel region waits for its slowest worker to wake, which made
# multi-threaded epoch times swing by 20-40% and serving latencies by more
# than 50% between runs, and the harness's host-speed normalization (see
# harness.cc) only holds for one thread. Serving adds the request generator,
# which makes two busy threads on a 4-core machine.
WORKLOADS = {
    "train-gcn-amzcomp": 1,
    "train-gat-cora": 1,
    "train-gcn-amzcomp-sharded4": 1,
    "serve-gcn-pubmed": 1,
}
# Per-layer metrics a workload kind has no such layer for; reported as 0.
NOT_APPLICABLE = {
    "train": ["serve.queue_ms_p50", "serve.queue_ms_p99", "serve.exec_ms_p50",
              "serve.batch_size_mean", "serve.forward_passes_per_request", "serve.shed",
              "serve.expired", "serve.degraded", "serve.retries", "bench.gen_late_ms_p99",
              "bench.achieved_rate_ratio"],
    # The server runs forward passes only; dense forward time is inside
    # serve.exec_ms_p50 and is not bracketed separately.
    "serve": ["exec.bwd_ms", "tensor.fwd_dense_ms", "tensor.bwd_dense_ms", "tensor.loss_ms",
              "core.optimizer_ms"],
}
# Workloads whose concurrent code paths the single-threaded timed run does
# not take: one extra untimed process per invocation runs them with this
# many threads, for the determinism self-check only.
CONCURRENCY_PROBES = {"train-gcn-amzcomp-sharded4": 4}
SETUP_RUNS = 4
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 120


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the harness; returns its path or None."""
    commands = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "-j4", "--target", "perfbench_harness"],
    ]
    for command in commands:
        try:
            done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"{command[0]} failed: {error}")
            return None
        if done.returncode != 0:
            return None
    return build_dir / "perfbench_harness"


def run_harness(harness, workload, seed, seconds, trace, mode, trace_out=None, threads=None):
    """Runs one harness process; returns its parsed result line or None."""
    command = [str(harness), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}", f"--mode={mode}"]
    if trace_out:
        command.append(f"--trace-out={trace_out}")
    env = dict(os.environ, SEASTAR_NUM_THREADS=str(threads or WORKLOADS[workload]))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{mode} run timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{mode} run exited with {done.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{mode} run printed no result line")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    harness = build(build_dir)
    if harness is None:
        log("build failed")
        return 1

    setups = []
    for i in range(SETUP_RUNS):
        seed = args.seed + (i % 2)
        result = run_harness(harness, args.workload, seed, args.seconds, 0, "setup")
        if result is None:
            return 1
        setups.append((seed, result))

    trace_out = None
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = trace_dir / f"{args.workload}-seed{args.seed}.json"
    main_run = run_harness(harness, args.workload, args.seed, args.seconds, args.trace, "main",
                           trace_out)
    if main_run is None:
        return 1
    probe = None
    if args.workload in CONCURRENCY_PROBES:
        probe = run_harness(harness, args.workload, args.seed, args.seconds, 0, "probe",
                            threads=CONCURRENCY_PROBES[args.workload])
        if probe is None:
            return 1

    # ---- Correctness: the main run's checks, the setup runs' checks, and
    # that the second seed gives the same graph sizes.
    failed_checks = list(main_run["checks_failed"])
    for seed, result in setups:
        failed_checks += [f"setup:{name}" for name in result["checks_failed"]]
        if seed != args.seed and result["graph"] != main_run["graph"]:
            failed_checks.append("second_seed_graph_sizes")
    if probe is not None:
        failed_checks += [f"probe:{name}" for name in probe["checks_failed"]]
    for name in failed_checks:
        log(f"check failed: {name}")
    correct = not failed_checks

    # ---- Determinism self-check: counters that did not repeat exactly
    # between steady epochs of the main run, or between same-seed processes.
    # It qualifies the counters as evidence and does not gate `correct`.
    varying = set(main_run["varying_counts"])
    for seed, result in setups:
        if seed != args.seed:
            continue
        for name, value in main_run["counts"].items():
            if result["counts"].get(name) != value:
                varying.add(name)
        if result["setup"]["exec.plan_misses"] != main_run["setup"]["exec.plan_misses"]:
            varying.add("exec.plan_misses")
    if probe is not None:
        threads = CONCURRENCY_PROBES[args.workload]
        varying.update(f"{name} ({threads} threads)" for name in probe["varying_counts"])
        if probe["setup"]["exec.plan_misses"] != main_run["setup"]["exec.plan_misses"]:
            varying.add(f"exec.plan_misses ({threads} threads)")
    # Reported on every run, so a known non-repeating counter stays visible
    # without a traced run.
    if varying:
        log(f"determinism self-check: {len(varying)} counter(s) did not repeat: "
            f"{', '.join(sorted(varying))}")
    else:
        log("determinism self-check: every counter repeated")

    # ---- Metrics.
    setup_samples = [main_run["setup"]] + [result["setup"] for _, result in setups]
    values = dict(main_run["metrics"])
    for name in main_run["setup"]:
        values[name] = statistics.median(sample[name] for sample in setup_samples)
    values["exec.plan_misses"] = main_run["setup"]["exec.plan_misses"]
    values["tensor.peak_mb"] = values["peak_mem_mb"]
    values["bench.nondeterministic_counters"] = len(varying)
    if args.trace:
        kind = "serve" if args.workload.startswith("serve-") else "train"
        for name in NOT_APPLICABLE[kind]:
            values.setdefault(name, 0.0)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            log(f"harness did not report {metric['name']}")
            return 1
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    attempted = int(main_run["attempted"])
    failed = attempted if not correct else int(main_run["failed"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
