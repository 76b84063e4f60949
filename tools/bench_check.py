#!/usr/bin/env python3
"""CI perf-regression gate over the bench JSON reports.

Compares a fresh BENCH_train_epoch.json / BENCH_serve.json (produced by
./bench_train_epoch and ./bench_serve --out=...) against the committed
baselines in bench/baselines/, and exits non-zero if any gated metric
regressed beyond its tolerance band.

Two kinds of gate:

  * Timing metrics (steady_avg_ms, p50_ms, p99_ms) are noisy on shared CI
    runners, so they get a wide multiplicative band (--timing-tolerance,
    default 3.0x). The band is deliberately loose: it will not catch a 20%
    slowdown, but it *will* catch the order-of-magnitude cliffs that matter
    (a fusion pass silently disabled, a plan recompiled per epoch, an
    accidental O(V*E) loop) while staying quiet across runner jitter.
  * Counting metrics (steady_plan_misses, steady_fresh_mallocs) are
    deterministic properties of the caching machinery, not of the machine,
    so they are gated hard: plan misses must be exactly zero, and fresh
    mallocs may exceed the baseline by at most --malloc-slack (default 5,
    matching the steady-state bound the CI smoke already asserts).
  * Training step counts are gated exactly too: steady_kernel_launches
    (fused-unit launches per epoch) and steady_alloc_requests (tensor
    allocations per epoch) are functions of the models' programs and
    tensor graph, not of the machine, so any change in either direction
    fails until the baseline is refreshed with the change that moved it.
  * Training losses are gated exactly: every baseline epoch's loss must
    appear in the fresh run with the same digits at the report's 6-decimal
    precision. Kernel work may get faster, never change the numbers a
    training run produces; a fresh run with fewer epochs fails too.

The serve report additionally carries a top-level tracing_overhead_pct
(p50 delta of the traced scenario over the identical untraced one), and the
train report a profiling_overhead_pct (p50, over the profiled twin's epoch
pairs, of the profiled epoch's overhead over the unprofiled one). Both are gated at one absolute
ceiling (--tracing-overhead-max, default 5%): recording spans is only
acceptable while it stays within noise of the unrecorded path. Negative
overhead is runner noise and passes.

Scenarios/runs are matched by identity keys (model+dataset for training,
scenario name for serving). A baseline entry with no fresh counterpart is a
failure (a benchmark silently dropped is itself a regression); a fresh entry
with no baseline is reported but allowed (new coverage should not need a
two-commit dance).

The kernel report (BENCH_kernels.json, from ./bench_kernels_micro
--sweep-out=...) gates the tiled aggregation path: every sweep point must
report bitwise tiled-vs-untiled parity (machine-independent, gated exactly
— a single differing bit means the tiled loops changed results, which the
design forbids), and both timings sit inside the usual band. Its dense
points (Aᵀ·B, forward Matmul and dropout at the training shapes) are gated
the same way: bitwise equal to their reference, time inside the band.
A baseline that records a parallel_headroom (measured by the sweep before it
runs) must show at least 0.75 x its pool workers: one measured while other
tenants held the vCPUs reads every tiled_ms several times slower and would
loosen the band by as much, so it is refused outright. When both reports
record parallel_workers and the counts differ, the timings do not compare:
the gate fails once as worker_mismatch and skips the timing bands (the
exact parity checks still run).

The shard report (BENCH_shard.json, from ./bench_shard_scaling) adds a
scaling-floor gate: speedup_at_max_shards must reach --shard-speedup-floor.
Every run's halo_messages, halo_bytes and total_mirrors must equal the
baseline's exactly (they are functions of the seeded graph and the
partition, not of the machine; a one-shard run exchanges nothing), and every
run must report shard_retries == 0 and shard_fallbacks == 0 — a healthy
steady-state bench that silently retried or demoted itself to the
whole-graph executor is a regression, not noise.

Usage:
  tools/bench_check.py --baseline-dir bench/baselines \
      --train BENCH_train_epoch.json --serve BENCH_serve.json \
      --shard BENCH_shard.json --kernels BENCH_kernels.json
  tools/bench_check.py --self-test     # prove the gate trips on regressions

Exit codes: 0 ok, 1 regression detected, 2 usage or I/O error.
"""

import argparse
import copy
import json
import os
import sys

TRAIN_BASELINE = "BENCH_train_epoch.json"
SERVE_BASELINE = "BENCH_serve.json"
SHARD_BASELINE = "BENCH_shard.json"
SHARD_EXACT_KEYS = ("halo_messages", "halo_bytes", "total_mirrors")
KERNELS_BASELINE = "BENCH_kernels.json"


class Gate:
    """Accumulates per-metric verdicts and formats the report."""

    def __init__(self):
        self.failures = []
        self.notes = []
        self.checked = 0

    def check(self, where, metric, fresh, baseline, limit, detail):
        self.checked += 1
        if fresh > limit:
            self.failures.append(
                f"FAIL {where} {metric}: {fresh:g} > limit {limit:g} "
                f"(baseline {baseline:g}; {detail})")
        else:
            self.notes.append(
                f"  ok {where} {metric}: {fresh:g} (baseline {baseline:g}, "
                f"limit {limit:g})")

    def missing(self, where):
        self.failures.append(
            f"FAIL {where}: present in baseline but missing from fresh report "
            "(benchmark dropped?)")

    def extra(self, where):
        self.notes.append(f"  new {where}: no baseline yet (not gated)")

    def report(self, out=sys.stdout):
        for line in self.notes:
            print(line, file=out)
        for line in self.failures:
            print(line, file=out)
        verdict = "REGRESSION" if self.failures else "ok"
        print(
            f"bench_check: {self.checked} metrics checked, "
            f"{len(self.failures)} failed -> {verdict}", file=out)
        return 1 if self.failures else 0


TRACING_OVERHEAD_MAX_PCT = 5.0
TRAIN_EXACT_KEYS = ("steady_kernel_launches", "steady_alloc_requests")


def check_overhead(gate, where, metric, baseline, fresh, ceiling, detail):
    """Absolute ceiling, not baseline-relative: the requirement is "recording
    is near-free", which does not loosen just because a past run was also
    slow. Negative deltas are runner noise; clamp to zero."""
    if metric in fresh:
        gate.check(where, metric, max(0.0, fresh[metric]),
                   max(0.0, baseline.get(metric, 0.0)), ceiling,
                   f"absolute ceiling on {detail}")


def check_losses(gate, where, base_run, fresh_run):
    """Every baseline epoch's loss, exactly, at the report's 6 decimals."""
    fresh_losses = {e["epoch"]: e.get("loss") for e in fresh_run.get("epochs", [])}
    mismatched = []
    for e in base_run.get("epochs", []):
        if "loss" not in e:
            continue
        fresh = fresh_losses.get(e["epoch"])
        if fresh is None or f"{fresh:.6f}" != f"{e['loss']:.6f}":
            mismatched.append(f"epoch {e['epoch']}: {fresh} vs {e['loss']}")
    gate.check(where, "loss_mismatches", len(mismatched), 0, 0,
               "exact: " + ("; ".join(mismatched[:3]) or "every epoch loss"))


def check_train(gate, baseline, fresh, timing_tol, malloc_slack,
                overhead_max=TRACING_OVERHEAD_MAX_PCT):
    check_overhead(gate, "train", "profiling_overhead_pct", baseline, fresh,
                   overhead_max, "profiled over unprofiled epochs, p50 over pairs")
    base_runs = {(r["model"], r["dataset"]): r for r in baseline.get("runs", [])}
    fresh_runs = {(r["model"], r["dataset"]): r for r in fresh.get("runs", [])}
    for key, base in sorted(base_runs.items()):
        where = f"train {key[0]}/{key[1]}"
        run = fresh_runs.get(key)
        if run is None:
            gate.missing(where)
            continue
        if "profiling_overhead_pct" in base and "profiling_overhead_pct" not in run:
            gate.missing(f"{where} profiled twin")
        check_overhead(gate, where, "profiling_overhead_pct", base, run,
                       overhead_max, "profiled over unprofiled epochs, p50 over pairs")
        gate.check(where, "steady_avg_ms", run["steady_avg_ms"],
                   base["steady_avg_ms"], base["steady_avg_ms"] * timing_tol,
                   f"{timing_tol:g}x timing band")
        gate.check(where, "steady_fresh_mallocs", run["steady_fresh_mallocs"],
                   base["steady_fresh_mallocs"],
                   base["steady_fresh_mallocs"] + malloc_slack,
                   f"baseline + {malloc_slack:g} slack")
        first_steady = fresh.get("steady_first_epoch", 0)
        steady_misses = sum(
            e["plan_misses"] for e in run.get("epochs", [])[first_steady:])
        gate.check(where, "steady_plan_misses", steady_misses, 0, 0,
                   "exact: steady epochs must not recompile plans")
        mismatched = [f"{key} {run.get(key)} vs {base[key]}"
                      for key in TRAIN_EXACT_KEYS
                      if key in base and run.get(key) != base[key]]
        gate.check(where, "count_mismatches", len(mismatched), 0, 0,
                   "exact: " + ("; ".join(mismatched) or ", ".join(TRAIN_EXACT_KEYS)))
        check_losses(gate, where, base, run)
    for key in sorted(set(fresh_runs) - set(base_runs)):
        gate.extra(f"train {key[0]}/{key[1]}")


def check_serve(gate, baseline, fresh, timing_tol, malloc_slack,
                tracing_overhead_max=TRACING_OVERHEAD_MAX_PCT):
    check_overhead(gate, "serve", "tracing_overhead_pct", baseline, fresh,
                   tracing_overhead_max, "traced p50 over clean p50")
    base_scen = {s["name"]: s for s in baseline.get("scenarios", [])}
    fresh_scen = {s["name"]: s for s in fresh.get("scenarios", [])}
    for name, base in sorted(base_scen.items()):
        where = f"serve {name}"
        scen = fresh_scen.get(name)
        if scen is None:
            gate.missing(where)
            continue
        for metric in ("p50_ms", "p99_ms"):
            gate.check(where, metric, scen[metric], base[metric],
                       base[metric] * timing_tol, f"{timing_tol:g}x timing band")
        gate.check(where, "steady_plan_misses", scen["steady_plan_misses"],
                   base["steady_plan_misses"], 0,
                   "exact: warmed serving must not recompile plans")
        gate.check(where, "steady_fresh_mallocs", scen["steady_fresh_mallocs"],
                   base["steady_fresh_mallocs"],
                   base["steady_fresh_mallocs"] + malloc_slack,
                   f"baseline + {malloc_slack:g} slack")
        # The serving accounting identity is machine-independent; a fresh
        # report that violates it is wrong regardless of any baseline.
        outcomes = sum(scen[k] for k in
                       ("served", "degraded", "shed", "expired", "failed"))
        gate.check(where, "accounting_gap",
                   abs(scen["submitted"] - outcomes), 0, 0,
                   f"submitted={scen['submitted']} vs outcome sum={outcomes}")
        check_serve_tenants(gate, where, base, scen, timing_tol)
    for name in sorted(set(fresh_scen) - set(base_scen)):
        gate.extra(f"serve {name}")


def check_serve_tenants(gate, where, base, scen, timing_tol):
    """Per-tenant QoS gates for scenarios that carry a tenants block.

    Two machine-independent exact gates and one banded one:
      * each tenant's accounting identity must hold exactly — the rogue's
        sheds/degradations may never be smeared across the victims;
      * a victim (non-rogue) tenant must not shed or degrade at all: QoS
        isolation means the rogue's pressure stays in the rogue's slice;
      * victim p99 stays inside the timing band of the committed baseline —
        the rogue may be slow, but it must not make its neighbors slow.
    """
    base_tenants = {t["name"]: t for t in base.get("tenants", [])}
    fresh_tenants = {t["name"]: t for t in scen.get("tenants", [])}
    for name, base_t in sorted(base_tenants.items()):
        t_where = f"{where}/{name}"
        tenant = fresh_tenants.get(name)
        if tenant is None:
            gate.missing(t_where)
            continue
        outcomes = sum(tenant[k] for k in
                       ("served", "degraded", "shed", "expired", "failed"))
        gate.check(t_where, "accounting_gap",
                   abs(tenant["submitted"] - outcomes), 0, 0,
                   f"submitted={tenant['submitted']} vs outcome sum={outcomes}")
        if not tenant.get("rogue", False):
            gate.check(t_where, "p99_ms", tenant["p99_ms"], base_t["p99_ms"],
                       base_t["p99_ms"] * timing_tol,
                       f"{timing_tol:g}x victim-latency band")
            gate.check(t_where, "victim_shed", tenant["shed"], 0, 0,
                       "exact: a victim never sheds under a rogue's load")
            gate.check(t_where, "victim_degraded", tenant["degraded"], 0, 0,
                       "exact: a victim never degrades under a rogue's faults")
    for name in sorted(set(fresh_tenants) - set(base_tenants)):
        gate.extra(f"{where}/{name}")


HEADROOM_FLOOR = 0.75  # x pool workers, for a kernels baseline


def check_kernels(gate, baseline, fresh, timing_tol, _slack):
    # A band is only as tight as the host its baseline was measured on. The
    # check is on the baseline, not the fresh report: a contended fresh run
    # can only fail the band, never loosen it.
    workers = baseline.get("parallel_workers", 0)
    headroom = baseline.get("parallel_headroom", 0.0)
    if workers <= 0:
        gate.notes.append(
            "  note kernels baseline: no parallel_headroom recorded (measured "
            "before the probe existed); refresh it on a quiet host to arm the "
            "headroom check")
    else:
        floor = HEADROOM_FLOOR * workers
        gate.check("kernels baseline", "headroom_shortfall",
                   max(0.0, floor - headroom), 0, 0,
                   f"parallel_headroom {headroom:g} must reach "
                   f"{HEADROOM_FLOOR:g} x {workers} workers")
    # Timings from different pool sizes do not compare: a 1-worker report
    # reads every tiled_ms several times above a 4-worker baseline. Name the
    # mismatch once instead of a REGRESSION per point; the exact parity
    # checks below still run.
    fresh_workers = fresh.get("parallel_workers", 0)
    same_workers = workers <= 0 or fresh_workers <= 0 or fresh_workers == workers
    if not same_workers:
        gate.check("kernels", "worker_mismatch", 1, 0, 0,
                   f"fresh report ran {fresh_workers} workers, the baseline "
                   f"{workers}; rerun with the baseline's worker count")
    key = lambda s: (s["kernel"], s["skew"], s["feat_dim"])
    base_sweeps = {key(s): s for s in baseline.get("sweeps", [])}
    fresh_sweeps = {key(s): s for s in fresh.get("sweeps", [])}
    for k, base in sorted(base_sweeps.items()):
        where = f"kernels {k[0]}/{k[1]}/d{k[2]}"
        sweep = fresh_sweeps.get(k)
        if sweep is None:
            gate.missing(where)
            continue
        for metric in ("tiled_ms", "untiled_ms") if same_workers else ():
            gate.check(where, metric, sweep[metric], base[metric],
                       base[metric] * timing_tol, f"{timing_tol:g}x timing band")
        # Machine-independent: tiled and untiled edge loops share the
        # dispatched SIMD kernels and columns are independent, so any
        # loop partitioning must reproduce the untiled bits exactly. A
        # violation means the tiled path changed arithmetic, not just
        # locality — wrong regardless of any baseline.
        gate.check(where, "tiled_parity_violation",
                   0 if sweep["bitwise_equal"] else 1, 0, 0,
                   f"exact: max_abs_diff={sweep.get('max_abs_diff', '?')}")
    for k in sorted(set(fresh_sweeps) - set(base_sweeps)):
        gate.extra(f"kernels {k[0]}/{k[1]}/d{k[2]}")
    dense_key = lambda d: (d["kernel"], d["shape"])
    base_dense = {dense_key(d): d for d in baseline.get("dense", [])}
    fresh_dense = {dense_key(d): d for d in fresh.get("dense", [])}
    for k, base in sorted(base_dense.items()):
        where = f"kernels dense {k[0]}/{k[1]}"
        point = fresh_dense.get(k)
        if point is None:
            gate.missing(where)
            continue
        if same_workers:
            gate.check(where, "ms", point["ms"], base["ms"],
                       base["ms"] * timing_tol, f"{timing_tol:g}x timing band")
        # Machine-independent: the point and its reference compute every
        # element through the same chain of roundings.
        gate.check(where, "reference_mismatch",
                   0 if point["bitwise_equal"] else 1, 0, 0,
                   "exact: bitwise equal to the reference")
    for k in sorted(set(fresh_dense) - set(base_dense)):
        gate.extra(f"kernels dense {k[0]}/{k[1]}")


def check_shard(gate, baseline, fresh, timing_tol, speedup_floor):
    base_runs = {r["shards"]: r for r in baseline.get("runs", [])}
    fresh_runs = {r["shards"]: r for r in fresh.get("runs", [])}
    for shards, base in sorted(base_runs.items()):
        where = f"shard x{shards}"
        run = fresh_runs.get(shards)
        if run is None:
            gate.missing(where)
            continue
        gate.check(where, "avg_epoch_ms", run["avg_epoch_ms"],
                   base["avg_epoch_ms"], base["avg_epoch_ms"] * timing_tol,
                   f"{timing_tol:g}x timing band")
        # Machine-independent: the exchange plans are a function of the
        # seeded graph and the partition, so the traffic they carry is gated
        # exactly at every shard count (at one shard, phantom segments).
        mismatched = [f"{key} {run.get(key)} vs {base.get(key)}"
                      for key in SHARD_EXACT_KEYS if run.get(key) != base.get(key)]
        gate.check(where, "halo_mismatches", len(mismatched), 0, 0,
                   "exact: " + ("; ".join(mismatched) or ", ".join(SHARD_EXACT_KEYS)))
        # Machine-independent recovery gates: the bench runs a shardable
        # program with no faults armed, so any retry or fallback means the
        # runtime failed (and recovered) on a healthy steady-state path.
        gate.check(where, "shard_retries", run.get("shard_retries", 0), 0, 0,
                   "exact: a healthy run never retries")
        gate.check(where, "shard_fallbacks", run.get("shard_fallbacks", 0), 0, 0,
                   "exact: a healthy run never falls back to whole-graph")
    for shards in sorted(set(fresh_runs) - set(base_runs)):
        gate.extra(f"shard x{shards}")
    # The scaling floor is the point of the sharded runtime: if the best
    # epoch at max shards no longer beats one shard by the floor factor, the
    # cache-locality (or multi-core) win has been lost. Expressed as a
    # shortfall so the limit stays a hard zero. The floor is below the
    # committed baseline's speedup to absorb runner variance; it still trips
    # on "sharding stopped helping" cliffs.
    fresh_speedup = fresh.get("speedup_at_max_shards", 0.0)
    base_speedup = baseline.get("speedup_at_max_shards", 0.0)
    gate.check("shard scaling", "speedup_shortfall",
               max(0.0, speedup_floor - fresh_speedup),
               max(0.0, speedup_floor - base_speedup), 0,
               f"speedup_at_max_shards {fresh_speedup:g}x must reach the "
               f"{speedup_floor:g}x floor")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_check: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def run_gate(args):
    gate = Gate()
    compared = 0
    def shard_checker(g, base, fresh_report, timing_tol, _slack):
        check_shard(g, base, fresh_report, timing_tol, args.shard_speedup_floor)

    def train_checker(g, base, fresh_report, timing_tol, slack):
        check_train(g, base, fresh_report, timing_tol, slack,
                    args.tracing_overhead_max)

    def serve_checker(g, base, fresh_report, timing_tol, slack):
        check_serve(g, base, fresh_report, timing_tol, slack,
                    args.tracing_overhead_max)

    pairs = (
        (args.train, os.path.join(args.baseline_dir, TRAIN_BASELINE), train_checker),
        (args.serve, os.path.join(args.baseline_dir, SERVE_BASELINE), serve_checker),
        (args.shard, os.path.join(args.baseline_dir, SHARD_BASELINE), shard_checker),
        (args.kernels, os.path.join(args.baseline_dir, KERNELS_BASELINE),
         check_kernels),
    )
    for fresh_path, baseline_path, checker in pairs:
        if not fresh_path:
            continue
        if not os.path.exists(baseline_path):
            print(f"bench_check: no baseline {baseline_path}; skipping "
                  f"{fresh_path} (commit one to arm the gate)")
            continue
        checker(gate, load(baseline_path), load(fresh_path),
                args.timing_tolerance, args.malloc_slack)
        compared += 1
    if compared == 0:
        print("bench_check: nothing compared (pass --train/--serve and commit "
              "baselines)", file=sys.stderr)
        return 2
    return gate.report()


def self_test(args):
    """Fabricates baseline+fresh reports to prove the gate trips when it must
    and stays quiet when it must not. No files are touched."""
    train_base = {
        "bench": "train_epoch", "steady_first_epoch": 3,
        "runs": [{
            "model": "GCN", "dataset": "cora", "steady_avg_ms": 10.0,
            "steady_fresh_mallocs": 1.0, "steady_alloc_requests": 37.0,
            "steady_kernel_launches": 16.0,
            "epochs": [{"epoch": i, "plan_misses": 0, "kernel_launches": 16,
                        "loss": 2.0 - 0.1 * i}
                       for i in range(6)],
        }],
    }
    serve_base = {
        "bench": "serve",
        "scenarios": [{
            "name": "clean", "p50_ms": 2.0, "p99_ms": 8.0,
            "steady_plan_misses": 0, "steady_fresh_mallocs": 0,
            "submitted": 100, "served": 90, "degraded": 4, "shed": 3,
            "expired": 2, "failed": 1,
        }, {
            "name": "multi_tenant", "p50_ms": 3.0, "p99_ms": 10.0,
            "steady_plan_misses": 0, "steady_fresh_mallocs": 0,
            "submitted": 300, "served": 200, "degraded": 80, "shed": 20,
            "expired": 0, "failed": 0,
            "tenants": [
                {"name": "tenant-a", "rogue": False, "submitted": 100,
                 "served": 100, "degraded": 0, "shed": 0, "quota_shed": 0,
                 "expired": 0, "failed": 0, "p50_ms": 2.0, "p99_ms": 6.0},
                {"name": "tenant-b", "rogue": True, "submitted": 100,
                 "served": 0, "degraded": 80, "shed": 20, "quota_shed": 20,
                 "expired": 0, "failed": 0, "p50_ms": 4.0, "p99_ms": 30.0},
                {"name": "tenant-c", "rogue": False, "submitted": 100,
                 "served": 100, "degraded": 0, "shed": 0, "quota_shed": 0,
                 "expired": 0, "failed": 0, "p50_ms": 2.0, "p99_ms": 6.5},
            ],
        }],
    }

    kernels_base = {
        "bench": "kernels", "simd_isa": "avx2", "simd_lanes": 8,
        "parallel_workers": 4, "parallel_headroom": 3.8,
        "sweeps": [
            {"kernel": "copy_sum", "skew": "uniform", "feat_dim": 16,
             "untiled_ms": 2.0, "tiled_ms": 1.5, "bitwise_equal": True,
             "max_abs_diff": 0.0},
            {"kernel": "mul_sum", "skew": "zipf", "feat_dim": 256,
             "untiled_ms": 40.0, "tiled_ms": 32.0, "bitwise_equal": True,
             "max_abs_diff": 0.0},
        ],
        "dense": [
            {"kernel": "matmul_at_b", "shape": "13753x128x16", "ms": 1.0,
             "reference_ms": 4.0, "bitwise_equal": True},
            {"kernel": "dropout", "shape": "13753x128", "ms": 3.0,
             "reference_ms": 20.0, "bitwise_equal": True},
        ],
    }

    shard_base = {
        "bench": "shard_scaling", "speedup_at_max_shards": 1.8,
        "runs": [
            {"shards": 1, "avg_epoch_ms": 600.0, "halo_messages": 0,
             "halo_bytes": 0, "total_mirrors": 0,
             "shard_retries": 0, "shard_fallbacks": 0, "speedup": 1.0},
            {"shards": 4, "avg_epoch_ms": 330.0, "halo_messages": 24,
             "halo_bytes": 98304, "total_mirrors": 512,
             "shard_retries": 0, "shard_fallbacks": 0, "speedup": 1.8},
        ],
    }

    failures = []

    def expect(label, gate_result, want_fail):
        got_fail = bool(gate_result.failures)
        if got_fail != want_fail:
            failures.append(
                f"self-test {label}: expected "
                f"{'failure' if want_fail else 'pass'}, gate said "
                f"{gate_result.failures or 'pass'}")

    # 1. Identical reports pass.
    g = Gate()
    check_train(g, train_base, copy.deepcopy(train_base), 3.0, 5.0)
    check_serve(g, serve_base, copy.deepcopy(serve_base), 3.0, 5.0)
    check_shard(g, shard_base, copy.deepcopy(shard_base), 3.0, 1.2)
    check_kernels(g, kernels_base, copy.deepcopy(kernels_base), 3.0, 5.0)
    expect("identical", g, want_fail=False)

    # 2. Timing just inside the band passes; beyond it fails.
    near = copy.deepcopy(train_base)
    near["runs"][0]["steady_avg_ms"] = 29.0
    g = Gate()
    check_train(g, train_base, near, 3.0, 5.0)
    expect("timing-in-band", g, want_fail=False)

    slow = copy.deepcopy(train_base)
    slow["runs"][0]["steady_avg_ms"] = 31.0
    g = Gate()
    check_train(g, train_base, slow, 3.0, 5.0)
    expect("timing-regressed", g, want_fail=True)

    # 3. A single steady-state plan miss fails, timing unchanged.
    recompiles = copy.deepcopy(train_base)
    recompiles["runs"][0]["epochs"][4]["plan_misses"] = 1
    g = Gate()
    check_train(g, train_base, recompiles, 3.0, 5.0)
    expect("steady-plan-miss", g, want_fail=True)

    # 3a. A program that launches one more fused unit per epoch (a fusion
    #     split, say) fails, as does one that allocates one tensor fewer:
    #     both counts are exact.
    relaunches = copy.deepcopy(train_base)
    relaunches["runs"][0]["steady_kernel_launches"] = 17.0
    g = Gate()
    check_train(g, train_base, relaunches, 3.0, 5.0)
    expect("kernel-launches-moved", g, want_fail=True)

    fewer_allocs = copy.deepcopy(train_base)
    fewer_allocs["runs"][0]["steady_alloc_requests"] = 36.0
    g = Gate()
    check_train(g, train_base, fewer_allocs, 3.0, 5.0)
    expect("alloc-requests-moved", g, want_fail=True)

    # 3b. A loss that moves in the 6th decimal fails, timing unchanged; so
    #     does a fresh run that stops before the baseline's last epoch.
    drifted = copy.deepcopy(train_base)
    drifted["runs"][0]["epochs"][5]["loss"] += 2e-6
    g = Gate()
    check_train(g, train_base, drifted, 3.0, 5.0)
    expect("loss-drift", g, want_fail=True)

    truncated = copy.deepcopy(train_base)
    del truncated["runs"][0]["epochs"][5]
    g = Gate()
    check_train(g, train_base, truncated, 3.0, 5.0)
    expect("loss-epoch-missing", g, want_fail=True)

    # 4. Serving p99 blowup fails.
    spiky = copy.deepcopy(serve_base)
    spiky["scenarios"][0]["p99_ms"] = 100.0
    g = Gate()
    check_serve(g, serve_base, spiky, 3.0, 5.0)
    expect("serve-p99", g, want_fail=True)

    # 5. Broken accounting identity fails even with good timings.
    leaky = copy.deepcopy(serve_base)
    leaky["scenarios"][0]["served"] = 89  # one request vanishes
    g = Gate()
    check_serve(g, serve_base, leaky, 3.0, 5.0)
    expect("serve-identity", g, want_fail=True)

    # 5b. A broken *per-tenant* identity fails even when the global identity
    # still balances (a rogue shed mis-attributed to a victim's slice).
    smeared = copy.deepcopy(serve_base)
    smeared["scenarios"][1]["tenants"][0]["shed"] = 1
    smeared["scenarios"][1]["tenants"][0]["submitted"] = 100  # unchanged
    g = Gate()
    check_serve(g, serve_base, smeared, 3.0, 5.0)
    expect("tenant-identity", g, want_fail=True)

    # 5c. A victim's p99 blowing past the band fails — QoS isolation lost —
    # while the rogue's own p99 is not gated (it may be arbitrarily slow).
    noisy_neighbor = copy.deepcopy(serve_base)
    noisy_neighbor["scenarios"][1]["tenants"][2]["p99_ms"] = 100.0
    g = Gate()
    check_serve(g, serve_base, noisy_neighbor, 3.0, 5.0)
    expect("victim-p99", g, want_fail=True)

    slow_rogue = copy.deepcopy(serve_base)
    slow_rogue["scenarios"][1]["tenants"][1]["p99_ms"] = 500.0
    g = Gate()
    check_serve(g, serve_base, slow_rogue, 3.0, 5.0)
    expect("rogue-p99-ungated", g, want_fail=False)

    # 5d. A victim that shed or degraded at all fails exactly: the rogue's
    # pressure leaked out of its own slice.
    leaked = copy.deepcopy(serve_base)
    leaked["scenarios"][1]["tenants"][2]["shed"] = 2
    leaked["scenarios"][1]["tenants"][2]["served"] = 98
    g = Gate()
    check_serve(g, serve_base, leaked, 3.0, 5.0)
    expect("victim-shed", g, want_fail=True)

    # 5e. A tenant missing from the fresh report fails (dropped coverage).
    shrunk = copy.deepcopy(serve_base)
    del shrunk["scenarios"][1]["tenants"][1]
    g = Gate()
    check_serve(g, serve_base, shrunk, 3.0, 5.0)
    expect("dropped-tenant", g, want_fail=True)

    # 5f. Tracing overhead inside the ceiling passes (negative deltas are
    # runner noise); past the ceiling it fails even with perfect timings.
    cheap_tracing = copy.deepcopy(serve_base)
    cheap_tracing["tracing_overhead_pct"] = -1.3
    g = Gate()
    check_serve(g, serve_base, cheap_tracing, 3.0, 5.0)
    expect("tracing-overhead-in-band", g, want_fail=False)

    costly_tracing = copy.deepcopy(serve_base)
    costly_tracing["tracing_overhead_pct"] = 11.0
    g = Gate()
    check_serve(g, serve_base, costly_tracing, 3.0, 5.0)
    expect("tracing-overhead-regressed", g, want_fail=True)

    # 5g. The profiled training twin's overhead is gated the same way.
    cheap_profile = copy.deepcopy(train_base)
    cheap_profile["profiling_overhead_pct"] = 3.9
    g = Gate()
    check_train(g, train_base, cheap_profile, 3.0, 5.0)
    expect("profiling-overhead-in-band", g, want_fail=False)

    costly_profile = copy.deepcopy(train_base)
    costly_profile["profiling_overhead_pct"] = 7.5
    g = Gate()
    check_train(g, train_base, costly_profile, 3.0, 5.0)
    expect("profiling-overhead-regressed", g, want_fail=True)

    # 5h. Every run's own twin (GAT/cora: ~10x GCN's spans) is gated at the
    #     same ceiling, and a twin dropped from a baselined run fails.
    twinned_base = copy.deepcopy(train_base)
    twinned_base["runs"][0]["profiling_overhead_pct"] = 1.0
    costly_twin = copy.deepcopy(twinned_base)
    costly_twin["runs"][0]["profiling_overhead_pct"] = 6.2
    g = Gate()
    check_train(g, twinned_base, costly_twin, 3.0, 5.0)
    expect("run-twin-overhead-regressed", g, want_fail=True)

    untwinned = copy.deepcopy(twinned_base)
    del untwinned["runs"][0]["profiling_overhead_pct"]
    g = Gate()
    check_train(g, twinned_base, untwinned, 3.0, 5.0)
    expect("run-twin-dropped", g, want_fail=True)

    g = Gate()
    check_train(g, twinned_base, copy.deepcopy(twinned_base), 3.0, 5.0)
    expect("run-twin-in-band", g, want_fail=False)

    # 6. A dropped benchmark fails; a new one passes with a note.
    g = Gate()
    check_serve(g, serve_base, {"scenarios": []}, 3.0, 5.0)
    expect("dropped-scenario", g, want_fail=True)

    grown = copy.deepcopy(serve_base)
    grown["scenarios"].append(dict(serve_base["scenarios"][0], name="burst"))
    g = Gate()
    check_serve(g, serve_base, grown, 3.0, 5.0)
    expect("new-scenario", g, want_fail=False)

    # 7. Shard scaling collapse fails even inside the timing band.
    flat = copy.deepcopy(shard_base)
    flat["speedup_at_max_shards"] = 1.05
    flat["runs"][1]["avg_epoch_ms"] = 570.0
    g = Gate()
    check_shard(g, shard_base, flat, 3.0, 1.2)
    expect("shard-scaling-collapse", g, want_fail=True)

    # 8. Halo traffic on a single shard fails (phantom exchange segments).
    leaky_halo = copy.deepcopy(shard_base)
    leaky_halo["runs"][0]["halo_messages"] = 3
    g = Gate()
    check_shard(g, shard_base, leaky_halo, 3.0, 1.2)
    expect("shard-halo-at-one", g, want_fail=True)

    # 8b. Halo bytes that drift from the baseline fail at any shard count,
    # in either direction: the exchange moved different data.
    for delta in (8, -8):
        drifted = copy.deepcopy(shard_base)
        drifted["runs"][1]["halo_bytes"] += delta
        g = Gate()
        check_shard(g, shard_base, drifted, 3.0, 1.2)
        expect(f"shard-halo-bytes-drift{delta:+d}", g, want_fail=True)

    # 9. A whole-graph fallback in a healthy steady-state run fails exactly —
    # sharding silently degraded to the unsharded interpreter.
    demoted = copy.deepcopy(shard_base)
    demoted["runs"][1]["shard_fallbacks"] = 1
    g = Gate()
    check_shard(g, shard_base, demoted, 3.0, 1.2)
    expect("shard-fallback-in-steady-state", g, want_fail=True)

    # 10. Same for a recovery retry: the run completed, but something threw.
    retried = copy.deepcopy(shard_base)
    retried["runs"][0]["shard_retries"] = 2
    g = Gate()
    check_shard(g, shard_base, retried, 3.0, 1.2)
    expect("shard-retry-in-steady-state", g, want_fail=True)

    # 11. A tiled-parity violation fails exactly, even with perfect timings —
    # the tiled loops are only allowed to change locality, never bits.
    skewed = copy.deepcopy(kernels_base)
    skewed["sweeps"][1]["bitwise_equal"] = False
    skewed["sweeps"][1]["max_abs_diff"] = 3.1e-05
    g = Gate()
    check_kernels(g, kernels_base, skewed, 3.0, 5.0)
    expect("kernel-parity-violation", g, want_fail=True)

    # 12. A tiled-timing cliff fails; a dropped sweep point fails too.
    cliff = copy.deepcopy(kernels_base)
    cliff["sweeps"][0]["tiled_ms"] = 50.0
    g = Gate()
    check_kernels(g, kernels_base, cliff, 3.0, 5.0)
    expect("kernel-tiled-cliff", g, want_fail=True)

    g = Gate()
    check_kernels(g, kernels_base, {"sweeps": kernels_base["sweeps"][:1]},
                  3.0, 5.0)
    expect("kernel-dropped-sweep", g, want_fail=True)

    # 13. A dense point that no longer matches its reference fails exactly;
    #     one slower than the band fails; one dropped fails.
    diverged = copy.deepcopy(kernels_base)
    diverged["dense"][0]["bitwise_equal"] = False
    g = Gate()
    check_kernels(g, kernels_base, diverged, 3.0, 5.0)
    expect("dense-reference-mismatch", g, want_fail=True)

    slow_dense = copy.deepcopy(kernels_base)
    slow_dense["dense"][1]["ms"] = 10.0
    g = Gate()
    check_kernels(g, kernels_base, slow_dense, 3.0, 5.0)
    expect("dense-timing-cliff", g, want_fail=True)

    dropped_dense = copy.deepcopy(kernels_base)
    del dropped_dense["dense"][1]
    g = Gate()
    check_kernels(g, kernels_base, dropped_dense, 3.0, 5.0)
    expect("dense-dropped-point", g, want_fail=True)

    # 14. A baseline measured on a contended host (headroom 1.1 of 4
    #     workers) is refused even against an identical fresh report.
    contended = copy.deepcopy(kernels_base)
    contended["parallel_headroom"] = 1.1
    g = Gate()
    check_kernels(g, contended, copy.deepcopy(contended), 3.0, 5.0)
    expect("kernel-contended-baseline", g, want_fail=True)

    # 15. A fresh report from another pool size fails as one named
    #     worker_mismatch, not as tiled_ms regressions; its parity is still
    #     gated.
    one_worker = copy.deepcopy(kernels_base)
    one_worker["parallel_workers"] = 1
    for sweep in one_worker["sweeps"]:
        sweep["tiled_ms"] *= 4.0
    g = Gate()
    check_kernels(g, kernels_base, one_worker, 3.0, 5.0)
    expect("kernel-worker-mismatch", g, want_fail=True)
    if len(g.failures) != 1 or "worker_mismatch" not in g.failures[0]:
        failures.append("self-test kernel-worker-mismatch: expected only "
                        f"worker_mismatch, gate said {g.failures}")
    one_worker["sweeps"][0]["bitwise_equal"] = False
    g = Gate()
    check_kernels(g, kernels_base, one_worker, 3.0, 5.0)
    if not any("tiled_parity_violation" in f for f in g.failures):
        failures.append("self-test kernel-worker-mismatch: parity not gated "
                        f"across a worker mismatch, gate said {g.failures}")

    for line in failures:
        print(line, file=sys.stderr)
    print(f"bench_check --self-test: {'FAIL' if failures else 'ok'} "
          f"(36 cases)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding committed baseline reports")
    parser.add_argument("--train", default="",
                        help="fresh BENCH_train_epoch.json to gate")
    parser.add_argument("--serve", default="",
                        help="fresh BENCH_serve.json to gate")
    parser.add_argument("--shard", default="",
                        help="fresh BENCH_shard.json to gate")
    parser.add_argument("--kernels", default="",
                        help="fresh BENCH_kernels.json to gate")
    parser.add_argument("--timing-tolerance", type=float, default=3.0,
                        help="multiplicative band for timing metrics")
    parser.add_argument("--malloc-slack", type=float, default=5.0,
                        help="allowed fresh-malloc increase over baseline")
    parser.add_argument("--tracing-overhead-max", type=float,
                        default=TRACING_OVERHEAD_MAX_PCT,
                        help="max %% p50 overhead of the traced serve "
                             "scenario over the clean one, and of the "
                             "profiled training twin over its unprofiled "
                             "epochs")
    parser.add_argument("--shard-speedup-floor", type=float, default=1.2,
                        help="minimum speedup_at_max_shards in the fresh "
                             "shard report")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate against fabricated regressions")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test(args))
    sys.exit(run_gate(args))


if __name__ == "__main__":
    main()
