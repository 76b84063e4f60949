#!/usr/bin/env python3
"""Chaos drill for the sharded execution runtime.

Sweeps every shard fault site x hit index x shard count combination through a
real training run (examples/seastar_train --executor=sharded:N --faults=...)
and asserts the failure-handling contract end to end:

  * no deadlock or hang: every run must finish inside --timeout (a failed
    shard must stop its peers and the passes that remain, not leave the
    execution waiting on work that will never come);
  * clean unwind + recovery: the driver must exit 0 -- the recovery ladder
    (retry sharded once, then whole-graph fallback) absorbs every injected
    shard fault, so the train loop never sees an error;
  * pool reusability: training continues for the full epoch count after the
    failure, i.e. the shard runtime's persistent pool slices survive a
    cancelled execution;
  * bit-identical recovery: a transient (count=1) fault is consumed by the
    failed attempt, so the sharded retry reruns clean and the final loss and
    accuracy must match the uninjected reference run character for
    character. (Persistent faults demote to the whole-graph interpreter,
    whose S-typed float summation order legitimately differs in the last
    ulp, so those runs assert completion + fallback accounting instead.)
  * consistent accounting: per-run metrics snapshots must show retries
    implying fallbacks for persistent faults, and the sweep as a whole must
    actually fire every site it claims to cover.

Usage (full drill):
  tools/chaos_drill.py --train-bin build/examples/seastar_train

CI smoke (small graph, full site sweep at 2 and 4 shards):
  tools/chaos_drill.py --train-bin build/examples/seastar_train \
      --shards 2,4 --scale 0.1 --epochs 4 --out chaos_drill.json \
      --artifacts-dir chaos_artifacts
"""

import argparse
import json
import os
import subprocess
import sys
import time

SITES = ["shard_send", "shard_recv", "shard_combine", "shard_worker"]
PERSISTENT_COUNT = 1 << 20

RETRIES = "seastar_shard_retries_total"
RECOVERY_FALLBACKS = "seastar_shard_recovery_fallbacks_total"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--train-bin", default="build/examples/seastar_train",
                   help="path to the seastar_train driver")
    p.add_argument("--shards", default="1,2,4",
                   help="comma-separated shard counts to sweep")
    p.add_argument("--sites", default=",".join(SITES),
                   help="comma-separated fault sites to sweep")
    p.add_argument("--hit-indices", default="0,1,3,7",
                   help="comma-separated after= hit indices for transient faults")
    # sage is the default because its backward stays shardable: it is the
    # only stock model whose training loop carries S-typed partial sums
    # through pass 3, so the shard_combine site actually fires. (gcn's
    # backward consumes an out-edge aggregate and demotes to whole-graph.)
    p.add_argument("--model", default="sage")
    p.add_argument("--dataset", default="cora")
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--timeout", type=float, default=180.0,
                   help="per-run wall clock bound; exceeding it counts as a deadlock")
    p.add_argument("--out", default="chaos_drill.json",
                   help="summary report path")
    p.add_argument("--artifacts-dir", default="chaos_artifacts",
                   help="directory for per-run metrics/events dumps")
    return p.parse_args()


def run_train(args, shards, faults, tag):
    metrics_path = os.path.join(args.artifacts_dir, f"{tag}.metrics.json")
    events_path = os.path.join(args.artifacts_dir, f"{tag}.events.log")
    cmd = [
        args.train_bin,
        f"--model={args.model}",
        f"--dataset={args.dataset}",
        f"--epochs={args.epochs}",
        f"--scale={args.scale}",
        f"--executor=sharded:{shards}",
        "--csv",
        f"--metrics-out={metrics_path}",
        f"--events-out={events_path}",
    ]
    if faults:
        cmd.append(f"--faults={faults}")
    result = {"tag": tag, "shards": shards, "faults": faults, "ok": False,
              "deadlock": False, "returncode": None, "final_loss": None,
              "train_acc": None, "seconds": None, RETRIES: 0,
              RECOVERY_FALLBACKS: 0}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.timeout)
    except subprocess.TimeoutExpired:
        result["deadlock"] = True
        result["seconds"] = time.monotonic() - start
        return result
    result["seconds"] = time.monotonic() - start
    result["returncode"] = proc.returncode
    if proc.returncode != 0:
        result["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
        return result
    # The CSV row: model,dataset,backend,epochs,avg_epoch_ms,final_loss,
    # train_acc,peak_mb,oom -- loss/acc compared as printed strings, the
    # drill's observable form of "bit-identical after recovery".
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    for i, line in enumerate(lines):
        if line.startswith("model,dataset"):
            row = lines[i + 1].split(",")
            result["final_loss"] = row[5]
            result["train_acc"] = row[6]
            break
    if result["final_loss"] is None:
        result["stderr_tail"] = ["no CSV row in driver output"]
        return result
    try:
        with open(metrics_path) as f:
            counters = json.load(f).get("counters", {})
        result[RETRIES] = counters.get(RETRIES, 0)
        result[RECOVERY_FALLBACKS] = counters.get(RECOVERY_FALLBACKS, 0)
    except (OSError, ValueError) as err:
        result["stderr_tail"] = [f"cannot read metrics snapshot: {err}"]
        return result
    result["ok"] = True
    return result


def main():
    args = parse_args()
    os.makedirs(args.artifacts_dir, exist_ok=True)
    shard_counts = [int(s) for s in args.shards.split(",") if s]
    sites = [s for s in args.sites.split(",") if s]
    hit_indices = [int(h) for h in args.hit_indices.split(",") if h != ""]

    cases = []
    failures = []
    fired = {}  # (shards, site) -> True once any injection actually tripped

    def fail(case, why):
        failures.append(f"{case['tag']}: {why}")

    for shards in shard_counts:
        ref = run_train(args, shards, "", f"shard{shards}_reference")
        cases.append(dict(ref, mode="reference"))
        if not ref["ok"]:
            fail(ref, "reference run failed" +
                 (" (timeout)" if ref["deadlock"] else ""))
            continue
        if ref[RETRIES] or ref[RECOVERY_FALLBACKS]:
            fail(ref, "uninjected run counted retries/fallbacks")

        for site in sites:
            for hit in hit_indices:
                tag = f"shard{shards}_{site}_after{hit}"
                case = run_train(args, shards,
                                 f"{site}:after={hit}:count=1", tag)
                case["mode"] = "transient"
                cases.append(case)
                if case["deadlock"]:
                    fail(case, f"hung past {args.timeout:g}s (deadlock)")
                    continue
                if not case["ok"]:
                    fail(case, f"driver exited {case['returncode']}: "
                         f"{case.get('stderr_tail')}")
                    continue
                if case[RECOVERY_FALLBACKS]:
                    fail(case, "count=1 fault must be absorbed by the retry, "
                         "not demote to whole-graph")
                if case[RETRIES]:
                    fired[(shards, site)] = True
                    # The retry reran the consumed fault's attempt clean:
                    # results must match the uninjected run exactly.
                    if (case["final_loss"] != ref["final_loss"] or
                            case["train_acc"] != ref["train_acc"]):
                        fail(case, f"post-recovery loss/acc "
                             f"{case['final_loss']}/{case['train_acc']} != "
                             f"reference {ref['final_loss']}/{ref['train_acc']}")
                else:
                    # Site never reached hit N in this configuration (e.g. no
                    # halo at 1 shard): the run must simply match reference.
                    if case["final_loss"] != ref["final_loss"]:
                        fail(case, "unfired fault changed the final loss")

            tag = f"shard{shards}_{site}_persistent"
            case = run_train(args, shards,
                             f"{site}:after=0:count={PERSISTENT_COUNT}", tag)
            case["mode"] = "persistent"
            cases.append(case)
            if case["deadlock"]:
                fail(case, f"hung past {args.timeout:g}s (deadlock)")
            elif not case["ok"]:
                fail(case, f"driver exited {case['returncode']}: "
                     f"{case.get('stderr_tail')}")
            elif case[RETRIES] and not case[RECOVERY_FALLBACKS]:
                fail(case, "persistent fault retried but never fell back")
            elif case[RETRIES]:
                fired[(shards, site)] = True

    # The sweep must have exercised what it claims: shard_worker fires at
    # every shard count; the exchange sites fire wherever halo exists.
    for shards in shard_counts:
        expected = {"shard_worker"} if shards == 1 else set(sites)
        for site in expected & set(sites):
            if not fired.get((shards, site)):
                failures.append(
                    f"sweep gap: site {site} never fired at {shards} shard(s)")

    report = {
        "drill": "shard_chaos",
        "model": args.model, "dataset": args.dataset,
        "epochs": args.epochs, "scale": args.scale,
        "shard_counts": shard_counts, "sites": sites,
        "hit_indices": hit_indices,
        "cases": cases, "failures": failures,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    ran = len(cases)
    print(f"chaos drill: {ran} runs "
          f"({len([c for c in cases if c['mode'] == 'transient'])} transient, "
          f"{len([c for c in cases if c['mode'] == 'persistent'])} persistent) "
          f"-> {args.out}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        print(f"chaos drill: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("chaos drill: ok (no deadlocks, clean unwind, recovery bit-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
