#!/usr/bin/env python3
"""CI validator for the Chrome-trace JSON exported by the span recorder.

Consumes a trace file written by a serving run (`seastar_serve
--trace-out=...`, `Server::DumpTraces`) or a run-scoped profile (`--profile=`
on seastar_train and the benches), and optionally the metrics JSON from the
same serving run, and exits non-zero if the trace violates any structural
invariant the tracer is supposed to guarantee. traceStats.retention says
which shape the file has ("sampled" for serving, "run" for profiles).

Both shapes:
  * Well-formedness: a top-level object with "traceEvents" (a list of
    ph="M" metadata and ph="X" complete events carrying name/pid/tid/
    ts/dur and an args block with idx/parent/trace_id) and "traceStats".
  * Span-tree shape: every trace has exactly one root span (parent == -1);
    every non-root span's parent index refers to an earlier span of the
    same trace; a child's [ts, ts+dur] interval nests inside its parent's,
    within --nest-slack-us of clock truncation.
  * Counter args: every kernel counter and loop position a span carries
    (edges, dispatches, tile_*, pool_*, plan_cache_*, epoch, ...) is a
    non-negative integer; signed deltas are integers. An integer arg in
    neither list (nor a structural field: idx, parent, and the root's
    request_id) fails, so the lists cannot drift from what the tracer emits.

Run-scoped profiles ("run"): at least one trace, every root retained_by
"run", and one trace per finished run (retained_run == finished).

Serving exports ("sampled"), additionally:
  * Every root span is named "request".
  * Retention accounting: the number of distinct traces in the file equals
    retained_anomaly + retained_sampled + retained_tail from traceStats,
    and the per-root "retained_by" labels match those counts bucket by
    bucket. retained <= finished <= started.
  * Anomaly completeness: every root whose flags are not "clean" must be
    retained via the anomaly ring, and — as long as the ring never
    overflowed (anomalies_observed <= anomaly_keep, which the drill
    guarantees by sizing the ring to the submission count) — the file must
    contain exactly anomalies_observed anomalous traces. This is the "a
    shed/expired/degraded request is never lost" guarantee, independent of
    head sampling.
  * Exemplar linkage (with --metrics): every histogram exemplar's trace_id
    must name a trace retained in this file, so the `# {trace_id="..."}`
    a scrape shows on a tail bucket always resolves to an inspectable
    span tree.
  * --expect-trace-id: assert a specific trace (e.g. the one the drill
    printed for its slowest request) made it into the export.

Usage:
  tools/trace_check.py trace.json [--metrics metrics.json] \
      [--expect-trace-id 00c0ffee00c0ffee]
  tools/trace_check.py --self-test

Exit codes: 0 ok, 1 invariant violated, 2 usage or I/O error.
"""

import argparse
import copy
import json
import sys

# Span args that count something: non-negative integers wherever they
# appear. SIGNED_ARGS are deltas or opaque ids: integers of either sign.
COUNTER_ARGS = frozenset((
    "edges", "bytes_materialized", "dispatches", "kernel_launches",
    "peak_delta_bytes", "plan_cache_hits",
    "plan_cache_misses", "pool_hits", "pool_misses", "tile_segments",
    "tile_passes", "tile_width", "epoch", "shards", "queued_ahead",
    "occupancy", "attempt", "status", "retries", "vertices"))
SIGNED_ARGS = frozenset(("alloc_delta_bytes", "stride_lag_x1000",
                         "batch_key", "leader_trace"))
# The exporter's own integer fields: span position and the root's request id
# (trace_id is a hex string).
STRUCTURAL_ARGS = frozenset(("idx", "parent", "request_id"))


class Checker:
    def __init__(self):
        self.failures = []
        self.checked = 0

    def expect(self, ok, message):
        self.checked += 1
        if not ok:
            self.failures.append("FAIL " + message)

    def report(self, out=sys.stdout):
        for line in self.failures:
            print(line, file=out)
        verdict = "INVALID" if self.failures else "ok"
        print(f"trace_check: {self.checked} checks, "
              f"{len(self.failures)} failed -> {verdict}", file=out)
        return 1 if self.failures else 0


def group_traces(checker, events):
    """Validates per-event shape and groups X events by trace id."""
    traces = {}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            checker.expect(False, f"{where}: not an object")
            continue
        ph = event.get("ph")
        checker.expect(ph in ("X", "M"), f"{where}: ph={ph!r} not in (X, M)")
        if ph != "X":
            continue
        for field in ("name", "pid", "tid", "ts", "dur", "args"):
            checker.expect(field in event, f"{where}: missing {field!r}")
        args = event.get("args", {})
        for field in ("idx", "parent", "trace_id"):
            checker.expect(field in args, f"{where}: args missing {field!r}")
        checker.expect(event.get("dur", 0) >= 0,
                       f"{where}: negative dur {event.get('dur')}")
        for key, value in sorted(args.items()):
            is_int = isinstance(value, int) and not isinstance(value, bool)
            if key in COUNTER_ARGS:
                checker.expect(is_int and value >= 0,
                               f"{where} ({event.get('name')}): counter "
                               f"{key}={value!r} is not a non-negative integer")
            elif key in SIGNED_ARGS:
                checker.expect(is_int, f"{where} ({event.get('name')}): "
                               f"{key}={value!r} is not an integer")
            elif is_int:
                checker.expect(key in STRUCTURAL_ARGS,
                               f"{where} ({event.get('name')}): integer arg "
                               f"{key}={value!r} is in neither COUNTER_ARGS "
                               f"nor SIGNED_ARGS")
        traces.setdefault(args.get("trace_id"), []).append(event)
    return traces


def check_span_tree(checker, trace_id, events, nest_slack_us, root_name):
    """One root (named `root_name` unless None); parents precede children
    and contain them."""
    where = f"trace {trace_id}"
    by_idx = {}
    for event in events:
        idx = event["args"]["idx"]
        checker.expect(idx not in by_idx, f"{where}: duplicate span idx {idx}")
        by_idx[idx] = event
    roots = [e for e in events if e["args"]["parent"] == -1]
    checker.expect(len(roots) == 1,
                   f"{where}: {len(roots)} root spans (want exactly 1)")
    if len(roots) != 1:
        return None
    root = roots[0]
    if root_name is not None:
        checker.expect(root["name"] == root_name,
                       f"{where}: root span named {root['name']!r}, "
                       f"not {root_name!r}")
    for field in ("request_id", "flags", "sampled", "outcome", "retained_by",
                  "total_ms"):
        checker.expect(field in root["args"],
                       f"{where}: root args missing {field!r}")
    tids = {e["tid"] for e in events}
    checker.expect(len(tids) == 1,
                   f"{where}: spans spread over tids {sorted(tids)}")
    for event in events:
        parent_idx = event["args"]["parent"]
        if parent_idx == -1:
            continue
        idx = event["args"]["idx"]
        parent = by_idx.get(parent_idx)
        checker.expect(parent is not None,
                       f"{where}: span {idx} parent {parent_idx} missing")
        if parent is None:
            continue
        checker.expect(parent_idx < idx,
                       f"{where}: span {idx} parent {parent_idx} not earlier")
        start, end = event["ts"], event["ts"] + event["dur"]
        pstart, pend = parent["ts"], parent["ts"] + parent["dur"]
        checker.expect(
            start >= pstart - nest_slack_us and end <= pend + nest_slack_us,
            f"{where}: span {idx} ({event['name']}) [{start}, {end}]us "
            f"escapes parent {parent_idx} ({parent['name']}) "
            f"[{pstart}, {pend}]us beyond {nest_slack_us}us slack")
    return root


def check_trace(checker, doc, metrics, expect_trace_id, nest_slack_us):
    checker.expect(isinstance(doc, dict), "top level: not a JSON object")
    if not isinstance(doc, dict):
        return
    events = doc.get("traceEvents")
    stats = doc.get("traceStats")
    checker.expect(isinstance(events, list), "traceEvents: missing or not a list")
    checker.expect(isinstance(stats, dict), "traceStats: missing or not an object")
    if not isinstance(events, list) or not isinstance(stats, dict):
        return

    run_scoped = stats.get("retention") == "run"
    traces = group_traces(checker, events)
    roots = {}
    for trace_id, trace_events in sorted(traces.items(), key=lambda kv: str(kv[0])):
        root = check_span_tree(checker, trace_id, trace_events, nest_slack_us,
                               None if run_scoped else "request")
        if root is not None:
            roots[trace_id] = root

    if run_scoped:
        check_runs(checker, traces, roots, stats)
        return

    # Retention accounting: the file is the reservoir, so the counters in
    # traceStats must describe exactly what is in the file.
    retained = {"anomaly": 0, "sampled": 0, "tail": 0}
    anomalous = 0
    for trace_id, root in roots.items():
        bucket = root["args"]["retained_by"]
        checker.expect(bucket in retained,
                       f"trace {trace_id}: retained_by={bucket!r} unknown")
        if bucket in retained:
            retained[bucket] += 1
        flags = root["args"]["flags"]
        if flags != "clean":
            anomalous += 1
            checker.expect(
                bucket == "anomaly",
                f"trace {trace_id}: flags={flags!r} but retained_by={bucket!r} "
                "(anomalies must be retained by the anomaly ring)")
    for bucket, count in sorted(retained.items()):
        want = stats.get(f"retained_{bucket}", -1)
        checker.expect(count == want,
                       f"traceStats.retained_{bucket}={want} but file holds "
                       f"{count} such traces")
    total_retained = sum(retained.values())
    checker.expect(len(traces) == total_retained,
                   f"{len(traces)} distinct traces in file vs "
                   f"{total_retained} per traceStats")
    checker.expect(
        total_retained <= stats.get("finished", 0) <= stats.get("started", 0),
        f"retained {total_retained} <= finished {stats.get('finished')} <= "
        f"started {stats.get('started')} violated")

    # Anomaly completeness: if the ring never overflowed, every anomalous
    # request observed by the tracer must be in the file.
    observed = stats.get("anomalies_observed", 0)
    if observed <= stats.get("anomaly_keep", 0):
        checker.expect(
            anomalous == observed,
            f"tracer observed {observed} anomalous requests but the file "
            f"holds {anomalous} (ring did not overflow; none may be lost)")

    if expect_trace_id:
        checker.expect(
            expect_trace_id in roots,
            f"expected trace {expect_trace_id} not in file (have "
            f"{len(roots)} traces)")

    if metrics is not None:
        check_exemplars(checker, metrics, roots)


def check_runs(checker, traces, roots, stats):
    """A run-scoped profile keeps every run whole: one trace per run."""
    checker.expect(len(traces) > 0, "run-scoped profile holds no runs")
    for trace_id, root in sorted(roots.items(), key=lambda kv: str(kv[0])):
        checker.expect(root["args"]["retained_by"] == "run",
                       f"trace {trace_id}: retained_by="
                       f"{root['args']['retained_by']!r} in a run-scoped profile")
    checker.expect(
        len(traces) == stats.get("retained_run", -1) == stats.get("finished", -1),
        f"{len(traces)} runs in file vs traceStats.retained_run="
        f"{stats.get('retained_run')} finished={stats.get('finished')}")


def check_exemplars(checker, metrics, roots):
    """Every exported exemplar must point at a trace retained in the file."""
    histograms = metrics.get("histograms", {})
    checker.expect(isinstance(histograms, dict),
                   "metrics: 'histograms' missing or not an object")
    if not isinstance(histograms, dict):
        return
    seen_any = False
    for name, hist in sorted(histograms.items()):
        for exemplar in hist.get("exemplars", []):
            seen_any = True
            trace_id = exemplar.get("trace_id")
            checker.expect(
                trace_id in roots,
                f"histogram {name}: exemplar trace_id={trace_id} "
                f"(value {exemplar.get('value')}) names no retained trace")
    checker.expect(seen_any,
                   "metrics: no histogram carries exemplars (tail-latency "
                   "attribution lost)")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"trace_check: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def make_span(trace_id, idx, parent, name, ts, dur, tid=7, pid=0, **root_args):
    args = {"idx": idx, "parent": parent, "trace_id": trace_id}
    args.update(root_args)
    return {"name": name, "cat": "serve", "ph": "X", "pid": pid, "tid": tid,
            "ts": ts, "dur": dur, "args": args}


def make_run(trace_id, tid):
    """A profiled training run: root > epoch > exec run > fused unit."""
    return [
        make_span(trace_id, 0, -1, "cora/seastar", 0, 9000, tid=tid,
                  request_id=tid, flags="clean", sampled=False, outcome="done",
                  retained_by="run", total_ms=9.0),
        make_span(trace_id, 1, 0, "epoch", 100, 8000, tid=tid, epoch=0,
                  pool_hits=40, pool_misses=0),
        make_span(trace_id, 2, 1, "seastar", 300, 900, tid=tid,
                  plan_cache_misses=1, alloc_delta_bytes=-512),
        make_span(trace_id, 3, 2, "unit0:Mul+AggSum", 350, 800, tid=tid,
                  edges=13265, dispatches=4, tile_width=16),
    ]


def make_trace(trace_id, tid, flags="clean", retained_by="tail",
               outcome="served", total_ms=5.0):
    return [
        make_span(trace_id, 0, -1, "request", 0, 5000, tid=tid,
                  request_id=tid, flags=flags, sampled=False, outcome=outcome,
                  retained_by=retained_by, total_ms=total_ms),
        make_span(trace_id, 1, 0, "queue", 100, 900, tid=tid),
        make_span(trace_id, 2, 0, "execute", 1000, 3800, tid=tid),
        make_span(trace_id, 3, 2, "attempt", 1010, 3700, tid=tid),
    ]


def self_test(_args):
    """Fabricates traces to prove every check trips when it must."""
    good_doc = {
        "displayTimeUnit": "ms",
        "traceEvents":
            [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
              "args": {"name": "tenant:demo"}}]
            + make_trace("aaaa", 7)
            + make_trace("bbbb", 8, flags="shed", retained_by="anomaly",
                         outcome="shed")
            + make_trace("cccc", 9, retained_by="sampled"),
        "traceStats": {
            "started": 10, "finished": 10, "head_sampled": 1,
            "anomalies_observed": 1, "retained_sampled": 1,
            "retained_anomaly": 1, "retained_tail": 1, "evicted": 0,
            "spans_dropped": 0, "pool_misses": 0, "tail_keep": 32,
            "anomaly_keep": 8192, "head_sample_rate": 0.01,
        },
    }
    good_metrics = {"histograms": {
        "seastar_serve_request_latency_ms": {
            "count": 10, "p99": 5.0, "max": 5.0,
            "exemplars": [{"value": 5.0, "trace_id": "aaaa"}],
        },
    }}

    failures = []

    def expect_case(label, doc, want_fail, metrics=None, expect_id=""):
        checker = Checker()
        check_trace(checker, doc, metrics, expect_id, nest_slack_us=2000)
        if bool(checker.failures) != want_fail:
            failures.append(
                f"self-test {label}: expected "
                f"{'failure' if want_fail else 'pass'}, got "
                f"{checker.failures or 'pass'}")

    # 1. A consistent file with matching exemplars passes.
    expect_case("good", good_doc, False, metrics=good_metrics,
                expect_id="bbbb")

    # 2. A child span escaping its parent's interval fails.
    escaped = copy.deepcopy(good_doc)
    escaped["traceEvents"][4]["dur"] = 60000  # queue runs past request end
    expect_case("nesting", escaped, True)

    # 3. A span whose parent index does not exist fails.
    orphan = copy.deepcopy(good_doc)
    orphan["traceEvents"][4]["args"]["parent"] = 42
    expect_case("orphan-parent", orphan, True)

    # 4. Two roots in one trace fail.
    two_roots = copy.deepcopy(good_doc)
    two_roots["traceEvents"][4]["args"]["parent"] = -1
    expect_case("two-roots", two_roots, True)

    # 5. A retained count that disagrees with the file fails.
    drift = copy.deepcopy(good_doc)
    drift["traceStats"]["retained_tail"] = 5
    expect_case("stats-drift", drift, True)

    # 6. An anomalous trace lost from the file fails (ring did not overflow,
    # so observed anomalies must all be present).
    lost = copy.deepcopy(good_doc)
    lost["traceEvents"] = [e for e in lost["traceEvents"]
                           if e["args"].get("trace_id") != "bbbb"]
    lost["traceStats"]["retained_anomaly"] = 0
    expect_case("lost-anomaly", lost, True)

    # 7. An anomalous trace retained outside the anomaly ring fails.
    misfiled = copy.deepcopy(good_doc)
    misfiled["traceEvents"][5]["args"]["retained_by"] = "tail"  # bbbb's root
    misfiled["traceStats"]["retained_tail"] = 2
    misfiled["traceStats"]["retained_anomaly"] = 0
    expect_case("misfiled-anomaly", misfiled, True)

    # 8. An exemplar pointing at an unretained trace fails.
    dangling = copy.deepcopy(good_metrics)
    dangling["histograms"]["seastar_serve_request_latency_ms"][
        "exemplars"][0]["trace_id"] = "dddd"
    expect_case("dangling-exemplar", good_doc, True, metrics=dangling)

    # 9. Metrics with no exemplars at all fail (attribution lost).
    bare = {"histograms": {"seastar_serve_request_latency_ms": {"count": 10}}}
    expect_case("no-exemplars", good_doc, True, metrics=bare)

    # 10. A missing expected trace id fails.
    expect_case("missing-expected-id", good_doc, True, expect_id="ffff")

    # 11. An X event without args.trace_id fails shape validation.
    shapeless = copy.deepcopy(good_doc)
    del shapeless["traceEvents"][4]["args"]["trace_id"]
    expect_case("missing-trace-id", shapeless, True)

    # 12. A run-scoped training profile (two runs) passes.
    good_run = {
        "displayTimeUnit": "ms",
        "traceEvents": make_run("r1", 0) + make_run("r2", 1),
        "traceStats": {"retention": "run", "started": 2, "finished": 2,
                       "retained_run": 2, "retained_sampled": 0,
                       "retained_anomaly": 0, "retained_tail": 0},
    }
    expect_case("good-run", good_run, False)

    # 13. Negative or fractional counter args fail.
    negative = copy.deepcopy(good_run)
    negative["traceEvents"][3]["args"]["edges"] = -3
    expect_case("run-negative-counter", negative, True)
    fractional = copy.deepcopy(good_run)
    fractional["traceEvents"][1]["args"]["pool_hits"] = 2.5
    expect_case("run-fractional-counter", fractional, True)

    # 14. A run with two roots (a span that lost its parent) fails.
    split = copy.deepcopy(good_run)
    split["traceEvents"][2]["args"]["parent"] = -1
    expect_case("run-two-roots", split, True)

    # 15. A run missing from the file fails accounting.
    short = copy.deepcopy(good_run)
    short["traceEvents"] = [e for e in short["traceEvents"]
                            if e["args"]["trace_id"] != "r2"]
    expect_case("run-lost", short, True)

    # 16. An integer arg the checker does not know (a retired or new counter
    # missing from COUNTER_ARGS / SIGNED_ARGS) fails.
    unlisted = copy.deepcopy(good_run)
    unlisted["traceEvents"][3]["args"]["fat_group_size"] = 1
    expect_case("run-unlisted-arg", unlisted, True)

    for line in failures:
        print(line, file=sys.stderr)
    print(f"trace_check --self-test: {'FAIL' if failures else 'ok'} "
          f"(16 cases)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", default="",
                        help="Chrome-trace JSON from --trace-out or --profile=")
    parser.add_argument("--metrics", default="",
                        help="metrics JSON from the same run; enables the "
                             "exemplar-linkage check")
    parser.add_argument("--expect-trace-id", default="",
                        help="hex trace id that must be present in the file")
    parser.add_argument("--nest-slack-us", type=float, default=2000.0,
                        help="allowed parent/child interval slack in us")
    parser.add_argument("--self-test", action="store_true",
                        help="validate fabricated traces, good and broken")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test(args))
    if not args.trace:
        parser.error("trace file required (or --self-test)")
    checker = Checker()
    metrics = load(args.metrics) if args.metrics else None
    check_trace(checker, load(args.trace), metrics,
                args.expect_trace_id.strip(), args.nest_slack_us)
    sys.exit(checker.report())


if __name__ == "__main__":
    main()
