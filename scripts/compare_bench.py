#!/usr/bin/env python3
"""Compare a freshly generated BENCH figure report against a committed
baseline, failing on a large per-method regression.

Usage:
    compare_bench.py BASELINE.json FRESH.json [MAX_RATIO] [FLOOR_MS]

Three report shapes are understood:

* Query-time figures (fig4..fig7, scaling): ``{"datasets": [{"rows":
  [...]}]}`` — per-row ``avg_query_ms`` values are summed per (method,
  store) pair across all datasets and parameters.  Baseline and fresh report
  must come from the same report schema (the committed baselines are
  regenerated whenever the row shape changes).  When the report carries
  fig4's ``verify_normalized`` section, it contributes one
  ``verify_normalized@STORE`` key per disk-backed store tracking the
  coalesced rolling-normalisation path, trend-checked like query times.
  A key the baseline tracks
  but the fresh report dropped is a hard failure; a key only the fresh
  report carries (a newer binary emitting a new optional section against an
  older baseline) is warned about and skipped.
* Build figures (fig8): ``{"rows": [...]}`` with ``build_seconds`` — summed
  per method, converted to milliseconds so the same thresholds apply.
* Streaming reports (stream): ``{"methods": [{"method": ..., "latency":
  [...]}]}`` — per-method ``avg_query_ms`` summed over the ingestion
  checkpoints.  When the report carries the WAL sections (``group_commit``,
  ``recovery``), their wall-clock costs are tracked as extra keys
  (``wal_append_baseline`` / ``wal_append_group_commit`` in ms per run,
  ``wal_recovery_full_replay`` / ``wal_recovery_checkpoint_tail`` in ms), so
  a durability-path regression fails the trend check like a query-path one.
* Daemon reports (serve): ``{"operations": [{"op": ..., "avg_ms": ...,
  "latency": {...}}]}`` — one key per operation type.  The mean and the p99
  are tracked as separate keys (``query``, ``query_p99``, ...), so a tail
  regression fails even when the mean stays flat.  ``failed`` must be 0 on
  both sides.

For every key, the fresh total may exceed the baseline total by up to
MAX_RATIO x (default 3.0) -- a deliberately loose bound, since the baseline
was measured on a different machine than CI -- but never by less than
FLOOR_MS milliseconds (default 5.0), so sub-millisecond baselines do not
trip on scheduler noise.  Exit code 1 on regression or when a tracked key
drops out of the fresh report (a method or store silently vanishing must
fail too).
"""

import json
import sys


def method_totals(report):
    totals = {}
    if "datasets" in report:
        for dataset in report["datasets"]:
            for row in dataset["rows"]:
                key = row["method"]
                if "store" in row:
                    key = f"{key}@{row['store']}"
                totals[key] = totals.get(key, 0.0) + row["avg_query_ms"]
        # The rolling-normalisation ablation (fig4's ``verify_normalized``
        # section): the coalesced rolling path is tracked per disk-backed
        # store so it cannot silently regress back towards the per-window
        # read baseline it replaced.
        for entry in report.get("verify_normalized", []):
            totals[f"verify_normalized@{entry['store']}"] = entry["rolling_ms"]
    elif "rows" in report:
        for row in report["rows"]:
            totals[row["method"]] = (
                totals.get(row["method"], 0.0) + row["build_seconds"] * 1e3
            )
    elif "methods" in report:
        for entry in report["methods"]:
            totals[entry["method"]] = sum(
                row["avg_query_ms"] for row in entry["latency"]
            )
        gc = report.get("group_commit")
        if gc:
            try:
                # Throughputs become wall-clock ms for the benched point
                # count, so "lower is better" holds for every tracked key.
                totals["wal_append_baseline"] = (
                    gc["points"] / gc["baseline_points_per_sec"] * 1e3
                )
                totals["wal_append_group_commit"] = (
                    gc["points"] / gc["group_commit_points_per_sec"] * 1e3
                )
            except KeyError as e:
                print(
                    f"warning: group_commit section missing key {e}; "
                    "skipping WAL append keys"
                )
        recovery = report.get("recovery")
        if recovery:
            try:
                totals["wal_recovery_full_replay"] = recovery["full_replay_ms"]
                totals["wal_recovery_checkpoint_tail"] = recovery[
                    "checkpoint_tail_ms"
                ]
            except KeyError as e:
                print(
                    f"warning: recovery section missing key {e}; "
                    "skipping WAL recovery keys"
                )
    elif "operations" in report:
        if report.get("failed", 0) != 0:
            sys.exit(f"serve report records {report['failed']} failed requests")
        for entry in report["operations"]:
            totals[entry["op"]] = entry["avg_ms"]
            totals[f"{entry['op']}_p99"] = entry["latency"]["p99_ms"]
    else:
        sys.exit(
            "unrecognised report shape: none of 'datasets', 'rows', 'methods', "
            "'operations' present"
        )
    return totals


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        baseline = method_totals(json.load(f))
    with open(argv[2]) as f:
        fresh = method_totals(json.load(f))
    max_ratio = float(argv[3]) if len(argv) > 3 else 3.0
    floor_ms = float(argv[4]) if len(argv) > 4 else 5.0

    # A key the baseline tracks but the fresh report dropped is a hard
    # failure: a method or section silently vanishing must not pass.  The
    # other direction — the fresh report grew an optional section (e.g. a
    # newer binary emitting `metrics_overhead`) against an older committed
    # baseline — is only worth a warning: there is nothing to compare yet.
    missing = set(baseline) - set(fresh)
    if missing:
        sys.exit(
            f"fresh report dropped tracked keys: {sorted(missing)} "
            f"(baseline {sorted(baseline)} vs fresh {sorted(fresh)})"
        )
    for extra in sorted(set(fresh) - set(baseline)):
        print(
            f"warning: fresh report key '{extra}' has no committed baseline; "
            "skipping (regenerate the baseline to start tracking it)"
        )

    failures = []
    for key in sorted(baseline):
        base, new = baseline[key], fresh[key]
        limit = max(base * max_ratio, base + floor_ms)
        verdict = "OK" if new <= limit else "REGRESSION"
        print(
            f"{key:<22} baseline {base:9.3f} ms   fresh {new:9.3f} ms   "
            f"limit {limit:9.3f} ms   {verdict}"
        )
        if new > limit:
            failures.append(key)
    if failures:
        sys.exit(f"regression (> {max_ratio}x baseline): {failures}")
    print(f"all methods within {max_ratio}x of the committed baseline")


if __name__ == "__main__":
    main(sys.argv)
