#!/usr/bin/env python3
"""Diffs two BENCH_<name>.json files (schema v1) series by series.

Usage: bench_compare.py [options] <baseline.json> <candidate.json>

Options:
  --threshold PCT   Relative p50/p95 delta (in percent) above which a series
                    counts as a regression/improvement. Default: 5.
  --series REGEX    Only compare series whose name matches REGEX (re.search).
                    Non-matching series are ignored entirely — not listed as
                    added/removed. Lets CI gate deterministic series (e.g.
                    ^det\\.) tightly while excluding wall-clock series whose
                    values depend on runner load.
  --fail-on-regress Exit 1 when any series regresses past the threshold
                    (default: report only, exit 0 — the CI step is
                    advisory while baselines season).
  --exact           For deterministic (virtual-time) benches: every field
                    of every series (count, mean, quantiles, max, scalars,
                    layers) and every entry of the `metrics` section must
                    be equal, and no series or metric may be added or
                    removed (--series still selects the series; metrics
                    are always compared). Exits 1 on any difference.
  --self-test       Run the built-in unit checks and exit.

For every series present in both files the p50 and p95 deltas are printed;
series only in one file are listed as added/removed (never fatal — benches
grow series across PRs). "Worse" is direction-aware: for time-like units
(ns/us/ms/s) higher is worse, for throughput-like units (KB/s, KOps/s, x)
lower is worse.

Exit codes: 0 ok / within threshold, 1 regression (with --fail-on-regress)
or any difference (with --exact), 2 usage or unreadable input.
"""

import argparse
import json
import re
import sys

# Units where a higher value is better (throughputs, speedups). Everything
# else — the time-like units — treats higher as worse.
HIGHER_IS_BETTER = {"KB/s", "MB/s", "KOps/s", "ops/s", "x"}

QUANTILES = ("p50", "p95")


def load(path):
    """Returns the whole schema-v1 document at `path`."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("ERROR: cannot read %s: %s" % (path, e), file=sys.stderr)
        sys.exit(2)
    if doc.get("schema_version") != 1:
        print("ERROR: %s: schema_version != 1" % path, file=sys.stderr)
        sys.exit(2)
    return doc


def series_of(doc):
    """The document's series, keyed by name."""
    return {s["name"]: s for s in doc.get("series", []) if s.get("name")}


def filter_series(series, pattern):
    """Keeps only series whose name matches `pattern` (re.search)."""
    if pattern is None:
        return series
    return {name: s for name, s in series.items() if re.search(pattern, name)}


def rel_delta(base, cand):
    """Relative change in percent; None when the baseline is ~zero."""
    if abs(base) < 1e-12:
        return None if abs(cand) < 1e-12 else float("inf")
    return (cand - base) / abs(base) * 100.0


def compare(baseline, candidate, threshold_pct):
    """Returns (rows, regressions, added, removed).

    rows: (name, quantile, base, cand, delta_pct, flag) for shared series;
    flag is "" / "improved" / "REGRESSED" past the threshold.
    """
    rows, regressions = [], []
    shared = sorted(set(baseline) & set(candidate))
    for name in shared:
        b, c = baseline[name], candidate[name]
        higher_better = b.get("unit") in HIGHER_IS_BETTER
        for q in QUANTILES:
            if q not in b or q not in c:
                continue
            delta = rel_delta(float(b[q]), float(c[q]))
            flag = ""
            if delta is not None and abs(delta) > threshold_pct:
                worse = delta < 0 if higher_better else delta > 0
                flag = "REGRESSED" if worse else "improved"
                if worse:
                    regressions.append((name, q, delta))
            rows.append((name, q, float(b[q]), float(c[q]), delta, flag))
    added = sorted(set(candidate) - set(baseline))
    removed = sorted(set(baseline) - set(candidate))
    return rows, regressions, added, removed


def exact_diffs(baseline, candidate, base_metrics, cand_metrics):
    """Every difference between two runs, one line each: a series or metric
    only on one side, or a series field / metric whose value differs."""
    diffs = []
    for kind, base, cand in (("series", baseline, candidate),
                             ("metric", base_metrics, cand_metrics)):
        for name in sorted(set(base) - set(cand)):
            diffs.append("removed %s: %s" % (kind, name))
        for name in sorted(set(cand) - set(base)):
            diffs.append("added %s: %s" % (kind, name))
    for name in sorted(set(baseline) & set(candidate)):
        b, c = baseline[name], candidate[name]
        for field in sorted(set(b) | set(c)):
            if b.get(field) != c.get(field):
                diffs.append("%s.%s: %r -> %r"
                             % (name, field, b.get(field), c.get(field)))
    for name in sorted(set(base_metrics) & set(cand_metrics)):
        if base_metrics[name] != cand_metrics[name]:
            diffs.append("metric %s: %r -> %r"
                         % (name, base_metrics[name], cand_metrics[name]))
    return diffs


def fmt_delta(delta):
    if delta is None:
        return "0.0%"
    if delta == float("inf"):
        return "+inf%"
    return "%+.1f%%" % delta


def self_test():
    base = {
        "a": {"name": "a", "unit": "ns", "p50": 100.0, "p95": 200.0},
        "t": {"name": "t", "unit": "KOps/s", "p50": 50.0, "p95": 50.0},
        "gone": {"name": "gone", "unit": "ns", "p50": 1.0, "p95": 1.0},
        "z": {"name": "z", "unit": "ns", "p50": 0.0, "p95": 0.0},
    }
    cand = {
        "a": {"name": "a", "unit": "ns", "p50": 120.0, "p95": 190.0},
        "t": {"name": "t", "unit": "KOps/s", "p50": 40.0, "p95": 40.0},
        "new": {"name": "new", "unit": "ns", "p50": 1.0, "p95": 1.0},
        "z": {"name": "z", "unit": "ns", "p50": 0.0, "p95": 0.0},
    }
    rows, regressions, added, removed = compare(base, cand, 5.0)
    # a.p50: +20% on a time unit → regression; a.p95: -5% → within threshold.
    # t: -20% on a throughput unit → regression. z: 0/0 → no delta.
    assert ("a", "p50", 20.0) in [(n, q, round(d)) for n, q, d in regressions]
    assert any(n == "t" and q == "p50" for n, q, _ in regressions)
    assert not any(n == "a" and q == "p95" for n, q, _ in regressions)
    assert added == ["new"] and removed == ["gone"]
    zrows = [r for r in rows if r[0] == "z"]
    assert all(r[4] is None and r[5] == "" for r in zrows)
    # Identical inputs → no regressions.
    _, none, _, _ = compare(base, base, 5.0)
    assert none == []
    # --series filtering: only matching names are compared, and filtered-out
    # series never show up as added/removed noise.
    fb, fc = filter_series(base, "^t$"), filter_series(cand, "^t$")
    rows, regressions, added, removed = compare(fb, fc, 5.0)
    assert {r[0] for r in rows} == {"t"}
    assert [n for n, _, _ in regressions] == ["t", "t"]
    assert added == [] and removed == []
    assert filter_series(base, None) is base
    # --exact: identical runs pass; one op more in one series, a changed
    # layer, or a metric missing from one side each fail — even where the
    # thresholded comparison sees no p50/p95 move at all.
    det = {"d": {"name": "d", "unit": "us", "count": 10, "p50": 5.0,
                 "p95": 5.0, "layers": {"x": 1.0}}}
    metrics = {"ncl.a": 1, "ncl.b": 2}
    assert exact_diffs(det, det, metrics, metrics) == []
    one_more_op = {"d": dict(det["d"], count=11)}
    assert exact_diffs(det, one_more_op, metrics, metrics) == [
        "d.count: 10 -> 11"]
    assert compare(det, one_more_op, 5.0)[1] == []
    moved_layer = {"d": dict(det["d"], layers={"x": 2.0})}
    assert len(exact_diffs(det, moved_layer, metrics, metrics)) == 1
    assert exact_diffs(det, det, metrics, {"ncl.a": 1}) == [
        "removed metric: ncl.b"]
    assert exact_diffs(det, det, {"ncl.a": 1}, metrics) == [
        "added metric: ncl.b"]
    assert exact_diffs(det, det, metrics, {"ncl.a": 1, "ncl.b": 3}) == [
        "metric ncl.b: 2 -> 3"]
    assert exact_diffs(det, {}, {}, {}) == ["removed series: d"]
    print("bench_compare self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two schema-v1 BENCH_*.json files.")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="relative delta threshold in percent")
    parser.add_argument("--series", metavar="REGEX", default=None,
                        help="only compare series matching this regex")
    parser.add_argument("--fail-on-regress", action="store_true")
    parser.add_argument("--exact", action="store_true",
                        help="fail on any difference in any series field "
                             "or metric")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.print_usage(sys.stderr)
        return 2

    base_doc, cand_doc = load(args.baseline), load(args.candidate)
    try:
        baseline = filter_series(series_of(base_doc), args.series)
        candidate = filter_series(series_of(cand_doc), args.series)
    except re.error as e:
        print("ERROR: bad --series regex: %s" % e, file=sys.stderr)
        return 2
    if args.exact:
        diffs = exact_diffs(baseline, candidate,
                            base_doc.get("metrics", {}),
                            cand_doc.get("metrics", {}))
        for line in diffs:
            print("  " + line)
        print("exact: %d series, %d metrics, %d difference(s)"
              % (len(baseline), len(base_doc.get("metrics", {})),
                 len(diffs)))
        return 1 if diffs else 0
    rows, regressions, added, removed = compare(
        baseline, candidate, args.threshold)

    printed = set()
    for name, q, b, c, delta, flag in rows:
        if not flag and name in printed:
            continue
        if flag or name not in printed:
            if name not in printed:
                printed.add(name)
        if flag:
            print("  %-50s %s %12.3f -> %-12.3f %-8s %s"
                  % (name, q, b, c, fmt_delta(delta), flag))
    flagged = {r[0] for r in rows if r[5]}
    unchanged = len({r[0] for r in rows}) - len(flagged)
    print("compared %d shared series: %d within ±%.1f%%, %d flagged"
          % (len({r[0] for r in rows}), unchanged, args.threshold,
             len(flagged)))
    for name in added:
        print("  added:   %s" % name)
    for name in removed:
        print("  removed: %s" % name)

    if regressions:
        print("%d regression(s) past %.1f%%:" % (len(regressions),
                                                 args.threshold))
        for name, q, delta in regressions:
            print("  %s %s %s" % (name, q, fmt_delta(delta)))
        if args.fail_on_regress:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
