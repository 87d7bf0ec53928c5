#!/usr/bin/env python3
"""Compare two files written by scripts/bench_record.py, workload by
workload, metric by metric.

Example:
    python scripts/bench_compare.py BENCH_21.json BENCH_22.json

Each metric is the median over a file's runs (untraced runs for the
end-to-end metrics, traced runs for the per-layer ones). The ratio is
NEW / OLD. An end-to-end metric is printed beside its BENCHMARK.json bound
and marked WORSE when it moved the wrong way by more than that bound; the
exit status is 1 if any did. Per-layer metrics have no bound; those that
read 0 in both files (a layer the workload does not run) are left out.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def medians(path, trace: int) -> dict:
    """{(workload, metric): median value} over the file's runs with this trace flag."""
    runs = json.loads(Path(path).read_text(encoding="utf-8"))["runs"]
    values = {}
    for run in runs:
        if int(run["trace"]) == trace:
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return {key: statistics.median(vals) for key, vals in values.items()}


def worse_by(ratio: float, better: str) -> float:
    """How far a ratio NEW / OLD moved the wrong way, as a fraction."""
    return ratio - 1.0 if better == "lower" else 1.0 - ratio


def compare(old, new, spec: dict) -> tuple:
    """(printed lines, number of end-to-end metrics worse than their bound)."""
    lines, breaches = [], 0
    sections = [(spec[section], medians(old, trace), medians(new, trace))
                for section, trace in (("end_to_end", 0), ("per_layer", 1))]
    for workload in (w["name"] for w in spec["workloads"]):
        for metrics, a, b in sections:
            for metric in metrics:
                key = (workload, metric["name"])
                was, now = a.get(key, 0.0), b.get(key, 0.0)
                if was == 0 and now == 0:
                    continue  # absent, or a layer the workload does not run (it reads 0)
                ratio = now / was if was else float("nan")
                bound = metric.get("bound")
                mark = ""
                if bound is not None and worse_by(ratio, metric["better"]) > bound:
                    mark, breaches = "WORSE", breaches + 1
                lines.append(f"{workload:12s} {metric['name']:26s} {was:>14.6g} {now:>14.6g} "
                             f"{ratio:>8.3f} {'-' if bound is None else f'{bound:.2f}':>6s} "
                             f"{metric['better']:6s} {mark}".rstrip())
    return lines, breaches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, breaches = compare(args.old, args.new, spec)
    print(f"{'workload':12s} {'metric':26s} {'old':>14s} {'new':>14s} {'ratio':>8s} "
          f"{'bound':>6s} better")
    print("\n".join(lines))
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
