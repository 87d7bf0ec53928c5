#!/usr/bin/env python3
"""Layer-level throughput comparison across plugin architectures and top-K values.

Arms are measured in interleaved rounds and summarized by median, which is the
only defensible way to compare wall-clock numbers on a machine whose load
drifts. Besides the standard arms, an adapter at bottleneck 32 is included:
its 2*d*b projection cost (49,152 MACs/position at d=768) exactly matches the
sparse memory layer's total at the default shapes, so that pair isolates the
cost of dispatch versus dense projection at equal arithmetic. The MAC column
is each arm's counted multiply-accumulates per position, as its reports
carry them.

Example:
    python scripts/throughput_sweep.py --out sweep.csv --rounds 5
"""

import argparse
import csv

from spartan.bench import BenchConfig, compare_reports, median_throughput


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="throughput_sweep.csv")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--measure-seconds", type=float, default=1.0)
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--seq-len", type=int, default=32)
    ap.add_argument("--d", type=int, default=768)
    args = ap.parse_args()

    shared = dict(batch_size=args.batch, seq_len=args.seq_len, warmup_batches=1,
                  measure_seconds=args.measure_seconds, precision="f32", d=args.d)

    arms = {
        "spartan-K8": BenchConfig(architecture="spartan", **shared),
        "adapter-b64": BenchConfig(architecture="adapter", bottleneck=64, **shared),
        "adapter-b32-macmatched": BenchConfig(architecture="adapter", bottleneck=32, **shared),
        "adapterx2-b64": BenchConfig(architecture="adapterx2", bottleneck=64, **shared),
    }
    for k in (2, 4, 8, 16):
        arms[f"spartan-K{k}-sweep"] = BenchConfig(architecture="spartan", top_k=k, **shared)

    print(f"measuring {len(arms)} arms x {args.rounds} interleaved rounds "
          f"x {args.measure_seconds:.0f}s windows ...")
    reports = compare_reports(arms, mode="micro", rounds=args.rounds)
    medians = median_throughput(reports)

    rows = []
    for name, cfg in arms.items():
        macs = reports[name][0].macs_per_position_per_plugin
        rows.append({"arm": name, "architecture": cfg.architecture, "top_k": cfg.top_k,
                     "bottleneck": cfg.bottleneck, "macs_per_position": macs,
                     "instances_per_minute": round(medians[name], 1)})
        print(f"{name:24s} {medians[name]:12.0f} instances/min   {macs:6d} MACs/position")

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
