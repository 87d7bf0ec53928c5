#!/usr/bin/env python3
"""Record the benchmark into one JSON file: every workload, untraced and
traced, over the given seeds.

Example:
    python scripts/bench_record.py --out BENCH_22.json --seeds 0 1 --seconds 30

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N
--trace T`, in its own process from the root of the checkout given by --root
(the one holding this script by default). Its full record (metrics, extra
values, checks, environment, span summary) is read back from
`perfbench/results/W-seedS-traceT.json`. Runs go seed by seed and, within a
seed, workload by workload, untraced then traced. The file holds the
checkout's `git rev-parse HEAD`, whether its tracked files differed from it
(both null outside a git repository), the command line and the records.
Compare two files with scripts/bench_compare.py.
"""

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def workload_names(root: Path) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def git(root: Path, *args) -> str | None:
    """git's output in root; None where git is missing or finds no repository."""
    try:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its record, less the path of the span dump it wrote."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = root / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    record.pop("span_dump", None)
    return {"seed": seed, **record}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--seconds", type=float, default=30.0, help="length of each run")
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    args = ap.parse_args(argv)
    root = args.root.resolve()

    status = git(root, "status", "--porcelain", "--untracked-files=no")
    record = {
        "commit": git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "command": shlex.join(["python", "scripts/bench_record.py",
                               *(sys.argv[1:] if argv is None else argv)]),
        "runs": [],
    }
    for seed in args.seeds:
        for name in args.workloads or workload_names(root):
            for trace in (0, 1):
                run = run_once(root, name, seed, args.seconds, trace)
                record["runs"].append(run)
                print(f"{name} seed={seed} trace={trace}: {run['checks']['failed']} of "
                      f"{run['checks']['attempted']} checks failed", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
