"""Benchmark of the spartan package: one workload per run, or all of them.

    python3 perfbench/run.py --workload finetune --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the run reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a separate traced run. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. A fuller record
(environment fingerprint, extra values, span summary) is written under
`perfbench/results/`, and the traced run also writes its span dump there.

BLAS is pinned to one thread before numpy loads; see DESIGN.md for the
workloads, the metrics and what each metric should move.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV_BEFORE = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("finetune", "encode-f32", "memory-wide")


def load_program():
    """Import spartan from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "spartan" / "__init__.py").is_file():
        sys.exit(f"error: no spartan sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import spartan

    if Path(spartan.__file__).resolve().parent != (src / "spartan").resolve():
        sys.exit(f"error: spartan imported from {spartan.__file__}, not from {src}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int, dtype: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "executed_dtype": dtype,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": BLAS_THREADS,
        "thread_env_before": ENV_BEFORE,
        "thread_env_pinned": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def declared_metrics() -> tuple[list[str], list[str]]:
    """End-to-end and per-layer metric names declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def fresh_import() -> None:
    """Start a fresh interpreter that imports everything a workload uses
    (numpy, scipy, spartan) and exits."""
    code = f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; import workloads"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_program()
    import workloads

    own_import_s = time.perf_counter() - _PROCESS_T0
    _, import_s = workloads.timed_reps(fresh_import)
    out = workloads.WORKLOADS[name](seed, seconds, trace, import_s)
    out.extra["import_wall_s"] = (import_s.wall, "s")
    out.extra["import_s_this_process"] = (own_import_s, "s")
    checks = out.checks
    out.extra["failed_frac"] = (checks.failed / checks.attempted, "frac")

    e2e_names, layer_names = declared_metrics()
    reported = out.per_layer if trace else out.end_to_end
    wanted = layer_names if trace else e2e_names
    if sorted(reported) != sorted(wanted):
        sys.exit(f"error: workload reported {sorted(reported)}, BENCHMARK.json declares {sorted(wanted)}")
    metrics = {k: {"value": reported[k][0], "unit": reported[k][1]} for k in wanted}

    stem = workloads.results_dir() + f"/{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "environment": fingerprint(seed, out.dtype),
        "load_shape": "closed loop, 1 caller, 1 process; wait time per layer: " + workloads.NO_WAIT,
        "metrics": metrics,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in out.extra.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
    }
    if out.tracer is not None:
        record["spans"] = out.tracer.summary()
        record["span_dump"] = stem + "-spans.jsonl"
        out.tracer.dump(record["span_dump"])
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    env = record["environment"]
    print(f"# {name} seed={seed} trace={int(trace)} dtype={out.dtype} "
          f"blas={env['blas']['name']} {env['blas']['version']} threads={BLAS_THREADS} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} numpy={env['numpy']} python={env['python']}")
    for key, (value, unit) in list(reported.items()) + sorted(out.extra.items()):
        print(f"{name:12s} {key:26s} {value!s:>24} {unit}")
    for failure in checks.failures:
        print(f"{name:12s} FAILED CHECK: {failure}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload, untraced then traced, in its own child process."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
