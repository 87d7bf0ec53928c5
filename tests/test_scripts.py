"""Smoke tests: each script in scripts/ runs to exit 0 in a fresh interpreter."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    run = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_make_synthetic_data_writes_both_splits(tmp_path):
    run_script("make_synthetic_data.py", "--out-dir", "data", "--per-topic", "5", cwd=tmp_path)
    for split in ("train", "valid"):
        assert len((tmp_path / "data" / f"{split}.jsonl").read_text().splitlines()) == 20


def test_specialization_experiment_runs_end_to_end(tmp_path):
    out = run_script("specialization_experiment.py", "--steps", "2", "--out-prefix", "spec",
                     cwd=tmp_path)
    assert '"nmi"' in out
    for suffix in (".csv", ".json", ".metrics.csv"):
        assert (tmp_path / f"spec{suffix}").exists()


def test_throughput_sweep_help_exits_0(tmp_path):
    assert "usage" in run_script("throughput_sweep.py", "--help", cwd=tmp_path)


def test_throughput_sweep_measures_every_arm_at_toy_shapes(tmp_path):
    arms = ["spartan-K8", "adapter-b64", "adapter-b32-macmatched", "adapterx2-b64",
            "spartan-K2-sweep", "spartan-K4-sweep", "spartan-K8-sweep", "spartan-K16-sweep"]
    out = run_script("throughput_sweep.py", "--d", "32", "--batch", "2", "--seq-len", "4",
                     "--rounds", "1", "--measure-seconds", "1", "--out", "sweep.csv",
                     cwd=tmp_path)
    printed = [line.split()[0] for line in out.splitlines() if "instances/min" in line]
    assert printed == arms, out
    with open(tmp_path / "sweep.csv", newline="") as fh:
        assert [row["arm"] for row in csv.DictReader(fh)] == arms


def test_bench_record_writes_one_file_that_bench_compare_reads(tmp_path):
    run_script("bench_record.py", "--out", "bench.json", "--seconds", "1",
               "--workloads", "encode-f32", cwd=tmp_path)
    record = json.loads((tmp_path / "bench.json").read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
    assert "--workloads encode-f32" in record["command"]
    assert [(run["workload"], run["trace"]) for run in record["runs"]] == [
        ("encode-f32", False), ("encode-f32", True)]
    assert all(run["checks"]["failed"] == 0 for run in record["runs"])
    out = run_script("bench_compare.py", "bench.json", "bench.json", cwd=tmp_path)
    rows = [line.split() for line in out.splitlines()[1:]]
    assert {row[1] for row in rows} >= {"inst_per_s", "peak_rss_mb", "adapter.fwd_ms"}
    assert all(row[4] == "1.000" for row in rows)
