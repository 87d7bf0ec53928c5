"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They take about a minute: each workload runs for one second per case.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spartan import memory  # noqa: E402
from spartan.numerics import make_rng  # noqa: E402

import memref  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = last_json(run_bench(workload, seed, trace))
        return cache[key]

    return get


def test_reference_matches_forward_batch_at_tiny_shape():
    cfg = memory.SpartanConfig(d=8, num_parents=6, children_per_parent=2, top_k=3)
    rng = make_rng(7)
    params = memory.init_params(cfg, rng)
    params.child_values[...] = rng.normal(size=params.child_values.shape)
    x = rng.normal(size=(12, cfg.d))
    out, trace = memory.forward_batch(params, x, None, True)
    for r in range(x.shape[0]):
        ref, sel, decidable = memref.forward_row(params.parents, params.child_keys,
                                                 params.child_values, cfg.top_k, x[r])
        assert decidable
        np.testing.assert_array_equal(sel, trace.selected[r])
        np.testing.assert_allclose(out[r], ref, rtol=1e-12, atol=1e-12)


def test_reference_flags_a_tie_at_the_kth_parent():
    parents = np.array([[1.0], [1.0], [0.0]])
    keys = np.zeros((3, 1, 1))
    values = np.zeros((3, 1, 1))
    _, sel, decidable = memref.forward_row(parents, keys, values, 1, np.array([1.0]), tie_gap=1e-6)
    assert not decidable
    np.testing.assert_array_equal(sel, [0])  # ties go to the lower index


def test_self_time_excludes_children():
    def inner():
        time.sleep(0.02)

    def outer():
        owner.inner()
        time.sleep(0.01)

    owner = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.wrap(owner, "inner", "inner")
    tracer.wrap(owner, "outer", "outer")
    owner.outer()
    tracer.restore()
    assert owner.inner is inner and owner.outer is outer
    own = tracer.self_seconds()
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == outer_span.sid
    assert own[outer_span.sid] == pytest.approx(outer_span.seconds - inner_span.seconds)
    assert 0.009 <= own[outer_span.sid] < 0.02


def test_call_times_scale_by_the_probes_around_them():
    ref = workloads.hostspeed.REFERENCE_S
    timings = workloads.Timings.from_probed([0.1, 0.2], [ref, ref, 3 * ref])
    np.testing.assert_allclose(timings.scaled, [0.1, 0.1])
    np.testing.assert_allclose((timings + timings).wall, [0.1, 0.2, 0.1, 0.2])


@pytest.mark.parametrize("workload", ["finetune", "encode-f32", "memory-wide"])
def test_printed_metric_names_match_declaration(runs, workload):
    assert set(runs(workload, 0, 0)["metrics"]) == END_TO_END
    assert set(runs(workload, 0, 1)["metrics"]) == PER_LAYER


@pytest.mark.parametrize("workload", ["finetune", "encode-f32", "memory-wide"])
def test_other_seed_keeps_metric_set_and_check_outcomes(runs, workload):
    a, b = runs(workload, 0, 0), runs(workload, 1, 0)
    assert set(a["metrics"]) == set(b["metrics"])
    assert a["correct"] and b["correct"]
    assert a["failed"] == b["failed"] == 0


def test_other_seed_changes_inputs():
    m0, x0, _ = workloads._memory_build(0)
    m1, x1, _ = workloads._memory_build(1)
    assert not np.array_equal(x0, x1) and not np.array_equal(m0.parents, m1.parents)
    e0, ids0 = workloads._encode_build(0, "f32")
    e1, ids1 = workloads._encode_build(1, "f32")
    assert not np.array_equal(ids0, ids1)
    assert not np.array_equal(e0.params.token_emb, e1.params.token_emb)
    _, train0, eval0, _ = workloads._finetune_build(0)
    _, train1, eval1, _ = workloads._finetune_build(1)
    assert [ex.text for ex in train0] != [ex.text for ex in train1]
    assert [ex.text for ex in train0] != [ex.text for ex in eval0]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = run_bench("memory-wide", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
