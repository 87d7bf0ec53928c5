import ctypes
import glob
import json
import os
import threading

import numpy as np
import pytest

from spartan import bench
from spartan.backbone import _plugin_forward
from spartan.bench import (
    ARCHITECTURES,
    BenchConfig,
    build_plugin_spec,
    compare_reports,
    compare_throughput,
    count_macs,
    run_finetune_bench,
    run_inference_bench,
    run_micro_bench,
    write_report_csv,
    write_report_json,
)
from spartan.numerics import MacCounter, ParameterError, make_rng

TINY = dict(d=64, layers=2, heads=2, ffn_dim=96, num_parents=8, children_per_parent=2,
            top_k=4, bottleneck=16, batch_size=8, seq_len=8, warmup_batches=1,
            measure_seconds=1.0, vocab_hash_buckets=256)


class TestAnalyticCosts:
    def test_sparse_memory_at_paper_shapes(self):
        # N*d + 2*K*c*d with N=16, c=3, K=8, d=768
        assert count_macs("spartan", 768) == 16 * 768 + 2 * 8 * 3 * 768 == 49152

    def test_dense_memory_at_paper_shapes(self):
        # top-K = N: the memory layer routing to every parent
        assert count_macs("spartan", 768, top_k=16) == 16 * 768 + 2 * 16 * 3 * 768 == 86016

    def test_adapter_at_paper_shapes(self):
        assert count_macs("adapter", 768, bottleneck=64) == 2 * 768 * 64 == 98304
        assert count_macs("adapterx2", 768, bottleneck=64) == 2 * 98304

    def test_minimal_routing(self):
        n, d = 16, 32
        assert count_macs("spartan", d, num_parents=n, children_per_parent=1, top_k=1) \
            == n * d + 2 * d

    def test_none_is_free(self):
        assert count_macs("none", 768) == 0

    def test_analytic_ratio_gate(self):
        spartan = count_macs("spartan", 768)
        adapter = count_macs("adapter", 768)
        assert adapter / spartan >= 1.6


class TestInstrumentation:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_counter_matches_analytic_model_exactly(self, arch):
        cfg = BenchConfig(architecture=arch, **TINY)
        spec = build_plugin_spec(cfg, 1, make_rng(0))
        t = 24
        x = make_rng(1).standard_normal((t, cfg.d)).astype(np.float32)
        counter = MacCounter()
        _plugin_forward(spec, 0, x, counter, False)
        expect = count_macs(arch, cfg.d, cfg.num_parents, cfg.children_per_parent,
                            cfg.top_k, cfg.bottleneck)
        assert counter.total == t * expect

    def test_counter_is_exact_across_shapes(self):
        for n, c, k in ((4, 1, 1), (8, 2, 3), (16, 3, 8)):
            cfg = BenchConfig(architecture="spartan", **{**TINY, "num_parents": n,
                                                         "children_per_parent": c, "top_k": k})
            spec = build_plugin_spec(cfg, 1, make_rng(2))
            x = make_rng(3).standard_normal((10, cfg.d)).astype(np.float32)
            counter = MacCounter()
            _plugin_forward(spec, 0, x, counter, False)
            assert counter.total == 10 * count_macs("spartan", cfg.d, n, c, k)


class TestRunners:
    def test_micro_report_fields_and_macs(self):
        cfg = BenchConfig(architecture="spartan", **TINY)
        report = run_micro_bench(cfg)
        assert report.instances_per_minute > 0
        assert report.mode == "micro"
        assert report.macs_per_position_per_plugin == count_macs(
            "spartan", cfg.d, cfg.num_parents, cfg.children_per_parent, cfg.top_k)
        assert report.macs_per_instance == report.macs_per_position_per_plugin * cfg.seq_len
        assert report.environment["cores"] >= 1
        assert report.config["batch_size"] == 8

    def test_micro_with_two_worker_threads(self):
        cfg = BenchConfig(architecture="adapter", threads=2, **TINY)
        report = run_micro_bench(cfg)
        assert report.instances_per_minute > 0
        assert report.macs_per_position_per_plugin == count_macs("adapter", cfg.d,
                                                                 bottleneck=cfg.bottleneck)

    @pytest.mark.parametrize("runner", [run_micro_bench, run_inference_bench, run_finetune_bench])
    def test_worker_pool_is_shut_down(self, runner):
        before = threading.active_count()
        runner(BenchConfig(architecture="adapter", threads=2, **{**TINY, "layers": 1}))
        assert threading.active_count() == before

    def test_inference_end_to_end(self):
        cfg = BenchConfig(architecture="spartan", **TINY)
        report = run_inference_bench(cfg)
        assert report.instances_per_minute > 0
        assert report.macs_per_position_per_plugin == count_macs(
            "spartan", cfg.d, cfg.num_parents, cfg.children_per_parent, cfg.top_k)

    def test_finetune_end_to_end(self):
        cfg = BenchConfig(architecture="adapter", **{**TINY, "layers": 1})
        report = run_finetune_bench(cfg)
        assert report.instances_per_minute > 0
        assert report.mode == "finetune"

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_finetune_macs_are_counted(self, arch, threads):
        # the counter runs inside the training step's forward, so the report
        # equals the closed form only if every layer's plugin ran as modeled
        cfg = BenchConfig(architecture=arch, threads=threads, **TINY)
        report = run_finetune_bench(cfg)
        expect = count_macs(arch, cfg.d, cfg.num_parents, cfg.children_per_parent,
                            cfg.top_k, cfg.bottleneck)
        assert report.macs_per_position_per_plugin == expect
        assert report.macs_per_instance == expect * cfg.seq_len * cfg.layers

    def test_finetune_arms_compare_in_interleaved_rounds(self):
        arms = {arch: BenchConfig(architecture=arch, **{**TINY, "layers": 1})
                for arch in ("spartan", "adapter")}
        reports = compare_reports(arms, mode="finetune", rounds=2)
        assert {name: len(runs) for name, runs in reports.items()} == {"spartan": 2,
                                                                       "adapter": 2}
        for name, runs in reports.items():
            assert all(r.mode == "finetune" and r.config["architecture"] == name
                       and r.instances_per_minute > 0 for r in runs)

    def test_unknown_compare_mode_lists_modes(self):
        with pytest.raises(ParameterError, match="finetune"):
            compare_reports({"spartan": BenchConfig(**TINY)}, mode="mystery")

    def test_repeated_runs_agree_within_noise_bound(self):
        # adjacent same-seed measurements; 15% is the accepted timing noise.
        # batch 32 at d=256 gives each window enough work to be stable
        cfg = BenchConfig(architecture="spartan", d=256, batch_size=32, seq_len=32,
                          num_parents=16, children_per_parent=3, top_k=8,
                          warmup_batches=2, measure_seconds=1.5)
        a = run_micro_bench(cfg).instances_per_minute
        b = run_micro_bench(cfg).instances_per_minute
        assert abs(a - b) / max(a, b) <= 0.15

    def test_plugin_free_is_fastest_end_to_end(self):
        # plugin-heavy shapes so the contrast clears timing noise; medians of
        # five interleaved rounds, so that a slow stretch on a shared host
        # must hit three of an arm's rounds to move its median, with a 2%
        # slack for residual drift
        shapes = dict(TINY, d=128, layers=2, ffn_dim=128, num_parents=64,
                      children_per_parent=8, top_k=32, seq_len=16, batch_size=16)
        arms = {
            "none": BenchConfig(architecture="none", **shapes),
            "spartan": BenchConfig(architecture="spartan", **shapes),
            "adapter": BenchConfig(architecture="adapter", **shapes),
        }
        medians = compare_throughput(arms, mode="inference", rounds=5)
        assert medians["none"] >= medians["spartan"] * 0.98
        assert medians["none"] >= medians["adapter"] * 0.98


@pytest.fixture
def blas_threads():
    """Reads the thread count of numpy's bundled OpenBLAS, looked up here
    rather than through the bench. The count is 2 during the test, so that a
    bench that pins one thread and does not restore it shows."""
    paths = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                   "libscipy_openblas64_*.so"))
    if not paths:
        pytest.skip("this numpy bundles no OpenBLAS")
    lib = ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD)
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(2)
    yield get
    set_(before)


class TestBlasThreads:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("runner", [run_micro_bench, run_inference_bench, run_finetune_bench])
    def test_measured_window_runs_one_blas_thread(self, blas_threads, monkeypatch, runner,
                                                  threads):
        seen, measure = [], bench._measure

        def spying_measure(cfg, mode, parts, work, *rest):
            def spying_work(part, counter):
                seen.append(blas_threads())
                return work(part, counter)
            return measure(cfg, mode, parts, spying_work, *rest)

        monkeypatch.setattr(bench, "_measure", spying_measure)
        before = blas_threads()
        report = runner(BenchConfig(architecture="adapter", threads=threads,
                                    **{**TINY, "layers": 1}))
        assert seen and set(seen) == {1}
        assert blas_threads() == before
        assert report.environment["blas_threads"] == 1

    def test_missing_thread_symbols_leave_blas_unpinned(self, monkeypatch):
        monkeypatch.setattr(bench.ctypes, "CDLL", lambda *args, **kwargs: object())
        report = run_micro_bench(BenchConfig(architecture="spartan", **TINY))
        assert report.instances_per_minute > 0
        assert report.environment["blas_threads"] == "unpinned"


class TestReportedDtype:
    @pytest.mark.parametrize("runner, architecture, precision, dtype", [
        (run_micro_bench, "spartan", "f32", "float32"),
        (run_micro_bench, "spartan", "f64", "float64"),
        (run_inference_bench, "adapter", "f32", "float32"),
        (run_finetune_bench, "spartan", "f32", "float32"),
    ])
    def test_output_dtype_is_what_ran(self, runner, architecture, precision, dtype):
        cfg = BenchConfig(architecture=architecture, precision=precision, **{**TINY, "layers": 1})
        report = runner(cfg)
        assert report.output_dtype == dtype
        assert report.environment["blas"]["name"]
        assert set(report.environment["blas_threads_env"]) == {"OPENBLAS_NUM_THREADS",
                                                               "OMP_NUM_THREADS"}


class TestValidation:
    def test_zero_measure_time_rejected(self):
        with pytest.raises(ParameterError):
            BenchConfig(measure_seconds=0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_measure_time_rejected(self, seconds):
        # the timed loop would never end: elapsed >= nan is always false
        with pytest.raises(ParameterError, match="measure_seconds"):
            BenchConfig(measure_seconds=seconds)

    def test_unknown_architecture_lists_valid_values(self):
        with pytest.raises(ParameterError, match="spartan"):
            BenchConfig(architecture="mystery")

    def test_thread_floor(self):
        with pytest.raises(ParameterError):
            BenchConfig(threads=0)


class TestReportFiles:
    def test_json_and_csv_outputs(self, tmp_path):
        cfg = BenchConfig(architecture="spartan", **TINY)
        report = run_micro_bench(cfg)
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        write_report_json(jpath, report)
        write_report_csv(cpath, report)
        payload = json.loads(jpath.read_text())
        assert payload["instances_per_minute"] == report.instances_per_minute
        assert payload["config"]["architecture"] == "spartan"
        lines = cpath.read_text().strip().splitlines()
        assert lines[0].startswith("mode,architecture,instances_per_minute")
        assert len(lines) == 2
