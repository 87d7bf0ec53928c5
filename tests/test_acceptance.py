"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the lines as they complete.
The two training-based criteria share nothing; each builds its own model so a
failure in one cannot mask the other.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import reference
from fdcheck import central_diff, max_rel_err, sample_spartan_instance
from spartan import analysis as analysis_mod
from spartan import bench as bench_mod
from spartan import params as params_mod
from spartan.adapter import AdapterConfig, AdapterParams, adapter_backward, adapter_forward
from spartan.backbone import (
    BackboneConfig,
    Model,
    encode,
    init_backbone,
    iter_named_tensors,
    make_plugin,
)
from spartan.checkpoint import load_checkpoint, save_checkpoint
from spartan.data import SyntheticTopicTask, generate_topic_dataset
from spartan.memory import SpartanConfig, backward_batch, forward_batch, init_params
from spartan.numerics import MacCounter, init_tensors, make_rng
from spartan.training import TrainConfig, evaluate, train


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"\n[criterion {number:2d}] PASS  {description}")


def randomized_adapter(cfg, seed):
    rng = make_rng(seed)
    params = AdapterParams(cfg, **init_tensors(AdapterParams.shapes(cfg), rng))
    params.up[...] = rng.normal(0.0, 0.5, params.up.shape)
    params.norm_gain[...] = rng.normal(1.0, 0.1, params.norm_gain.shape)
    params.norm_bias[...] = rng.normal(0.0, 0.1, params.norm_bias.shape)
    return params


TASK = SyntheticTopicTask(num_topics=4, examples_per_topic=250,
                          words_per_example=10, noise_rate=0.05)
BACKBONE = BackboneConfig(d=128, layers=4, heads=4, ffn_dim=256,
                          vocab_hash_buckets=4096, max_seq_len=64)


def _train_run(spartan_cfg, steps, seed_group=(1, 2, 3, 100, 101)):
    bb_seed, plugin_seed, train_seed, data_seed, eval_seed = seed_group
    train_set = generate_topic_dataset(TASK, make_rng(data_seed))
    eval_set = generate_topic_dataset(TASK, make_rng(eval_seed))
    params = init_backbone(BACKBONE, TASK.num_topics, make_rng(bb_seed))
    plugin = make_plugin("spartan", BACKBONE, make_rng(plugin_seed), spartan_cfg=spartan_cfg)
    model = Model(BACKBONE, params, plugin)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=16, steps=steps, seed=train_seed)
    start = time.perf_counter()
    train(model, train_set, cfg)
    elapsed = time.perf_counter() - start
    return model, train_set, eval_set, elapsed


@pytest.fixture(scope="module")
def learnability_run():
    # default memory shape, 500 of the allowed 1000 steps
    return _train_run(SpartanConfig(d=128, num_parents=16, children_per_parent=3, top_k=8),
                      steps=500)


@pytest.fixture(scope="module")
def specialization_run():
    # five parents, one child each; top-2 so parent routing receives gradient
    return _train_run(SpartanConfig(d=128, num_parents=5, children_per_parent=1, top_k=2),
                      steps=600)


def test_criterion_01_gradient_correctness():
    with criterion(1, "analytic gradients match central finite differences (<= 1e-6)"):
        start = time.perf_counter()
        scfg = SpartanConfig(d=8, num_parents=4, children_per_parent=2, top_k=2)
        worst = 0.0
        for seed in range(20):
            params, x = sample_spartan_instance(1000 + seed, scfg, positions=4)
            u = make_rng(2000 + seed).normal(size=(4, 8))
            _, trace = forward_batch(params, x, collect_trace=True)
            g = backward_batch(params, trace, u)

            def loss():
                out, _ = forward_batch(params, x)
                return float(np.sum(u * out))

            worst = max(worst,
                        max_rel_err(g.parents, central_diff(loss, params.parents)),
                        max_rel_err(g.child_keys, central_diff(loss, params.child_keys)),
                        max_rel_err(g.child_values, central_diff(loss, params.child_values)),
                        max_rel_err(g.d_input, central_diff(loss, x)))
        assert worst <= 1e-6, f"memory layer worst relative error {worst:.3e}"
        memory_worst = worst

        acfg = AdapterConfig(d=8, bottleneck=4)
        for seed in range(20):
            aparams = randomized_adapter(acfg, 3000 + seed)
            rng = make_rng(4000 + seed)
            ax = rng.normal(size=(1, 8))
            au = rng.normal(size=(1, 8))
            _, tr = adapter_forward(aparams, ax, collect_trace=True)
            ag = adapter_backward(aparams, tr, au)

            def aloss():
                out, _ = adapter_forward(aparams, ax)
                return float(np.sum(au * out))

            for name in ("down", "down_bias", "up", "up_bias", "norm_gain", "norm_bias"):
                err = max_rel_err(getattr(ag, name), central_diff(aloss, getattr(aparams, name)))
                worst = max(worst, err)
            worst = max(worst, max_rel_err(ag.d_input, central_diff(aloss, ax)))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-6, f"adapter worst relative error {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        print(f"\n    worst relative error: memory layer {memory_worst:.1e}, "
              f"both layers {worst:.1e}; {elapsed:.1f}s")


def test_criterion_02_exact_gradient_sparsity():
    with criterion(2, "non-selected parent/child gradients are bitwise zero"):
        start = time.perf_counter()
        scfg = SpartanConfig(d=12, num_parents=6, children_per_parent=2, top_k=2)
        checked = 0
        for seed in range(100):
            # two positions select at most four of the six parents
            params, x = sample_spartan_instance(5000 + seed, scfg, tie_margin=0.0, positions=2)
            _, trace = forward_batch(params, x, collect_trace=True)
            g = backward_batch(params, trace, make_rng(6000 + seed).normal(size=(2, 12)))
            selected = set(trace.selected.ravel().tolist())
            for i in range(scfg.num_parents):
                if i in selected:
                    continue
                assert np.all(g.parents[i] == 0.0)
                assert np.all(g.child_keys[i] == 0.0)
                assert np.all(g.child_values[i] == 0.0)
                checked += 1
        assert checked >= 200, f"only {checked} non-selected parents checked"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def test_criterion_03_identity_at_init():
    with criterion(3, "zero-valued children leave the full encoder unchanged (<= 1e-12)"):
        rng = make_rng(42)
        params = init_backbone(BACKBONE, 4, rng)
        plugged = Model(BACKBONE, params, make_plugin("spartan", BACKBONE, rng))
        bare = Model(BACKBONE, params, make_plugin("none", BACKBONE, rng))
        ids = make_rng(43).integers(0, BACKBONE.vocab_hash_buckets, size=(100, 12))
        h_plug, _ = encode(plugged, ids)
        h_bare, _ = encode(bare, ids)
        assert np.max(np.abs(h_plug - h_bare)) <= 1e-12


def test_criterion_04_dense_oracle_equivalence():
    with criterion(4, "top-K=N forward equals the dense reference; weights equal p/Z (<= 1e-12)"):
        rng = make_rng(77)
        worst_out = worst_w = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 33))
            c = int(rng.integers(1, 4))
            d = int(rng.integers(4, 13))
            dense_cfg = SpartanConfig(d=d, num_parents=n, children_per_parent=c, top_k=n)
            params = init_params(dense_cfg, rng)
            params.child_values[...] = rng.normal(0.0, 0.5, params.child_values.shape)
            x = rng.normal(size=d)
            out, _ = forward_batch(params, x[None, :])
            worst_out = max(worst_out,
                            float(np.max(np.abs(out[0] - reference.dense_forward(params, x)))))
            # restricted weights against the explicit p/Z quotient, sparse K
            k = int(rng.integers(1, n + 1))
            sparse = SpartanConfig(d=d, num_parents=n, children_per_parent=c, top_k=k)
            sp = init_params(sparse, make_rng(int(rng.integers(1 << 30))))
            sp.child_values[...] = rng.normal(0.0, 0.5, sp.child_values.shape)
            _, tr = forward_batch(sp, x[None, :], collect_trace=True)
            p_sel = tr.parent_probs[0, tr.selected[0]]
            worst_w = max(worst_w, float(np.max(np.abs(tr.agg_weights[0] - p_sel / p_sel.sum()))))
        assert worst_out <= 1e-12, f"max output deviation {worst_out:.3e}"
        assert worst_w <= 1e-12, f"max weight deviation {worst_w:.3e}"
        print(f"\n    max deviation: output {worst_out:.1e}, weights {worst_w:.1e}")


def test_criterion_05_compute_sparsity_and_micro_throughput():
    with criterion(5, "MAC counter exact; analytic ratio >= 1.6; micro throughput favors the memory layer"):
        start = time.perf_counter()
        # instrumented counter vs the analytic model, at the stated shapes
        scfg = SpartanConfig(d=768, num_parents=16, children_per_parent=3, top_k=8)
        params = init_params(scfg, make_rng(0))
        counter = MacCounter()
        from spartan.memory import forward_batch
        forward_batch(params, make_rng(1).normal(size=(16, 768)), counter=counter)
        per_position = counter.total // 16
        analytic = reference.count_macs("spartan", 768)
        assert per_position == analytic == 16 * 768 + 2 * 8 * 3 * 768
        adapter_macs = reference.count_macs("adapter", 768, bottleneck=64)
        assert adapter_macs == 98304
        assert adapter_macs / analytic >= 1.6

        shared = dict(batch_size=32, seq_len=32, warmup_batches=1,
                      measure_seconds=1.0, precision="f32", d=768)
        arms = {
            "spartan": bench_mod.BenchConfig(architecture="spartan", **shared),
            "adapter": bench_mod.BenchConfig(architecture="adapter", **shared),
        }
        reports = bench_mod.compare_reports(arms, mode="micro", rounds=5)
        medians = bench_mod.median_throughput(reports)
        elapsed = time.perf_counter() - start
        dtypes = {name: sorted({r.output_dtype for r in runs}) for name, runs in reports.items()}
        blas_threads = {name: sorted({str(r.environment["blas_threads"]) for r in runs})
                        for name, runs in reports.items()}
        env = reports["spartan"][0].environment
        # what the margin rests on: per call, the adapter arm's page faults
        # and system time against none in the memory arm (README)
        def per_call(runs, field):
            return np.median([getattr(r, field) * shared["batch_size"] / r.instances
                              for r in runs])
        print(f"\n    micro medians: spartan {medians['spartan']:.0f}, "
              f"adapter {medians['adapter']:.0f} instances/min "
              f"({medians['spartan'] / medians['adapter']:.2f}x); per call: "
              + ", ".join(f"{name} {per_call(runs, 'minor_faults'):.0f} minor faults, "
                          f"{per_call(runs, 'system_seconds') * 1e3:.2f} ms system"
                          for name, runs in reports.items())
              + f"; output dtypes {dtypes}; "
              f"blas {env['blas']}; blas threads {blas_threads}; "
              f"blas threads env {env['blas_threads_env']}; cores {env['cores']}")
        # the comparison is a float32 one only if both arms ran in float32
        assert dtypes == {"spartan": ["float32"], "adapter": ["float32"]}, dtypes
        assert medians["spartan"] >= medians["adapter"], (
            f"spartan {medians['spartan']:.0f} vs adapter {medians['adapter']:.0f} instances/min")
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_06_k_monotonicity():
    with criterion(6, "plugin-only throughput non-increasing in K (5% noise margin)"):
        start = time.perf_counter()
        ks = (2, 4, 8, 16)
        arms = {
            f"K={k}": bench_mod.BenchConfig(
                architecture="spartan", batch_size=32, seq_len=32,
                warmup_batches=1, measure_seconds=1.0, precision="f32",
                d=768, num_parents=16, children_per_parent=3, top_k=k)
            for k in ks
        }
        medians = bench_mod.median_throughput(bench_mod.compare_reports(arms, mode="micro",
                                                                        rounds=5))
        elapsed = time.perf_counter() - start
        line = ", ".join(f"K={k}: {medians[f'K={k}']:.0f}" for k in ks)
        for prev, nxt in zip(ks, ks[1:]):
            assert medians[f"K={nxt}"] <= medians[f"K={prev}"] * 1.05, line
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
        print(f"\n    {line} instances/min")


def test_criterion_07_learnability(learnability_run):
    with criterion(7, "memory plugin + head reach 0.95 train / 0.90 held-out accuracy"):
        model, train_set, eval_set, elapsed = learnability_run
        train_acc = evaluate(model, train_set)
        eval_acc = evaluate(model, eval_set)
        assert train_acc >= 0.95, f"train accuracy {train_acc:.3f}"
        assert eval_acc >= 0.90, f"held-out accuracy {eval_acc:.3f}"
        assert elapsed < 300.0, f"training took {elapsed:.0f}s, budget 300s"
        print(f"\n    train {train_acc:.3f}, held-out {eval_acc:.3f}, {elapsed:.0f}s")


def test_criterion_08_specialization(specialization_run):
    with criterion(8, "five-parent run: purity >= 0.8, NMI >= 0.3, NMI matches oracle"):
        model, train_set, _, _ = specialization_run
        records = analysis_mod.collect_selections(model, train_set, layer="last")
        stats = analysis_mod.specialization_stats(records)
        best_purity = max(p for p in stats.per_parent_purity if p is not None)
        oracle = reference.nmi_bruteforce(stats.histogram.tolist())
        assert best_purity >= 0.8, f"best parent purity {best_purity:.3f}"
        assert stats.nmi >= 0.3, f"NMI {stats.nmi:.3f}"
        assert abs(stats.nmi - oracle) <= 1e-9
        print(f"\n    best purity {best_purity:.3f}, NMI {stats.nmi:.3f}")


def test_criterion_09_parameter_accounting():
    with criterion(9, "enumeration 1,032,192/task; closed form 1,179,648; gap flagged; stacked = 2x"):
        start = time.perf_counter()
        backbone = BackboneConfig(d=768, layers=12, heads=12, ffn_dim=3072,
                                  vocab_hash_buckets=2048, max_seq_len=128)
        scfg = SpartanConfig(d=768, num_parents=16, children_per_parent=3, top_k=8)
        report = params_mod.build_report(backbone, 2, "spartan", tasks=9, plugin_cfg=scfg)
        assert report.added_params_per_task == 1_032_192
        assert report.formula_added_per_task == 1_179_648
        table = params_mod.render_table(report)
        assert "1,032,192" in table and "1,179,648" in table
        assert "closed form vs enumeration" in table

        acfg = AdapterConfig(d=768, bottleneck=64)
        single = params_mod.build_report(backbone, 2, "adapter", plugin_cfg=acfg)
        double = params_mod.build_report(backbone, 2, "adapterx2", plugin_cfg=acfg)
        assert double.added_params_per_task == 2 * single.added_params_per_task
        assert single.added_params_per_task // backbone.layers == 100_672
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_10_determinism_and_round_trip(tmp_path):
    with criterion(10, "seeded runs are bitwise identical; checkpoints round-trip losslessly"):
        cfg = BackboneConfig(d=16, layers=2, heads=2, ffn_dim=24,
                             vocab_hash_buckets=64, max_seq_len=8)
        for seed in range(20):
            rng = make_rng(seed)
            params = init_backbone(cfg, 3, rng)
            kind = ("spartan", "adapter", "adapterx2", "none")[seed % 4]
            plugin = make_plugin(kind, cfg, rng,
                                 spartan_cfg=SpartanConfig(d=16, num_parents=4,
                                                           children_per_parent=2, top_k=2))
            model = Model(cfg, params, plugin)
            for _, arr, _ in iter_named_tensors(model):
                arr[...] = rng.normal(size=arr.shape)
            path = tmp_path / f"rt{seed}.json"
            save_checkpoint(path, model, seed=seed)
            loaded, _ = load_checkpoint(path)
            for (n1, a1, _), (n2, a2, _) in zip(iter_named_tensors(model),
                                                iter_named_tensors(loaded)):
                assert n1 == n2
                assert np.array_equal(a1, a2), n1

        # identical seeds through the full train-and-save path
        from spartan.cli import main
        from spartan.data import write_jsonl
        data_path = tmp_path / "train.jsonl"
        write_jsonl(data_path, generate_topic_dataset(
            SyntheticTopicTask(num_topics=3, examples_per_topic=8, words_per_example=6),
            make_rng(0)))
        config_path = tmp_path / "config.json"
        config_path.write_text(
            '{"backbone": {"d": 32, "layers": 2, "heads": 2, "ffn_dim": 48,'
            ' "vocab_hash_buckets": 256, "max_seq_len": 16},'
            ' "plugin": {"kind": "spartan", "num_parents": 4,'
            ' "children_per_parent": 2, "top_k": 2},'
            ' "train": {"steps": 5, "batch_size": 4}}')
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["train", "--config", str(config_path), "--data", str(data_path),
                     "--out", str(a), "--seed", "11"]) == 0
        assert main(["train", "--config", str(config_path), "--data", str(data_path),
                     "--out", str(b), "--seed", "11"]) == 0
        assert a.read_bytes() == b.read_bytes()
