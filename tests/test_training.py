import hashlib
import math

import numpy as np
import pytest

import reference
from spartan import bench, training as training_mod
from spartan.backbone import (
    BackboneConfig,
    Model,
    classify_forward,
    init_backbone,
    iter_named_tensors,
    make_plugin,
    tokenize,
)
from spartan.data import SyntheticTopicTask, generate_topic_dataset
from spartan.memory import SpartanConfig
from spartan.numerics import MacCounter, ParameterError, make_rng
from spartan.training import (
    EPSILON,
    NumericalError,
    TrainConfig,
    adam_step,
    compute_batch_gradients,
    cross_entropy_batch,
    evaluate,
    init_optimizer,
    train,
    write_metrics_csv,
)

CFG = BackboneConfig(d=64, layers=2, heads=2, ffn_dim=128, vocab_hash_buckets=2048, max_seq_len=16)


def make_model(seed=1, kind="spartan", num_labels=4, cfg=CFG):
    rng = make_rng(seed)
    params = init_backbone(cfg, num_labels, rng)
    plugin = make_plugin(kind, cfg, rng,
                         spartan_cfg=SpartanConfig(d=cfg.d, num_parents=8,
                                                   children_per_parent=2, top_k=4))
    return Model(cfg, params, plugin)


def small_task(noise=0.05, per_topic=100):
    return SyntheticTopicTask(num_topics=4, examples_per_topic=per_topic,
                              words_per_example=8, noise_rate=noise)


def model_checksums(model, only_frozen=True):
    out = {}
    for name, arr, trainable in iter_named_tensors(model):
        if only_frozen and trainable:
            continue
        out[name] = hashlib.sha256(arr.tobytes()).hexdigest()
    return out


def cross_entropy(logits, label):
    """cross_entropy_batch on one row: (loss, d_logits)."""
    losses, d = cross_entropy_batch(np.asarray(logits)[None, :], np.array([label]))
    return losses[0], d[0]


class TestCrossEntropy:
    def test_uniform_logits_give_log_label_count(self):
        loss, _ = cross_entropy(np.zeros(4), 2)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_confident_correct_logit_drives_loss_to_zero(self):
        loss, _ = cross_entropy(np.array([40.0, 0.0]), 0)
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(0)
        logits = rng.normal(size=5)
        label = 3
        _, grad = cross_entropy(logits, label)
        h = 1e-6
        for j in range(5):
            bumped = logits.copy()
            bumped[j] += h
            f1, _ = cross_entropy(bumped, label)
            bumped[j] -= 2 * h
            f2, _ = cross_entropy(bumped, label)
            assert abs(grad[j] - (f1 - f2) / (2 * h)) <= 1e-8

    def test_batch_matches_single(self):
        rng = make_rng(1)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        losses, grads = cross_entropy_batch(logits, labels)
        for i in range(6):
            l, g = reference.cross_entropy(logits[i], labels[i])
            assert abs(losses[i] - l) <= 1e-12
            assert np.max(np.abs(grads[i] - g)) <= 1e-12


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        model = make_model(2)
        opt = init_optimizer(model)
        before = {n: a.copy() for n, a, t in iter_named_tensors(model) if t}
        grads = {n: np.zeros_like(a) for n, a, t in iter_named_tensors(model) if t}
        adam_step(opt, model, grads, TrainConfig(learning_rate=0.1))
        for name, arr, trainable in iter_named_tensors(model):
            if trainable:
                assert np.array_equal(arr, before[name])

    def test_single_step_matches_closed_form(self):
        # one step from zero state: update = lr * g / (|g| + eps)
        model = make_model(3)
        opt = init_optimizer(model)
        cfg = TrainConfig(learning_rate=0.01)
        before = {n: a.copy() for n, a, t in iter_named_tensors(model) if t}
        grads = {n: make_rng(hash(n) % 2**32).normal(size=a.shape)
                 for n, a, t in iter_named_tensors(model) if t}
        adam_step(opt, model, grads, cfg)
        for name, arr, trainable in iter_named_tensors(model):
            if not trainable:
                continue
            g = grads[name]
            expect = before[name] - cfg.learning_rate * g / (np.abs(g) + EPSILON)
            assert np.max(np.abs(arr - expect)) <= 1e-12

    def test_two_runs_identical(self):
        results = []
        for _ in range(2):
            model = make_model(4)
            task = small_task(per_topic=10)
            data = generate_topic_dataset(task, make_rng(5))
            train(model, data, TrainConfig(steps=5, batch_size=8, seed=6))
            results.append({n: a.copy() for n, a, t in iter_named_tensors(model) if t})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])


class TestCounterPassThrough:
    """A MAC counter handed to compute_batch_gradients tallies the plugin
    forward of every layer and changes no result. The top layer runs on one
    row per sequence, the lower ones on every position."""

    SHAPES = dict(d=32, layers=2, heads=2, ffn_dim=48, num_parents=8, children_per_parent=2,
                  top_k=4, bottleneck=8, vocab_hash_buckets=256, seq_len=8)

    def batch(self, cfg):
        rng = make_rng(5)
        lengths = (3, 8, 5, 8, 3, 1)  # three length groups, so three forwards
        token_lists = [rng.integers(0, cfg.vocab_hash_buckets, size=n) for n in lengths]
        return token_lists, rng.integers(0, cfg.num_labels, size=len(lengths))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("arch", bench.ARCHITECTURES)
    def test_counter_changes_no_result_and_counts_every_layer(self, arch, precision):
        cfg = bench.BenchConfig(architecture=arch, precision=precision, **self.SHAPES)
        model = bench.build_bench_model(cfg, make_rng(4))
        token_lists, labels = self.batch(cfg)
        loss, grads = compute_batch_gradients(model, token_lists, labels)
        counter = MacCounter()
        counted_loss, counted_grads = compute_batch_gradients(model, token_lists, labels, counter)
        assert counted_loss.tobytes() == loss.tobytes()
        assert list(counted_grads) == list(grads)
        for name, g in grads.items():
            assert counted_grads[name].dtype == g.dtype == model.params.head_weight.dtype
            assert counted_grads[name].tobytes() == g.tobytes(), name
        rows = sum(len(ids) for ids in token_lists) * (cfg.layers - 1) + len(token_lists)
        assert counter.rows == rows
        assert counter.total == reference.count_macs(
            arch, cfg.d, cfg.num_parents, cfg.children_per_parent, cfg.top_k,
            cfg.bottleneck) * rows


class TestTrainLoop:
    def test_zero_steps_changes_nothing(self):
        model = make_model(7)
        before = model_checksums(model, only_frozen=False)
        data = generate_topic_dataset(small_task(per_topic=5), make_rng(8))
        result = train(model, data, TrainConfig(steps=0))
        assert result.history == []
        assert model_checksums(model, only_frozen=False) == before

    def test_zero_learning_rate_changes_nothing(self):
        model = make_model(9)
        before = model_checksums(model, only_frozen=False)
        data = generate_topic_dataset(small_task(per_topic=5), make_rng(10))
        result = train(model, data, TrainConfig(steps=5, learning_rate=0.0, batch_size=4))
        assert len(result.history) == 5
        assert model_checksums(model, only_frozen=False) == before

    def test_frozen_tensors_never_move(self):
        model = make_model(11)
        before = model_checksums(model)
        data = generate_topic_dataset(small_task(per_topic=20), make_rng(12))
        train(model, data, TrainConfig(steps=25, batch_size=8, seed=13))
        assert model_checksums(model) == before

    def test_unselected_parent_rows_get_zero_raw_gradient(self):
        model = make_model(14)
        data = generate_topic_dataset(small_task(per_topic=10), make_rng(15))
        # two sequences: their two top-layer rows leave some parents unselected
        token_lists = [tokenize(ex.text, model.cfg) for ex in data[:2]]
        labels = np.asarray([ex.label for ex in data[:2]])
        # nonzero head so gradient actually reaches the plugins
        model.params.head_weight[...] = make_rng(16).normal(0, 0.2,
                                                            model.params.head_weight.shape)
        for (sp,) in model.plugin.layers:
            sp.child_values[...] = make_rng(17).normal(0, 0.2, sp.child_values.shape)
        _, grads = compute_batch_gradients(model, token_lists, labels)

        # the selections of the step's own forward: same length by construction
        _, (bundle, _) = classify_forward(model, np.stack(token_lists), collect=True)
        unselected = 0
        for l in range(model.cfg.layers):
            (ptrace,) = bundle[l][4]
            ever = set(np.unique(ptrace.selected).tolist())
            never = [i for i in range(8) if i not in ever]
            unselected += len(never)
            for i in never:
                assert np.all(grads[f"plugin.layer{l}.parents"][i] == 0.0)
                assert np.all(grads[f"plugin.layer{l}.child_keys"][i] == 0.0)
                assert np.all(grads[f"plugin.layer{l}.child_values"][i] == 0.0)
        assert unselected > 0

    def test_nonfinite_loss_aborts_with_step_number(self):
        # max-subtracted softmaxes keep ordinary divergence finite, so inject
        # the failure at a tensor every forward pass reads
        model = make_model(18)
        model.params.pos_emb[0, 0] = np.nan
        data = generate_topic_dataset(small_task(per_topic=10), make_rng(19))
        with pytest.raises(NumericalError, match=r"step 0"):
            train(model, data, TrainConfig(steps=5, batch_size=4))

    def test_nonfinite_gradient_aborts_before_update(self, monkeypatch):
        # a finite loss with a NaN gradient must stop the run before adam_step
        compute, adam = training_mod.compute_batch_gradients, training_mod.adam_step
        steps, updates = [], []

        def poisoned(model, token_lists, labels):
            loss, grads = compute(model, token_lists, labels)
            if len(steps) == 2:
                grads["plugin.layer1.child_values"][0, 0, 0] = np.nan
            steps.append(loss)
            return loss, grads

        monkeypatch.setattr(training_mod, "compute_batch_gradients", poisoned)
        monkeypatch.setattr(training_mod, "adam_step", lambda *args: updates.append(adam(*args)))
        model = make_model(18)
        data = generate_topic_dataset(small_task(per_topic=10), make_rng(19))
        with pytest.raises(NumericalError, match=r"plugin\.layer1\.child_values at step 2"):
            train(model, data, TrainConfig(steps=5, batch_size=4))
        assert np.isfinite(steps).all() and len(updates) == 2

    def test_loss_window_means_non_increasing(self):
        # 50-step disjoint window means over the first 500 steps, seed-fixed
        model = make_model(1)
        data = generate_topic_dataset(small_task(), make_rng(100))
        result = train(model, data, TrainConfig(steps=500, seed=3))
        losses = np.array([r["loss"] for r in result.history])
        windows = [losses[i:i + 50].mean() for i in range(0, 500, 50)]
        assert all(b <= a for a, b in zip(windows, windows[1:]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ParameterError):
            train(make_model(20), [], TrainConfig(steps=1))

    def test_negative_step_count_rejected(self):
        with pytest.raises(ParameterError, match="steps"):
            TrainConfig(steps=-1)


class TestEvaluate:
    def test_perfect_head_on_separable_data(self):
        model = make_model(21, kind="none", num_labels=2)
        data = [type(d)(text=d.text, label=d.label) for d in
                generate_topic_dataset(SyntheticTopicTask(num_topics=2, examples_per_topic=20,
                                                          noise_rate=0.0), make_rng(22))]
        train(model, data, TrainConfig(steps=60, batch_size=8, seed=23, learning_rate=1e-2))
        assert evaluate(model, data) == 1.0

    def test_constant_predictor_on_balanced_labels(self):
        model = make_model(24, kind="none")  # zero head: all logits equal, argmax -> label 0
        data = generate_topic_dataset(small_task(per_topic=25), make_rng(25))
        assert evaluate(model, data) == pytest.approx(0.25)

    def test_reproducible(self):
        model = make_model(26)
        data = generate_topic_dataset(small_task(per_topic=10), make_rng(27))
        assert evaluate(model, data) == evaluate(model, data)

    @pytest.mark.parametrize("max_positions", [1, 40])
    def test_forwards_stay_within_eval_positions(self, monkeypatch, max_positions):
        model = make_model(28)
        data = generate_topic_dataset(small_task(per_topic=10), make_rng(29))
        train(model, data, TrainConfig(steps=20, batch_size=8, seed=30, learning_rate=1e-2))
        monkeypatch.setattr(training_mod, "EVAL_POSITIONS", 10**9)
        whole = evaluate(model, data)
        shapes, forward = [], training_mod.classify_forward

        def spy(model, ids, **kwargs):
            shapes.append(ids.shape)
            return forward(model, ids, **kwargs)

        monkeypatch.setattr(training_mod, "classify_forward", spy)
        monkeypatch.setattr(training_mod, "EVAL_POSITIONS", max_positions)
        assert evaluate(model, data) == whole
        assert sum(b for b, _ in shapes) == len(data)
        assert all(b * s <= max_positions or b == 1 for b, s in shapes)


class TestMetricsCsv:
    def test_writes_step_and_loss_per_record(self, tmp_path):
        history = [{"step": 0, "loss": 1.5}, {"step": 1, "loss": 1.2}]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, history)
        assert path.read_text().splitlines() == ["step,loss", "0,1.5", "1,1.2"]
