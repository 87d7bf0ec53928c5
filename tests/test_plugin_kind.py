"""A plugin kind is a row of `backbone.PLUGINS` plus a params type.

A toy kind, registered in the table and nowhere else, runs through every
consumer of the table: plugin construction, the training forward and
backward, a training step, the checkpoint, parameter accounting and the
micro bench.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from fdcheck import central_diff, max_rel_err
from spartan import backbone, bench, params, training
from spartan.backbone import (
    BackboneConfig,
    Model,
    PluginKind,
    classify_backward,
    classify_forward,
    init_backbone,
    iter_named_tensors,
    make_plugin,
)
from spartan.checkpoint import load_checkpoint, save_checkpoint
from spartan.data import SyntheticTopicTask, generate_topic_dataset
from spartan.numerics import make_rng

CFG = BackboneConfig(d=8, layers=2, heads=2, ffn_dim=16, vocab_hash_buckets=64, max_seq_len=16)


@dataclass
class ScaleConfig:
    d: int


@dataclass
class ScaleParams:
    """y = x · gain, feature by feature: one (d,) tensor."""

    cfg: ScaleConfig
    gain: np.ndarray

    @staticmethod
    def shapes(cfg: ScaleConfig) -> tuple:
        return (("gain", (cfg.d,), "ones"),)

    def forward(self, x, counter, collect):
        if counter is not None:
            counter.add("scale", x.size)
        return x * self.gain, x if collect else None

    def backward(self, trace, d_out, need_input):
        return d_out * self.gain if need_input else None, {"gain": (d_out * trace).sum(axis=0)}


@pytest.fixture(autouse=True)
def scale_kind(monkeypatch):
    monkeypatch.setitem(backbone.PLUGINS, "scale", PluginKind(ScaleConfig, ScaleParams, 1))


def scale_model(seed=0, num_labels=3):
    """A toy-kind model whose head and gains are drawn, so that every
    trainable tensor gets a gradient from the first step."""
    rng = make_rng(seed)
    model = Model(CFG, init_backbone(CFG, num_labels, rng), make_plugin("scale", CFG, rng))
    model.params.head_weight[...] = rng.standard_normal(model.params.head_weight.shape)
    for (inst,) in model.plugin.layers:
        inst.gain[...] = rng.uniform(0.5, 1.5, inst.gain.shape)
    return model


def test_make_plugin_builds_one_instance_per_layer_from_the_schema():
    spec = make_plugin("scale", CFG, make_rng(1))
    assert spec.kind == "scale"
    assert [len(stack) for stack in spec.layers] == [1] * CFG.layers
    for (inst,) in spec.layers:
        assert inst.cfg == ScaleConfig(d=CFG.d)
        assert np.array_equal(inst.gain, np.ones(CFG.d))


def test_classify_backward_matches_finite_differences():
    model = scale_model(2)
    ids = make_rng(3).integers(0, CFG.vocab_hash_buckets, size=(3, 5))
    logits, state = classify_forward(model, ids, collect=True)
    d_logits = make_rng(4).standard_normal(logits.shape)
    grads = classify_backward(model, state, d_logits)
    assert sorted(grads) == ["head.bias", "head.weight", "plugin.layer0.gain",
                             "plugin.layer1.gain"]
    for l, (inst,) in enumerate(model.plugin.layers):
        numeric = central_diff(lambda: float((classify_forward(model, ids)[0] * d_logits).sum()),
                               inst.gain)
        assert max_rel_err(grads[f"plugin.layer{l}.gain"], numeric) < 1e-6, l


def test_a_training_step_and_a_checkpoint_round_trip(tmp_path):
    model = scale_model(5)
    before = {name: arr.copy() for name, arr, _ in iter_named_tensors(model)}
    task = SyntheticTopicTask(num_topics=3, examples_per_topic=4, words_per_example=6)
    result = training.train(model, generate_topic_dataset(task, make_rng(6)),
                            training.TrainConfig(steps=1, batch_size=4, learning_rate=0.01))
    assert len(result.history) == 1
    for name, arr, trainable in iter_named_tensors(model):
        assert np.array_equal(arr, before[name]) != trainable, name

    path = tmp_path / "scale.ckpt"
    save_checkpoint(path, model, seed=5)
    loaded, meta = load_checkpoint(path)
    assert loaded.plugin.kind == "scale" and meta["config"]["plugin"] == {"kind": "scale",
                                                                         "d": CFG.d}
    saved = list(iter_named_tensors(model))
    assert [name for name, _, _ in iter_named_tensors(loaded)] == [name for name, _, _ in saved]
    for (name, got, _), (_, want, _) in zip(iter_named_tensors(loaded), saved):
        assert got.tobytes() == want.tobytes(), name


def test_params_counts_the_kind_from_its_schema():
    report = params.build_report(CFG, 3, "scale", tasks=2)
    assert report.plugin_kind == "scale"
    assert report.added_params_per_task == CFG.layers * CFG.d
    assert report.total_formula is None  # the closed form models the memory layer only
    assert report.total_enumerated == report.backbone_params + 2 * CFG.layers * CFG.d
    assert report.body_bytes == 8 * (report.backbone_params + report.added_params_per_task
                                     + report.head_params)


def test_micro_bench_counts_the_kind_as_it_runs():
    cfg = bench.BenchConfig(architecture="scale", d=CFG.d, batch_size=4, seq_len=4,
                            warmup_batches=1, measure_seconds=1.0)
    report = bench.run_micro_bench(cfg)
    assert report.instances_per_minute > 0
    assert report.output_dtype == "float32"
    assert report.macs_per_position_per_plugin == CFG.d
    assert report.macs_per_instance == CFG.d * cfg.seq_len
