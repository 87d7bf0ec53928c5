"""Initialization through the tensor schema draws exactly what the
hand-written initializers in reference.py draw, bit for bit: the same tensors,
from the same rng stream, in the same order."""

import numpy as np
import pytest

import reference
from spartan import bench as bench_mod
from spartan.adapter import AdapterConfig
from spartan.backbone import (
    PLUGINS,
    BackboneConfig,
    Model,
    init_backbone,
    iter_named_tensors,
    make_plugin,
    plugin_config,
    plugin_slots,
)
from spartan.memory import SpartanConfig, init_params
from spartan.numerics import init_tensors, make_rng

BACKBONES = (
    BackboneConfig(d=16, layers=2, heads=2, ffn_dim=24, vocab_hash_buckets=64, max_seq_len=12),
    BackboneConfig(d=12, layers=3, heads=3, ffn_dim=20, vocab_hash_buckets=50, max_seq_len=9),
)


def assert_bitwise_equal(got, want):
    """got and want: (name, array) pairs; the same names in the same order,
    and each array the same dtype, shape and bytes."""
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, a), (_, b) in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def named(model):
    return [(name, arr) for name, arr, _ in iter_named_tensors(model)]


@pytest.mark.parametrize("cfg", BACKBONES, ids=("shape0", "shape1"))
@pytest.mark.parametrize("kind", tuple(PLUGINS))
@pytest.mark.parametrize("seed", range(3))
def test_model_matches_hand_written_init(cfg, kind, seed):
    plugin_cfgs = (SpartanConfig(d=cfg.d, num_parents=6, children_per_parent=2, top_k=3),
                   AdapterConfig(d=cfg.d, bottleneck=5))
    rng = make_rng(seed)
    got = Model(cfg, init_backbone(cfg, 3, rng), make_plugin(kind, cfg, rng, *plugin_cfgs))
    rng = make_rng(seed)
    want = Model(cfg, reference.init_backbone(cfg, 3, rng),
                 reference.make_plugin(kind, cfg.layers, plugin_config(kind, cfg.d, *plugin_cfgs),
                                       rng))
    assert_bitwise_equal(named(got), named(want))


@pytest.mark.parametrize("seed", range(3))
def test_memory_init_params_matches_hand_written_init(seed):
    cfg = SpartanConfig(d=10, num_parents=5, children_per_parent=3, top_k=2)
    got, want = init_params(cfg, make_rng(seed)), reference.init_memory(cfg, make_rng(seed))
    fields = ("parents", "child_keys", "child_values")
    assert_bitwise_equal([(f, getattr(got, f)) for f in fields],
                         [(f, getattr(want, f)) for f in fields])


@pytest.mark.parametrize("precision", ("f32", "f64"))
@pytest.mark.parametrize("arch", bench_mod.ARCHITECTURES)
def test_bench_build_matches_hand_written_init(arch, precision):
    cfg = bench_mod.BenchConfig(architecture=arch, precision=precision, seed=3, d=16, layers=2,
                                heads=2, ffn_dim=32, vocab_hash_buckets=64, seq_len=8,
                                num_parents=6, top_k=3, bottleneck=4)
    dtype = np.float32 if precision == "f32" else np.float64

    def cast(pairs):
        return [(name, arr.astype(dtype)) for name, arr in pairs]

    got = bench_mod.build_bench_model(cfg, make_rng(5))
    assert_bitwise_equal(named(got), cast(named(reference.bench_model(cfg, make_rng(5)))))
    spec = bench_mod.build_plugin_spec(cfg, 3, make_rng(6))
    want = reference.bench_plugin_spec(cfg, 3, make_rng(6))
    assert_bitwise_equal([(n, getattr(o, f)) for n, o, f, _ in plugin_slots(spec)],
                         cast((n, getattr(o, f)) for n, o, f, _ in plugin_slots(want)))


def test_fixed_seed_reproduces_sequence():
    schema = (("a", (4, 25), 1.0), ("b", (3,), "zeros"), ("c", (100,), 1.0))
    first, again = init_tensors(schema, make_rng(42)), init_tensors(schema, make_rng(42))
    assert_bitwise_equal(list(first.items()), list(again.items()))


def test_moments_match_law_of_large_numbers():
    draws = init_tensors((("w", (100, 1000), 1.0),), make_rng(7))["w"]
    assert abs(draws.mean()) <= 0.02
    assert abs(draws.std() - 1.0) <= 0.02
