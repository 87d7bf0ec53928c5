"""float32 in, float32 out.

Under numpy 2 promotion an np.float64 scalar turns every float32 array it
touches into float64, so a single such constant silently reruns a "float32"
model in float64. These tests pin the dtype through each numerics op, both
plugins, the batched memory layer and the encoder.
"""

import numpy as np
import pytest

from spartan import bench as bench_mod
from spartan.adapter import AdapterConfig, AdapterParams, adapter_backward, adapter_forward
from spartan.backbone import PluginSpec, classify_backward, classify_forward, encode, plugin_slots
from spartan.memory import (
    SpartanConfig,
    SpartanLayerParams,
    backward_batch,
    forward_batch,
    init_params,
)
from spartan.numerics import (
    gelu_cached,
    gelu_grad_cached,
    init_tensors,
    layer_norm,
    make_rng,
    softmax_rows,
)
from spartan.training import cross_entropy_batch

F32 = np.float32


def normal32(rng, *shape):
    return rng.normal(size=shape).astype(F32)


def all_float32(arrays):
    return {np.asarray(a).dtype for a in arrays} == {np.dtype(F32)}


class TestNumericsOps:
    def test_gelu_family(self):
        x = normal32(make_rng(0), 6, 5)
        out, cdf = gelu_cached(x)
        assert all_float32([out, cdf, gelu_grad_cached(x, cdf)])

    def test_gelu_grad_matches_float32_finite_differences(self):
        # float32 end to end: a cdf error of 2.5e-7 at |x| <= 4 on both sides,
        # over 2h = 2^-6, bounds the difference by 1.5e-4; the truncation
        # error h^2/6 times gelu's largest third derivative is below 1e-5
        x = normal32(make_rng(6), 2000)
        h = F32(2 ** -7)
        fd = (gelu_cached(x + h)[0] - gelu_cached(x - h)[0]) / (2 * h)
        grad = gelu_grad_cached(x, gelu_cached(x)[1])
        assert all_float32([fd, grad])
        assert np.abs(grad - fd).max() <= 2e-4

    def test_layer_norm(self):
        x = normal32(make_rng(1), 6, 5)
        out, (xhat, inv_std) = layer_norm(x, np.ones(5, F32), np.zeros(5, F32))
        assert all_float32([out, xhat, inv_std])

    @pytest.mark.parametrize("width", [3, 16, 40])
    def test_softmax_rows(self, width):
        assert all_float32([softmax_rows(normal32(make_rng(2), 7, width))])


class TestPlugins:
    def test_adapter_forward_and_backward(self):
        rng = make_rng(3)
        cfg = AdapterConfig(d=12, bottleneck=4)
        params = AdapterParams(cfg, **init_tensors(AdapterParams.shapes(cfg), rng))
        bench_mod._cast(plugin_slots(PluginSpec("adapter", [(params,)])), F32)
        x = normal32(rng, 9, 12)
        out, trace = adapter_forward(params, x, collect_trace=True)
        grads = adapter_backward(params, trace, normal32(rng, 9, 12))
        assert all_float32([out, trace.pre_act, trace.act_cdf, trace.hidden, *trace.ln_cache])
        assert all_float32(vars(grads).values())

    def test_memory_forward_and_backward(self):
        rng = make_rng(4)
        cfg = SpartanConfig(d=12, num_parents=8, children_per_parent=3, top_k=3)
        p = init_params(cfg, rng)
        p.child_values[...] = rng.normal(size=p.child_values.shape)
        params = SpartanLayerParams(cfg, p.parents.astype(F32), p.child_keys.astype(F32),
                                    p.child_values.astype(F32))
        x = normal32(rng, 40, 12)
        out, trace = forward_batch(params, x, collect_trace=True)
        grads = backward_batch(params, trace, normal32(rng, 40, 12))
        assert all_float32([out, trace.parent_probs, trace.agg_weights]
                           + [g[3] for g in trace.groups])
        assert all_float32(vars(grads).values())


@pytest.mark.parametrize("architecture", ["spartan", "adapter", "adapterx2", "none"])
def test_encode_and_classify_backward_stay_float32(architecture):
    cfg = bench_mod.BenchConfig(architecture=architecture, precision="f32", d=16, layers=2,
                                heads=2, ffn_dim=24, num_parents=6, children_per_parent=2,
                                top_k=3, bottleneck=4, batch_size=3, seq_len=5,
                                vocab_hash_buckets=64)
    rng = make_rng(5)
    model = bench_mod.build_bench_model(cfg, rng)
    ids = rng.integers(0, cfg.vocab_hash_buckets, size=(cfg.batch_size, cfg.seq_len))
    hidden, _, _ = encode(model, ids)
    assert hidden.dtype == F32
    logits, state = classify_forward(model, ids, collect=True)
    _, d_logits = cross_entropy_batch(logits, np.array([0, 1, 0]))
    grads = classify_backward(model, state, d_logits)
    assert logits.dtype == F32
    assert all_float32(grads.values()), {k: v.dtype for k, v in grads.items()}
