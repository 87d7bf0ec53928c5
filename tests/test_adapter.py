import math

import numpy as np
import pytest

import reference
from fdcheck import central_diff, max_rel_err
from spartan.adapter import (
    AdapterConfig,
    AdapterParams,
    adapter_backward,
    adapter_forward,
)
from spartan.numerics import (
    LN_EPS,
    MacCounter,
    ShapeError,
    gelu_cached,
    gelu_grad_cached,
    init_tensors,
    make_rng,
)


def scalar_loop_adapter(params: AdapterParams, x):
    """Naive oracle: plain Python loops and math.erf, no array ops."""
    d, b = params.cfg.d, params.cfg.bottleneck
    pre = [sum(params.down[i][j] * x[j] for j in range(d)) + params.down_bias[i]
           for i in range(b)]
    hidden = [0.5 * u * (1.0 + math.erf(u / math.sqrt(2.0))) for u in pre]
    y = [x[i] + sum(params.up[i][j] * hidden[j] for j in range(b)) + params.up_bias[i]
         for i in range(d)]
    mu = sum(y) / d
    var = sum((v - mu) ** 2 for v in y) / d
    inv = 1.0 / math.sqrt(var + LN_EPS)
    return [params.norm_gain[i] * (y[i] - mu) * inv + params.norm_bias[i] for i in range(d)]


def init_adapter(cfg, rng):
    """A fresh instance, drawn from the schema as the backbone draws one."""
    return AdapterParams(cfg, **init_tensors(AdapterParams.shapes(cfg), rng))


def randomized_adapter(cfg, seed):
    rng = make_rng(seed)
    params = init_adapter(cfg, rng)
    params.up[...] = rng.normal(0.0, 0.5, params.up.shape)
    params.up_bias[...] = rng.normal(0.0, 0.1, params.up_bias.shape)
    params.norm_gain[...] = rng.normal(1.0, 0.1, params.norm_gain.shape)
    params.norm_bias[...] = rng.normal(0.0, 0.1, params.norm_bias.shape)
    return params, rng


class TestForward:
    def test_zero_up_projection_reduces_to_normalize(self):
        cfg = AdapterConfig(d=8, bottleneck=4)
        params = init_adapter(cfg, make_rng(0))  # up = 0, norm at identity
        x = make_rng(1).normal(size=(1, 8)) * 2 + 0.5
        out, _ = adapter_forward(params, x)
        mu, var = x.mean(), x.var()
        expect = (x - mu) / np.sqrt(var + LN_EPS)
        assert np.max(np.abs(out - expect)) <= 1e-12

    def test_matches_scalar_loop_oracle(self):
        cfg = AdapterConfig(d=4, bottleneck=2)
        params, rng = randomized_adapter(cfg, 2)
        for _ in range(5):
            x = rng.normal(size=(1, 4))
            out, _ = adapter_forward(params, x)
            assert np.max(np.abs(out[0] - scalar_loop_adapter(params, x[0]))) <= 1e-12

    def test_parameter_count_at_default_shapes(self):
        # 768*64*2 + 64 + 768 + 2*768 per instance
        assert reference.adapter_param_count(AdapterConfig(d=768, bottleneck=64)) == 100672

    def test_batch_rows_match_single_positions(self):
        cfg = AdapterConfig(d=6, bottleneck=3)
        params, rng = randomized_adapter(cfg, 3)
        x = rng.normal(size=(10, 6))
        out, _ = adapter_forward(params, x)
        for t in range(10):
            single, _ = adapter_forward(params, x[t:t + 1])
            assert np.max(np.abs(out[t] - single[0])) <= 1e-12

    def test_shape_error(self):
        # a wrong width, or one position without its (T, d) block axis
        params, _ = randomized_adapter(AdapterConfig(d=6, bottleneck=3), 4)
        for shape in ((1, 5), (6,)):
            with pytest.raises(ShapeError):
                adapter_forward(params, np.zeros(shape))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        params, rng = randomized_adapter(AdapterConfig(d=8, bottleneck=4), 5)
        x = rng.normal(size=(1, 8))
        _, trace = adapter_forward(params, x, collect_trace=True)
        g = adapter_backward(params, trace, np.zeros((1, 8)))
        for name in ("down", "down_bias", "up", "up_bias", "norm_gain", "norm_bias", "d_input"):
            assert np.all(getattr(g, name) == 0.0)

    def test_matches_central_finite_differences(self):
        cfg = AdapterConfig(d=8, bottleneck=4)
        params, rng = randomized_adapter(cfg, 6)
        x = rng.normal(size=(1, 8))
        u = rng.normal(size=(1, 8))
        _, trace = adapter_forward(params, x, collect_trace=True)
        g = adapter_backward(params, trace, u)

        def loss():
            out, _ = adapter_forward(params, x)
            return float(np.sum(u * out))

        for name in ("down", "down_bias", "up", "up_bias", "norm_gain", "norm_bias"):
            arr = getattr(params, name)
            assert max_rel_err(getattr(g, name), central_diff(loss, arr)) <= 1e-6, name
        assert max_rel_err(g.d_input, central_diff(loss, x)) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_skipped_input_gradient_leaves_parameter_gradients_bitwise(self, dtype):
        cfg = AdapterConfig(d=8, bottleneck=4)
        p, rng = randomized_adapter(cfg, 7)
        params = AdapterParams(cfg, *(getattr(p, name).astype(dtype)
                                      for name, _, _ in AdapterParams.shapes(cfg)))
        x, u = rng.normal(size=(2, 5, 8)).astype(dtype)
        _, trace = adapter_forward(params, x, collect_trace=True)
        full = adapter_backward(params, trace, u)
        skip = adapter_backward(params, trace, u, need_input=False)
        assert skip.d_input is None
        for need_input in (False, True):
            d_input, grads = params.backward(trace, u, need_input)
            if need_input:
                assert d_input.tobytes() == full.d_input.tobytes()
            else:
                assert d_input is None
            for name, g in grads.items():
                assert g.tobytes() == getattr(full, name).tobytes(), name
                assert getattr(skip, name).tobytes() == g.tobytes(), name

    def test_gelu_gradient_at_zero(self):
        x = np.array([0.0])
        assert gelu_grad_cached(x, gelu_cached(x)[1])[0] == pytest.approx(0.5, abs=1e-15)


class TestStackedConfiguration:
    def test_two_instances_double_the_parameters(self):
        cfg = AdapterConfig(d=32, bottleneck=8)
        single = reference.adapter_param_count(cfg)
        a0 = init_adapter(cfg, make_rng(0))
        a1 = init_adapter(cfg, make_rng(1))
        total = sum(getattr(a, n).size for a in (a0, a1)
                    for n in ("down", "down_bias", "up", "up_bias", "norm_gain", "norm_bias"))
        assert total == 2 * single

    def test_mac_contrast_with_sparse_memory(self):
        # adapter projections vs the memory layer's child-level work at the
        # full-size shapes: 98304 vs 2*K*c*d = 36864 per position
        d, b = 768, 64
        counter = MacCounter()
        params, rng = randomized_adapter(AdapterConfig(d=d, bottleneck=b), 7)
        adapter_forward(params, rng.normal(size=(4, d)), counter=counter)
        adapter_macs = counter.total // 4
        child_macs = 2 * 8 * 3 * d  # K=8 parents, c=3 children, key+value
        assert adapter_macs == 2 * d * b == 98304
        assert child_macs == 36864
        assert adapter_macs >= 1.9 * child_macs
