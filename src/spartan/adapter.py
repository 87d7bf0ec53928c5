"""Bottleneck adapter baseline: down-project, gelu, up-project, residual,
then layer normalization.

One instance per encoder layer is the single-adapter configuration; the
two-stacked configuration applies two instances in sequence and therefore
carries exactly twice the parameters per layer. The trailing LayerNorm is
deliberate: the sparse memory layer omits normalization, and the speed
comparison between the two depends on that difference, so the baseline keeps
its norm. The norm sits after the residual add.

The six tensors, their shapes and how each starts are declared once, in
`AdapterParams.shapes`; the backbone's schema walk draws fresh instances from
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    MacCounter,
    ShapeError,
    check_counts,
    check_shapes,
    gelu_cached,
    gelu_grad_cached,
    layer_norm,
    layer_norm_backward,
)


@dataclass
class AdapterConfig:
    d: int
    bottleneck: int = 64

    def __post_init__(self):
        check_counts(vars(self), d=1, bottleneck=1)


@dataclass
class AdapterParams:
    cfg: AdapterConfig
    down: np.ndarray       # (b, d)
    down_bias: np.ndarray  # (b,)
    up: np.ndarray         # (d, b)
    up_bias: np.ndarray    # (d,)
    norm_gain: np.ndarray  # (d,)
    norm_bias: np.ndarray  # (d,)

    @staticmethod
    def shapes(cfg: AdapterConfig) -> tuple:
        """The tensor schema: (field, shape, init) in checkpoint order.

        Down projection ~ N(0, 1/d); up projection zero, so the block starts
        as a pure normalize(x) map; the norm starts at identity parameters.
        """
        b, d = cfg.bottleneck, cfg.d
        return (("down", (b, d), 1.0 / np.sqrt(d)), ("down_bias", (b,), "zeros"),
                ("up", (d, b), "zeros"), ("up_bias", (d,), "zeros"),
                ("norm_gain", (d,), "ones"), ("norm_bias", (d,), "zeros"))

    def __post_init__(self):
        check_shapes(self, self.shapes(self.cfg))

    # The plugin interface. Both look adapter_forward/adapter_backward up in
    # this module's globals on every call, so wrappers installed there see them.
    def forward(self, x: np.ndarray, counter: MacCounter | None, collect: bool):
        return adapter_forward(self, x, counter, collect)

    def backward(self, trace: AdapterTrace, d_out: np.ndarray, need_input: bool):
        """(d_input, {field: gradient}) for the schema's tensors; d_input is
        None, and not computed, when need_input is False."""
        g = adapter_backward(self, trace, d_out, need_input)
        return g.d_input, {name: getattr(g, name) for name, _, _ in self.shapes(self.cfg)}


@dataclass
class AdapterTrace:
    x: np.ndarray          # (T, d)
    pre_act: np.ndarray    # (T, b)
    act_cdf: np.ndarray    # (T, b) Gaussian cdf cached by the gelu
    hidden: np.ndarray     # (T, b) gelu output
    ln_cache: tuple


def adapter_forward(params: AdapterParams, x: np.ndarray, counter: MacCounter | None = None,
                    collect_trace: bool = False):
    """normalize(x + up @ gelu(down @ x + down_bias) + up_bias) over the rows
    of a block of positions x (T, d)."""
    cfg = params.cfg
    if x.ndim != 2 or x.shape[1] != cfg.d:
        raise ShapeError(f"input shape {x.shape} incompatible with d={cfg.d}")

    pre = x @ params.down.T + params.down_bias
    hidden, act_cdf = gelu_cached(pre)
    y = x + hidden @ params.up.T + params.up_bias
    out, ln_cache = layer_norm(y, params.norm_gain, params.norm_bias)
    if counter is not None:
        t = x.shape[0]
        counter.add("adapter_down", t * cfg.bottleneck * cfg.d)
        counter.add("adapter_up", t * cfg.bottleneck * cfg.d)
    if not collect_trace:
        return out, None
    return out, AdapterTrace(x=x, pre_act=pre, act_cdf=act_cdf, hidden=hidden, ln_cache=ln_cache)


@dataclass
class AdapterGradients:
    down: np.ndarray
    down_bias: np.ndarray
    up: np.ndarray
    up_bias: np.ndarray
    norm_gain: np.ndarray
    norm_bias: np.ndarray
    d_input: np.ndarray | None


def adapter_backward(params: AdapterParams, trace: AdapterTrace, d_output: np.ndarray,
                     need_input: bool = True) -> AdapterGradients:
    """Exact gradients for all six parameter tensors and the input (T, d).
    With need_input False the input gradient's product and add are skipped
    and d_input is None; the parameter gradients are bitwise the same."""
    if d_output.shape != (trace.x.shape[0], params.cfg.d):
        raise ShapeError(f"d_output shape {d_output.shape} != {(trace.x.shape[0], params.cfg.d)}")

    d_y, d_gain, d_bias = layer_norm_backward(trace.ln_cache, params.norm_gain, d_output,
                                              want_param_grads=True)
    # y = x + hidden @ up.T + up_bias
    g_up = d_y.T @ trace.hidden
    g_up_bias = d_y.sum(axis=0)
    d_hidden = d_y @ params.up
    d_pre = d_hidden * gelu_grad_cached(trace.pre_act, trace.act_cdf)
    g_down = d_pre.T @ trace.x
    g_down_bias = d_pre.sum(axis=0)
    d_x = d_y + d_pre @ params.down if need_input else None
    return AdapterGradients(g_down, g_down_bias, g_up, g_up_bias, d_gain, d_bias, d_x)
