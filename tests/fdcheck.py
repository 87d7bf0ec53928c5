"""Central finite-difference gradient checking shared by the test modules.

Relative error uses max(|analytic|, |numeric|, floor) in the denominator; the
floor keeps near-zero entries from amplifying the FD noise floor (about
1e-10 at step 1e-5 in float64) into spurious relative errors.
"""

import numpy as np

from spartan.memory import SpartanConfig, SpartanLayerParams, init_params
from spartan.numerics import make_rng

FD_STEP = 1e-5
REL_FLOOR = 1e-4


def central_diff(loss_fn, arr, h=FD_STEP):
    """FD gradient of the scalar loss_fn() w.r.t. every entry of arr.

    arr is perturbed in place and restored; loss_fn must read it afresh.
    """
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        f_plus = loss_fn()
        flat[j] = orig - h
        f_minus = loss_fn()
        flat[j] = orig
        gflat[j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric, floor=REL_FLOOR):
    a = np.asarray(analytic)
    n = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def sample_spartan_instance(seed, cfg: SpartanConfig, value_scale=0.5, tie_margin=1e-4,
                            positions=None):
    """Random params and an input, resampled away from top-K tie boundaries.

    The input is one position (d,), or (positions, d) when positions is given.
    The layer is non-differentiable where the K-th and (K+1)-th parent
    probabilities meet, so instances where any position has a gap below
    tie_margin are rejected.
    """
    rng = make_rng(seed)
    shape = cfg.d if positions is None else (positions, cfg.d)
    for _ in range(200):
        params = init_params(cfg, rng)
        params.child_values[...] = rng.normal(0.0, value_scale, params.child_values.shape)
        x = rng.normal(0.0, 1.0, shape)
        probs = -np.sort(-np.atleast_2d(_parent_probs(params, x)), axis=-1)
        if cfg.top_k == cfg.num_parents or \
                (probs[:, cfg.top_k - 1] - probs[:, cfg.top_k] > tie_margin).all():
            return params, x
    raise AssertionError("could not sample an instance away from tie boundaries")


def _parent_probs(params: SpartanLayerParams, x):
    """Softmax over parents of one position (d,) or of each row of (T, d)."""
    logits = x @ params.parents.T
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
