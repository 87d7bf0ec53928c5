"""Dense linear-algebra primitives, shared neural ops, and deterministic randomness.

Vectors are 1-D float ndarrays, matrices 2-D row-major float ndarrays with
explicit dimensions; no broadcasting is relied upon in the public contracts.
Training and verification paths use float64 throughout; the benchmark path may
run in float32, so every op here preserves the dtype of its inputs.

Randomness comes from numpy's PCG64 generator: a fixed, documented 64-bit
statistical PRNG whose draw sequence for a given seed is identical across runs
and platforms. All modules share this single generator type so one seed
reproduces an entire run.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5

# Python floats, not np.float64 scalars: under NEP 50 promotion a numpy
# float64 scalar would turn every float32 operand it touches into float64.
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# rows at most this wide are reduced over a transposed copy: numpy's per-row
# reduction loop is slow on short rows
_NARROW_ROWS = 32


class ShapeError(ValueError):
    """Raised when an operand's dimensions do not match the operation's contract."""


class ParameterError(ValueError):
    """Raised when a scalar argument (count, index, rate) is out of range."""


def check_shapes(obj, schema) -> None:
    """Raise ShapeError unless each (name, shape) of the schema matches obj.name's shape."""
    for name, shape in schema:
        got = getattr(obj, name).shape
        if got != shape:
            raise ShapeError(f"{name} shape {got} != {shape}")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical draw sequences."""
    return np.random.Generator(np.random.PCG64(seed))


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """result[i] = sum_j m[i, j] * v[j]."""
    m = np.asarray(m)
    v = np.asarray(v)
    if m.ndim != 2 or v.ndim != 1:
        raise ShapeError(f"matvec expects matrix and vector, got {m.ndim}-d and {v.ndim}-d")
    if m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec shape mismatch: {m.shape} x {v.shape}")
    return m @ v


def softmax_stable(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax of a vector; output sums to 1 and never overflows."""
    logits = np.asarray(logits)
    if logits.ndim != 1 or logits.shape[0] == 0:
        raise ShapeError(f"softmax_stable expects a nonempty vector, got shape {logits.shape}")
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a 2-D array; each row matches softmax_stable
    of that row to rounding."""
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"softmax_rows expects a nonempty 2-d array, got shape {x.shape}")
    if x.shape[1] <= _NARROW_ROWS:
        z = x.T.copy()
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        return np.ascontiguousarray(z.T)
    z = x - x.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def topk_indices(p: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries; ties broken by lower index; ascending order."""
    p = np.asarray(p)
    if p.ndim != 1:
        raise ShapeError(f"topk_indices expects a vector, got shape {p.shape}")
    if not 1 <= k <= p.shape[0]:
        raise ParameterError(f"k={k} out of range for dimension {p.shape[0]}")
    # stable sort of -p keeps original (lowest-first) order among equal values
    order = np.argsort(-p, kind="stable")[:k]
    return np.sort(order)


def topk_rows(x: np.ndarray, k: int) -> np.ndarray:
    """Row-wise topk_indices for a 2-D array; returns an integer array (rows, k).

    A partition finds each row's k-th largest value and every entry at or
    above it is taken. Rows where that takes more than k entries (a tie
    straddles the cut) or fewer (NaN) are redone with the stable sort that
    topk_indices uses, so ties still go to the lower index.
    """
    if x.ndim != 2:
        raise ShapeError(f"topk_rows expects a 2-d array, got shape {x.shape}")
    n = x.shape[1]
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range for row dimension {n}")
    take = x >= np.partition(x, n - k, axis=1)[:, n - k, None]
    bad = take.sum(axis=1) != k
    if bad.any():
        redo = np.zeros((int(bad.sum()), n), dtype=bool)
        np.put_along_axis(redo, np.argsort(-x[bad], axis=1, kind="stable")[:, :k], True, axis=1)
        take[bad] = redo
    return (np.flatnonzero(take) % n).reshape(x.shape[0], k)


def sample_gaussian(rng: np.random.Generator, n: int, stddev: float) -> np.ndarray:
    """n draws from N(0, stddev^2); stddev 0 gives exact zeros."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if stddev < 0:
        raise ParameterError(f"stddev must be >= 0, got {stddev}")
    return rng.normal(0.0, stddev, size=n)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) gelu."""
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d gelu / dx = Phi(x) + x * phi(x); equals 0.5 at x = 0."""
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def gelu_cached(x: np.ndarray):
    """gelu plus the Gaussian cdf it was built from, for reuse in backward."""
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * cdf, cdf


def gelu_grad_cached(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """gelu_grad given the cdf cached by gelu_cached."""
    return cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LN_EPS):
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    Returns (out, (xhat, inv_std)); the cache feeds layer_norm_backward.
    """
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, (xhat, inv_std)


def layer_norm_backward(cache, gain: np.ndarray, d_out: np.ndarray, want_param_grads: bool = False):
    """Gradient of layer_norm w.r.t. its input, and optionally gain/bias."""
    xhat, inv_std = cache
    d_xhat = d_out * gain
    m1 = d_xhat.mean(axis=-1, keepdims=True)
    m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = inv_std * (d_xhat - m1 - xhat * m2)
    if not want_param_grads:
        return d_x
    axes = tuple(range(d_out.ndim - 1))
    d_gain = (d_out * xhat).sum(axis=axes)
    d_bias = d_out.sum(axis=axes)
    return d_x, d_gain, d_bias


class MacCounter:
    """Tallies multiply-accumulate operations, bucketed by label.

    Forward paths add the exact MAC count of each matrix product they perform,
    so the tally reflects the compute the implementation actually does. Adds
    are lock-guarded so concurrent benchmark workers cannot lose updates.
    """

    def __init__(self):
        self.by_label: dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, label: str, n: int) -> None:
        with self._lock:
            self.by_label[label] = self.by_label.get(label, 0) + int(n)

    @property
    def total(self) -> int:
        return sum(self.by_label.values())

    def get(self, label: str) -> int:
        return self.by_label.get(label, 0)

    def reset(self) -> None:
        self.by_label.clear()
