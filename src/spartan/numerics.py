"""Dense linear-algebra primitives, shared neural ops, and deterministic randomness.

Vectors are 1-D float ndarrays, matrices 2-D row-major float ndarrays with
explicit dimensions; no broadcasting is relied upon in the public contracts.
Training and verification paths use float64 throughout; the benchmark path may
run in float32, so every op here preserves the dtype of its inputs. gelu is the
erf form: float64 input uses scipy's erf, float32 input a float32 rational
approximation within 5e-7 of the exact erf, computed in numpy array passes
rather than scipy's per-element loop. scipy is imported on the first float64
gelu, not with this module, so a float32-only process never loads it. No
function here writes into its arguments or into arrays it returned earlier:
in-place passes touch only arrays the function allocated, and each does the
same IEEE operations in the same order as the plain expression it stands for,
so results are bitwise those of that expression.

Randomness comes from numpy's PCG64 generator: a fixed, documented 64-bit
statistical PRNG whose draw sequence for a given seed is identical across runs
and platforms. All modules share this single generator type so one seed
reproduces an entire run.
"""

from __future__ import annotations

import numbers

import numpy as np

LN_EPS = 1e-5

# Python floats, not np.float64 scalars: under NEP 50 promotion a numpy
# float64 scalar would turn every float32 operand it touches into float64.
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# erf(x) = x P(x^2) / Q(x^2) in float32 on [-4, 4], where erf rounds to +-1;
# the coefficients of Eigen's generic_fast_erf_float, highest power first.
_ERF32_NUM = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
              -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
              -1.60960333262415e-02)
_ERF32_DEN = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
              -7.37332916720468e-03, -1.42647390514189e-02)
_ERF32_CLAMP = 4.0
# elements per block of _erf32: a block's ~25 passes and its two scratch
# buffers stay in a core's L2 cache; unblocked, a (256, 1024) array ran about
# 2x slower on a 2-core x86 host
_ERF32_BLOCK = 1 << 16

# rows at most this wide are reduced over a transposed copy: numpy's per-row
# reduction loop is slow on short rows
_NARROW_ROWS = 32


class ShapeError(ValueError):
    """Raised when an operand's dimensions do not match the operation's contract."""


class ParameterError(ValueError):
    """Raised when a scalar argument (count, index, rate) is out of range."""


class UsageError(ValueError):
    """Raised when a flag or a config field is unknown, mistyped or inconsistent."""


def check_shapes(obj, schema) -> None:
    """Raise ShapeError unless each (name, shape, init) of the schema matches obj.name's shape."""
    for name, shape, _ in schema:
        got = getattr(obj, name).shape
        if got != shape:
            raise ShapeError(f"{name} shape {got} != {shape}")


def check_counts(values: dict, **minimums) -> None:
    """Raise ParameterError unless each named entry of values (a config's
    vars() or a parsed JSON object) is an integer, not a bool, of at least its
    minimum."""
    for name, low in minimums.items():
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical draw sequences."""
    return np.random.Generator(np.random.PCG64(seed))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise max-subtracted softmax of a nonempty 2-D array; each row sums
    to 1 and never overflows."""
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


def topk_rows(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k largest entries, ascending; ties go to the
    lower index. Returns an integer array (rows, k).

    A partition finds each row's k-th largest value and every entry at or
    above it is taken. Rows where that takes more than k entries (a tie
    straddles the cut) or fewer (NaN) are redone with a stable sort, so ties
    still go to the lower index.
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


_FILLS = {"zeros": np.zeros, "ones": np.ones}


def init_tensors(schema, rng: np.random.Generator) -> dict:
    """{field: array} for a (field, shape, init) schema, drawn from rng in
    schema order. init is a Gaussian standard deviation, or "zeros" or "ones"
    for a constant fill that draws nothing."""
    return {name: _FILLS[init](shape) if isinstance(init, str)
            else rng.normal(0.0, init, size=shape)
            for name, shape, init in schema}


def _horner(x2: np.ndarray, coeffs, out: np.ndarray) -> np.ndarray:
    """The polynomial with coeffs (highest power first) at x2, written to out."""
    np.multiply(x2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x2
    out += coeffs[-1]
    return out


def _erf32(x: np.ndarray) -> np.ndarray:
    """erf of a float32 array, in float32 with no float64 temporaries.

    Within 5e-7 of the exact value, odd bit for bit, in [-1, 1]; +-inf give
    +-1 and NaN stays NaN. The array is worked through in blocks, each pass
    in place.
    """
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    x2_buf = np.empty(min(_ERF32_BLOCK, flat.size), np.float32)
    den_buf = np.empty_like(x2_buf)
    for start in range(0, flat.size, _ERF32_BLOCK):
        xs = flat[start:start + _ERF32_BLOCK]
        x2, den = x2_buf[:xs.size], den_buf[:xs.size]
        val = out[start:start + _ERF32_BLOCK]
        np.clip(xs, -_ERF32_CLAMP, _ERF32_CLAMP, out=x2)
        np.square(x2, out=x2)
        _horner(x2, _ERF32_NUM, val)
        # the unclamped x: beyond the clamp |x P / Q| exceeds 1 and is
        # clipped to +-1, where erf rounds in float32
        val *= xs
        val /= _horner(x2, _ERF32_DEN, den)
        np.clip(val, -1.0, 1.0, out=val)
    return out.reshape(x.shape)


def gelu_cached(x: np.ndarray):
    """gelu plus the Gaussian cdf it was built from, for reuse in backward.

    Float32 input takes _erf32; any other dtype scipy's erf, imported here
    on first use (about 0.3 s on a 2-core x86 host).
    """
    if x.dtype == np.float32:
        cdf = _erf32(x / _SQRT2)
        cdf += 1.0
        cdf *= 0.5
    else:
        from scipy.special import erf

        cdf = x / _SQRT2
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
    return x * cdf, cdf


def gelu_grad_cached(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """gelu_grad given the cdf cached by gelu_cached: cdf + x * pdf(x)."""
    grad = np.multiply(x, -0.5)
    grad *= x
    np.exp(grad, out=grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += cdf
    return grad


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize the last axis to zero mean / unit variance (LN_EPS added to
    the variance), then scale and shift.

    Returns (out, (xhat, inv_std)); the cache feeds layer_norm_backward.
    """
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, (xhat, inv_std)


def layer_norm_backward(cache, gain: np.ndarray, d_out: np.ndarray, want_param_grads: bool = False):
    """Gradient of layer_norm w.r.t. its input, and optionally gain/bias."""
    xhat, inv_std = cache
    d_x = d_out * gain  # d_xhat, turned into d_x in place
    m1 = d_x.mean(axis=-1, keepdims=True)
    scratch = d_x * xhat
    m2 = scratch.mean(axis=-1, keepdims=True)
    d_x -= m1
    d_x -= np.multiply(xhat, m2, out=scratch)
    d_x *= inv_std
    if not want_param_grads:
        return d_x
    axes = tuple(range(d_out.ndim - 1))
    d_gain = (d_out * xhat).sum(axis=axes)
    d_bias = d_out.sum(axis=axes)
    return d_x, d_gain, d_bias


class MacCounter:
    """Tallies multiply-accumulate operations, bucketed by label.

    Forward paths add the exact MAC count of each matrix product they perform,
    so the tally reflects the compute the implementation actually does.
    `rows` counts the rows that plugin stacks ran on, once per stack, so
    total / rows is MACs per position per plugin stack. One thread adds to a
    counter; it does no locking.
    """

    def __init__(self):
        self.by_label: dict[str, int] = {}
        self.rows = 0

    def add(self, label: str, n: int) -> None:
        self.by_label[label] = self.by_label.get(label, 0) + int(n)

    @property
    def total(self) -> int:
        return sum(self.by_label.values())

    def get(self, label: str) -> int:
        return self.by_label.get(label, 0)
