"""Sparse hierarchical memory layer: parent routing, child key-value attention,
renormalized aggregation, residual output, and an exact manual backward pass.

The layer holds N parent vectors; an input x routes to its top-K parents by
softmax score, each chosen parent produces a representation by attending over
its own c key-value child rows, and the K representations are combined with
the parent probabilities renormalized over the chosen set. The combined vector
is added back to x. No normalization layer and no logit scaling anywhere.

The renormalized weights p[i]/Z equal a softmax over the selected raw logits
(the global softmax denominator cancels), which is how the forward computes
them: it is immune to underflow of the global denominator, and it makes
gradients w.r.t. non-selected parents exactly zero, not merely small.

There is one implementation, over a block of positions: `forward_batch`
groups positions by which parents of a small block of parents they selected,
so the child work runs as dense products over exactly the selected children.
`backward_batch`, its exact gradient, reuses those groups for the parent
gradient too, so no product in it covers an unselected parent; only the
forward's routing scores every parent. The tests compare both against an
independent per-position reference and against finite differences.

The layer's tensors, their shapes and how each starts are declared once, in
`SpartanLayerParams.shapes`; `init_params` draws a fresh layer from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (
    MacCounter,
    ParameterError,
    ShapeError,
    check_counts,
    check_shapes,
    init_tensors,
    softmax_rows,
    topk_rows,
)


@dataclass
class SpartanConfig:
    d: int
    num_parents: int = 16
    children_per_parent: int = 3
    top_k: int = 8

    def __post_init__(self):
        check_counts(vars(self), d=1, num_parents=1, children_per_parent=1, top_k=1)
        if self.top_k > self.num_parents:
            raise ParameterError(
                f"top_k must satisfy 1 <= K <= num_parents, got K={self.top_k}, N={self.num_parents}"
            )


@dataclass
class SpartanLayerParams:
    """Trainable state: parent matrix (N, d) plus per-parent child key/value (N, c, d)."""

    cfg: SpartanConfig
    parents: np.ndarray
    child_keys: np.ndarray
    child_values: np.ndarray

    @staticmethod
    def shapes(cfg: SpartanConfig) -> tuple:
        """The tensor schema: (field, shape, init) in checkpoint order.

        Parents and child keys start ~ N(0, 1/d); child values at zero, which
        makes the layer an exact identity at initialization: the residual
        passes the input through untouched until training writes to the
        value rows.
        """
        n, c, d = cfg.num_parents, cfg.children_per_parent, cfg.d
        std = 1.0 / np.sqrt(d)
        return (("parents", (n, d), std), ("child_keys", (n, c, d), std),
                ("child_values", (n, c, d), "zeros"))

    def __post_init__(self):
        check_shapes(self, self.shapes(self.cfg))

    # The plugin interface. Both look forward_batch/backward_batch up in this
    # module's globals on every call, so wrappers installed there see them.
    def forward(self, x: np.ndarray, counter: MacCounter | None, collect: bool):
        return forward_batch(self, x, counter, collect)

    def backward(self, trace: BatchTrace, d_out: np.ndarray):
        """(d_input, {field: gradient}) for the schema's tensors."""
        g = backward_batch(self, trace, d_out)
        return g.d_input, {name: getattr(g, name) for name, _, _ in self.shapes(self.cfg)}


@dataclass
class SpartanGradients:
    parents: np.ndarray
    child_keys: np.ndarray
    child_values: np.ndarray
    d_input: np.ndarray


@dataclass
class BatchTrace:
    """What backward_batch needs from a forward_batch over (T, d) positions.

    Per position: the parent softmax, the selected parents (ascending) and
    their renormalized weights. Per pair, in the forward's group order: its
    index t*K + k and its child attention. Per nonempty (block, pattern)
    group, views of those: the child rows of the pattern's parents, the
    group's positions (ascending), and its span of `pair` and `attn`. Child
    value outputs are not stored, which keeps trace memory at O(T*K*c)
    instead of O(T*K*d).
    """

    x: np.ndarray              # (T, d)
    parent_probs: np.ndarray   # (T, N)
    selected: np.ndarray       # (T, K)
    agg_weights: np.ndarray    # (T, K)
    pair: np.ndarray           # (T*K,) pair index t*K + k, group order
    attn: np.ndarray           # (T*K, c) child attention, group order
    groups: list               # (cols, pos, pair, attn (len(pair), c)) per nonempty group
    output: np.ndarray         # (T, d)


def init_params(cfg: SpartanConfig, rng: np.random.Generator) -> SpartanLayerParams:
    """Fresh layer parameters, each tensor started as the schema declares."""
    return SpartanLayerParams(cfg, **init_tensors(SpartanLayerParams.shapes(cfg), rng))


def _block_size(n: int, t: int) -> int:
    """Parents per block: 4 or 2 if the number of (block, pattern) groups,
    ceil(n/b) * (2**b - 1), stays within max(n, t/16), else 1. Fewer, larger
    groups cut gathers; too many groups leave each too few positions to pay
    for its products. In measured float32 forward times (d=768, K=8) b=4 was
    fastest for N=16 from T=512 up (this rule takes it from T=960), b=1 for
    N=256 at T=1024, and b=8 never."""
    for b in (4, 2):
        if -(-n // b) * ((1 << b) - 1) <= max(n, t // 16):
            return b
    return 1


@lru_cache(maxsize=16)
def _pattern_children(n: int, b: int, c: int) -> tuple:
    """Flat child rows (parent*c + j) of the parents in every group key
    (block << b) | pattern, ascending; a slice when they are contiguous, None
    for the empty pattern."""
    groups = []
    for key in range(-(-n // b) << b):
        block, pattern = divmod(key, 1 << b)
        parents = [block * b + j for j in range(b) if pattern >> j & 1 and block * b + j < n]
        if not parents:
            groups.append(None)
        elif parents[-1] - parents[0] == len(parents) - 1:
            groups.append(slice(parents[0] * c, (parents[-1] + 1) * c))
        else:
            groups.append(np.add.outer(np.asarray(parents) * c, np.arange(c)).ravel())
    return tuple(groups)


def _sort_key_dtype(bound: int):
    """Smallest unsigned type for sort keys below `bound`; numpy radix-sorts
    8- and 16-bit keys."""
    return np.uint8 if bound <= 1 << 8 else np.uint16 if bound <= 1 << 16 else np.intp


def forward_batch(params: SpartanLayerParams, x: np.ndarray, counter: MacCounter | None = None,
                  collect_trace: bool = False):
    """Layer forward over a block of positions (T, d), exact and sparse.

    Routing softmax-scores every parent and picks each position's top K,
    ties to the lower index (numerics.topk_rows).
    Parents are then cut into blocks of b (see _block_size), and each
    (position, block) pair with a selected parent joins the group of its
    pattern: the subset of the block's parents it selected. A group gathers
    its positions' rows once for one (G, d) x (d, |pattern|*c) key product,
    so a position is gathered once per block it uses rather than once per
    parent. One softmax covers every child attention. Each group's weighted
    value rows come from one (G, |pattern|*c) x (|pattern|*c, d) product and
    are added onto the residual at the group's positions. Every product
    covers selected children only, and the counter adds each product's
    multiply-adds as it runs: N*d + 2*K*c*d per position. Nothing
    (T*K, d)-sized is built.
    """
    cfg = params.cfg
    n, c, d, K = cfg.num_parents, cfg.children_per_parent, cfg.d, cfg.top_k
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"batch input shape {x.shape} incompatible with d={d}")
    t = x.shape[0]
    dtype = np.result_type(x, params.parents, params.child_keys, params.child_values)

    out = x.astype(dtype, copy=True)
    logits = x @ params.parents.T                      # (T, N)
    probs = softmax_rows(logits)
    selected = topk_rows(probs, K)                     # (T, K)
    w = softmax_rows(np.take_along_axis(logits, selected, axis=1))
    del logits  # (T, N) arrays are large at large N; only the trace keeps probs
    if not collect_trace:
        del probs

    # pair i = t*K + k is (position, selected parent); an entry is a run of
    # pairs with the same position and block, whose pattern has bit j set
    # for parent block*b + j
    b = _block_size(n, t)
    nb = -(-n // b)
    flat = selected.ravel()
    cell = np.arange(t).repeat(K) * nb + flat // b
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    count = np.diff(starts, append=t * K)
    pattern = np.add.reduceat(1 << flat % b, starts) if len(starts) else starts
    # sort entries by block, then pattern, then position
    key = (cell[starts] % nb << b) + pattern
    order = np.argsort(key.astype(_sort_key_dtype(nb << b)), kind="stable")
    bounds = np.zeros((nb << b) + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=nb << b), out=bounds[1:])
    pos = cell[starts[order]] // nb
    # sorted entry e holds pairs first[e]:first[e + 1] of the group order;
    # pair[i] maps group order back to the pair's index t*K + k
    first = np.zeros(len(order) + 1, dtype=np.intp)
    np.cumsum(count[order], out=first[1:])
    pair = np.repeat(starts[order] - first[:-1], count[order]) + np.arange(t * K)

    children = _pattern_children(n, b, c)
    key_rows = params.child_keys.reshape(n * c, d)
    value_rows = params.child_values.reshape(n * c, d)
    # each group's entries lo:hi and pairs a:z, as plain ints: they index faster
    edges, pair_edges = bounds.tolist(), first[bounds].tolist()
    groups = [(cols, lo, hi, a, z)
              for cols, lo, hi, a, z in zip(children, edges, edges[1:], pair_edges, pair_edges[1:])
              if cols is not None and lo < hi]
    key_logits = np.empty((t * K, c), dtype=dtype)
    key_macs = value_macs = 0
    for cols, lo, hi, a, z in groups:
        keys = key_rows[cols]
        np.matmul(x[pos[lo:hi]], keys.T, out=key_logits[a:z].reshape(hi - lo, -1))
        key_macs += (hi - lo) * d * len(keys)
    attn = softmax_rows(key_logits)                    # (T*K, c), pair order
    coef = attn * w.ravel()[pair][:, None]

    for cols, lo, hi, a, z in groups:
        values = value_rows[cols]
        out[pos[lo:hi]] += coef[a:z].reshape(hi - lo, -1) @ values
        value_macs += (hi - lo) * len(values) * d
    if counter is not None:
        counter.add("parent_scores", t * n * d)
        counter.add("child_keys", key_macs)
        counter.add("child_values", value_macs)
    if not collect_trace:
        return out, None
    groups = [(cols, pos[lo:hi], pair[a:z], attn[a:z]) for cols, lo, hi, a, z in groups]
    return out, BatchTrace(x=x, parent_probs=probs, selected=selected, agg_weights=w,
                           pair=pair, attn=attn, groups=groups, output=out)


def backward_batch(params: SpartanLayerParams, trace: BatchTrace, d_out: np.ndarray) -> SpartanGradients:
    """Batched backward; parameter gradients are summed over positions and
    d_input is the full (T, d) activation gradient. It reuses the forward's
    groups: per group, D = d_out_g @ V_cols.T gives every u[t, k] =
    d_out[t] . v[t, k] and child attention gradient. Each pair's parent logit
    gradient rides as a column after its c child key logit gradients: one
    product against the [child keys; parent] rows of the group's parents
    updates d_input, one against x[pos] gives both gradients, as views of one
    (N, c+1, d) buffer; the [child keys; parent] rows are stacked once per
    call. No product covers an unselected parent."""
    cfg = params.cfg
    n, c, d = cfg.num_parents, cfg.children_per_parent, cfg.d
    if d_out.shape != trace.x.shape:
        raise ShapeError(f"d_out shape {d_out.shape} != {trace.x.shape}")
    x, w, pair, attn = trace.x, trace.agg_weights, trace.pair, trace.attn
    value_rows, g_values = params.child_values.reshape(n * c, d), np.zeros_like(params.child_values)
    gv = g_values.reshape(n * c, d)
    rows = np.concatenate((params.child_keys, params.parents[:, None]), axis=1)
    g_rows = np.zeros(rows.shape, dtype=params.child_keys.dtype)  # [child keys; parent] per parent
    # each group's span of the pair rows
    ends = itertools.accumulate(len(g[2]) for g in trace.groups)
    spans = [(cols, pos, slice(z - len(p), z)) for (cols, pos, p, _), z in zip(trace.groups, ends)]
    coef = attn * w.ravel()[pair][:, None]
    d_attn = np.empty_like(coef)                       # D, a row per pair
    for cols, pos, s in spans:
        dg = d_out[pos]
        np.matmul(dg, value_rows[cols].T, out=d_attn[s].reshape(len(pos), -1))
        gv[cols] += coef[s].reshape(len(pos), -1).T @ dg
    u_pairs = np.einsum("ic,ic->i", attn, d_attn)
    u = np.empty_like(w, dtype=u_pairs.dtype)
    u.flat[pair] = u_pairs
    # per pair: its child key logit gradients, then its parent logit gradient
    d_cols = np.empty((len(pair), c + 1), dtype=coef.dtype)
    np.multiply(coef, d_attn - u_pairs[:, None], out=d_cols[:, :c])
    d_cols[:, c] = (w * (u - (u * w).sum(axis=1, keepdims=True))).ravel()[pair]
    d_x = d_out.astype(d_cols.dtype)
    for cols, pos, s in spans:
        parents = slice(cols.start // c, cols.stop // c) if isinstance(cols, slice) else cols[::c] // c
        dl = d_cols[s].reshape(len(pos), -1)
        d_x[pos] += dl @ rows[parents].reshape(-1, d)
        g_rows[parents] += (dl.T @ x[pos]).reshape(-1, c + 1, d)
    return SpartanGradients(g_rows[:, c], g_rows[:, :c], g_values, d_x)
