"""Independent per-row reference for the sparse memory layer.

Written from the layer's definition, not from `spartan.memory`: score every
parent against the row, keep the top K by logit (ties to the lower index),
weight the kept parents by a softmax over their logits, let each kept parent
attend over its own child keys, and add the weighted child values back to the
row. Everything runs in float64 with plain numpy, one row at a time.
"""

from __future__ import annotations

import numpy as np


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def forward_row(parents, child_keys, child_values, top_k: int, x, tie_gap: float = 0.0):
    """Returns (output (d,), selected parent indices ascending, decidable).

    `decidable` is False when the K-th and (K+1)-th largest logits are closer
    than `tie_gap`: an implementation in lower precision may then legitimately
    keep the other parent, so the row cannot be compared.
    """
    parents = np.asarray(parents, dtype=np.float64)
    child_keys = np.asarray(child_keys, dtype=np.float64)
    child_values = np.asarray(child_values, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = parents.shape[0]
    logits = np.array([float(np.dot(parents[i], x)) for i in range(n)])
    ranked = sorted(range(n), key=lambda i: (-logits[i], i))
    selected = np.array(sorted(ranked[:top_k]))
    decidable = top_k == n or logits[ranked[top_k - 1]] - logits[ranked[top_k]] >= tie_gap
    weights = _softmax(logits[selected])
    out = x.copy()
    for w, i in zip(weights, selected):
        attn = _softmax(np.array([float(np.dot(key, x)) for key in child_keys[i]]))
        out += w * (attn @ child_values[i])
    return out, selected, decidable


def sparse_macs_per_position(num_parents: int, children: int, top_k: int, d: int) -> int:
    """Closed form: N*d parent scores plus K*c*d key logits and K*c*d value sums.

    Kept here, not taken from spartan.bench.count_macs, so that the MacCounter
    check does not compare the program against its own formula."""
    return num_parents * d + 2 * top_k * children * d
