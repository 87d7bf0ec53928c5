"""Parent-specialization analysis: which parent does each instance route to,
and how strongly does that choice predict the gold label.

Routing is per position while an instance has one label, so the attribution
convention here reads the routing of the first position, the same position the
first-token classifier pools. Per-parent label histograms plus a normalized
mutual information score make specialization machine-checkable instead of a
plot-only observation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .backbone import Model, encode, tokenize
from .data import Example
from .numerics import ParameterError
from .training import eval_batches


@dataclass
class SelectionRecord:
    example_index: int
    label: int
    layer: int
    argmax_parent: int
    parent_probs: np.ndarray


@dataclass
class SpecializationStats:
    histogram: np.ndarray       # (num_parents, num_labels) selection counts
    nmi: float
    per_parent_purity: list     # majority-label fraction; None for unselected parents
    num_records: int


def resolve_layer(model: Model, layer) -> int:
    if layer == "last":
        return model.cfg.layers - 1
    try:
        idx = int(layer)
    except ValueError:
        raise ParameterError(f'layer must be an index or "last", got {layer!r}') from None
    if not 0 <= idx < model.cfg.layers:
        raise ParameterError(f"layer {idx} out of range [0, {model.cfg.layers})")
    return idx


def collect_selections(model: Model, dataset: list[Example], layer="last") -> list[SelectionRecord]:
    """One record per example: parent probabilities and argmax at the chosen
    layer, read at the first position. Pure read; the model is not touched.
    Forwards run in training.eval_batches' bounded chunks, so a probability
    may differ by a few ulps from a forward of the whole length group.
    `encode`'s routing capture refuses a model without the spartan plugin."""
    if not dataset:
        raise ParameterError("dataset must be nonempty")
    layer_idx = resolve_layer(model, layer)

    token_lists = [tokenize(ex.text, model.cfg) for ex in dataset]
    records: list[SelectionRecord | None] = [None] * len(dataset)
    for idxs, ids in eval_batches(token_lists):
        _, routing = encode(model, ids, capture_routing=True)
        probs = routing[layer_idx]                         # (B, N)
        arg = probs.argmax(axis=1)                         # ties -> lowest index
        for row, i in enumerate(idxs):
            records[i] = SelectionRecord(
                example_index=int(i),
                label=dataset[i].label,
                layer=layer_idx,
                argmax_parent=int(arg[row]),
                parent_probs=probs[row].copy(),
            )
    return records


def nmi_from_contingency(table: np.ndarray) -> float:
    """Normalized mutual information of a joint-count table.

    Arithmetic-mean normalization: 2*I / (H_rows + H_cols), natural log.
    Zero if either marginal carries no information.
    """
    table = np.asarray(table, dtype=np.float64)
    n = table.sum()
    if n <= 0:
        raise ParameterError("contingency table must contain counts")
    pij = table / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    nz = pij > 0
    outer = np.outer(pi, pj)
    info = float((pij[nz] * np.log(pij[nz] / outer[nz])).sum())
    h_i = float(-(pi[pi > 0] * np.log(pi[pi > 0])).sum())
    h_j = float(-(pj[pj > 0] * np.log(pj[pj > 0])).sum())
    if h_i == 0.0 or h_j == 0.0:
        return 0.0
    return 2.0 * info / (h_i + h_j)


def specialization_stats(records: list[SelectionRecord]) -> SpecializationStats:
    """Per-parent label histogram and parent-label NMI over selection records."""
    if not records:
        raise ParameterError("records must be nonempty")
    num_parents = records[0].parent_probs.shape[0]
    num_labels = max(r.label for r in records) + 1
    table = np.zeros((num_parents, num_labels), dtype=np.int64)
    for r in records:
        table[r.argmax_parent, r.label] += 1
    purity = []
    for row in table:
        total = row.sum()
        purity.append(float(row.max() / total) if total else None)
    return SpecializationStats(
        histogram=table,
        nmi=nmi_from_contingency(table),
        per_parent_purity=purity,
        num_records=len(records),
    )


def write_selection_csv(path, records: list[SelectionRecord]) -> None:
    """example_id, label, layer, argmax_parent, p_0..p_{N-1}."""
    n = records[0].parent_probs.shape[0]
    fields = ["example_id", "label", "layer", "argmax_parent"] + [f"p_{i}" for i in range(n)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for r in records:
            writer.writerow([r.example_index, r.label, r.layer, r.argmax_parent]
                            + [repr(float(p)) for p in r.parent_probs])


def write_summary_json(path, stats: SpecializationStats) -> None:
    payload = {
        "num_records": stats.num_records,
        "nmi": stats.nmi,
        "per_parent_purity": stats.per_parent_purity,
        "histogram": stats.histogram.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
