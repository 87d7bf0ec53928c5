"""Parameter-efficient fine-tuning loop: adaptive-moment optimization over the
plugin parameters and classification head, with the backbone left untouched.

Batch gradients are means over examples, so learning rates follow the usual
batch-size conventions. Examples are batched by grouping equal-length token
sequences; grouping only affects speed, not results.
"""

from __future__ import annotations

import csv
import ctypes
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .backbone import Model, classify_backward, classify_forward, iter_named_tensors, tokenize
from .data import Example
from .numerics import MacCounter, ParameterError, check_counts, make_rng

EVAL_POSITIONS = 512  # per inference forward (one sequence at least): bounds its activations


class NumericalError(RuntimeError):
    """Raised when training produces a non-finite loss or gradient, or a model
    with non-finite tensors is about to be saved."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    steps: int = 1000
    few_shot_steps: int = 1000
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        check_counts(vars(self), batch_size=1, steps=0, few_shot_steps=0, seed=0)
        for name, high in (("learning_rate", math.inf), ("weight_decay", math.inf),
                           ("epsilon", math.inf), ("beta1", 1.0), ("beta2", 1.0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0 <= value < high:
                raise ParameterError(f"{name} must be a number in [0, {high}), got {value!r}")


@dataclass
class OptimizerState:
    """First/second moment accumulators for the trainable tensors only."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


@dataclass
class TrainResult:
    history: list = field(default_factory=list)  # dicts: step, loss


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Row-wise cross entropy; returns (per-example losses, per-example d_logits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    se = e.sum(axis=1, keepdims=True)
    p = e / se
    rows = np.arange(logits.shape[0])
    losses = -(z[rows, labels] - np.log(se[:, 0]))
    p[rows, labels] -= 1.0
    return losses, p


def init_optimizer(model: Model) -> OptimizerState:
    trainable = {name: arr for name, arr, t in iter_named_tensors(model) if t}
    return OptimizerState(m={k: np.zeros_like(a) for k, a in trainable.items()},
                          v={k: np.zeros_like(a) for k, a in trainable.items()})


def adam_step(state: OptimizerState, model: Model, grads: dict[str, np.ndarray],
              cfg: TrainConfig) -> None:
    """Bias-corrected adaptive-moment update, in place, trainable tensors only.

    Weight decay, when nonzero, is decoupled from the moment estimates. A
    non-finite moment or parameter raises NumericalError (step is 0-based).
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, arr, trainable in iter_named_tensors(model):
        if not trainable:
            continue
        g = grads[name]
        if g.shape != arr.shape:
            raise ParameterError(f"gradient shape mismatch for {name}: {g.shape} != {arr.shape}")
        m = state.m[name]
        v = state.v[name]
        with np.errstate(all="ignore"):  # an overflow is reported by the check below
            scratch = np.multiply(g, 1.0 - cfg.beta1)
            m *= cfg.beta1
            m += scratch
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - cfg.beta2
            v *= cfg.beta2
            v += scratch
            np.divide(v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += cfg.epsilon
            update = m / bc1
            update /= scratch
            if cfg.weight_decay:
                update += np.multiply(arr, cfg.weight_decay, out=scratch)
            update *= cfg.learning_rate
            arr -= update
        if not (np.isfinite(m).all() and np.isfinite(v).all() and np.isfinite(arr).all()):
            raise NumericalError(f"non-finite Adam moment or update for {name} at step {t - 1}")


# train and evaluate end by returning the heap's free pages to the OS: the share
# glibc trims by itself varies by several MB from run to run. pythonapi holds
# the process's own symbols, glibc's among them; elsewhere this is a no-op.
_malloc_trim = getattr(ctypes.pythonapi, "malloc_trim", lambda pad: 0)


def _group_by_length(token_lists: list[np.ndarray]):
    groups: dict[int, list[int]] = {}
    for i, ids in enumerate(token_lists):
        groups.setdefault(len(ids), []).append(i)
    return [np.asarray(idx) for _, idx in sorted(groups.items())]


def eval_batches(token_lists: list[np.ndarray]):
    """Yield (indices, ids) over equal-length sequences, each ids array holding
    at most EVAL_POSITIONS positions, or one sequence if it is longer."""
    for group in _group_by_length(token_lists):
        rows = max(1, EVAL_POSITIONS // len(token_lists[group[0]]))
        for idx in np.split(group, range(rows, len(group), rows)):
            yield idx, np.stack([token_lists[i] for i in idx])


def compute_batch_gradients(model: Model, token_lists: list[np.ndarray], labels: np.ndarray,
                            counter: MacCounter | None = None):
    """Mean loss and mean gradients over one batch of tokenized examples.

    This is one optimization step's raw gradient, before any moment smoothing,
    which is what the exact-sparsity guarantees are about. A counter, if
    given, tallies the plugin forward's MACs; it changes no result.
    """
    n = len(token_lists)
    total_loss = 0.0
    grads: dict[str, np.ndarray] = {}
    for idx in _group_by_length(token_lists):
        ids = np.stack([token_lists[i] for i in idx])
        logits, state = classify_forward(model, ids, counter=counter, collect=True)
        losses, d_logits = cross_entropy_batch(logits, labels[idx])
        total_loss += losses.sum()
        g = classify_backward(model, state, d_logits)
        for name, val in g.items():
            if name in grads:
                grads[name] += val
            else:
                grads[name] = val
    for name in grads:
        grads[name] /= n
    return total_loss / n, grads


def train(model: Model, dataset: list[Example], cfg: TrainConfig) -> TrainResult:
    """Seed-deterministic fine-tuning of plugin + head on the given dataset.

    Batches walk shuffled epochs; a non-finite loss or gradient aborts before
    the update, naming the step (and the tensor) in the message.
    """
    if not dataset:
        raise ParameterError("dataset must be nonempty")
    rng = make_rng(cfg.seed)
    token_lists = [tokenize(ex.text, model.cfg) for ex in dataset]
    labels = np.asarray([ex.label for ex in dataset])

    opt = init_optimizer(model)
    result = TrainResult()
    order = rng.permutation(len(dataset))
    cursor = 0
    for step in range(cfg.steps):
        take = []
        while len(take) < cfg.batch_size:
            if cursor == len(order):
                order = rng.permutation(len(dataset))
                cursor = 0
            take.append(order[cursor])
            cursor += 1
        batch_idx = np.asarray(take)
        loss, grads = compute_batch_gradients(
            model, [token_lists[i] for i in batch_idx], labels[batch_idx])
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss at step {step}")
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for {name} at step {step}")
        adam_step(opt, model, grads, cfg)
        result.history.append({"step": step, "loss": float(loss)})
    _malloc_trim(0)
    return result


def evaluate(model: Model, dataset: list[Example]) -> float:
    """Fraction of argmax-correct predictions; logit ties go to the lowest label id."""
    if not dataset:
        raise ParameterError("dataset must be nonempty")
    token_lists = [tokenize(ex.text, model.cfg) for ex in dataset]
    labels = np.asarray([ex.label for ex in dataset])
    preds = np.empty(len(dataset), dtype=np.int64)
    for idx, ids in eval_batches(token_lists):
        logits, _ = classify_forward(model, ids, collect=False)
        preds[idx] = np.argmax(logits, axis=1)
    _malloc_trim(0)
    return float(np.mean(preds == labels))


def write_metrics_csv(path, history: list[dict]) -> None:
    """One row of step and loss per history record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["step", "loss"])
        writer.writeheader()
        writer.writerows(history)
