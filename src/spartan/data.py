"""Synthetic topic-classification data, JSONL ingestion, and few-shot sampling."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import ParameterError


class DataError(ValueError):
    """Raised for malformed or missing input data."""


_TOPIC_NAMES = ("business", "entertainment", "sports", "politics", "tech")


@dataclass
class Example:
    text: str
    label: int


def default_keyword_pools(num_topics: int) -> list[list[str]]:
    """Disjoint per-topic pools of 12 keywords built from fixed topic stems."""
    pools = []
    for t in range(num_topics):
        stem = _TOPIC_NAMES[t] if t < len(_TOPIC_NAMES) else f"topic{t}"
        pools.append([f"{stem}_{j}" for j in range(12)])
    return pools


@dataclass
class SyntheticTopicTask:
    """Bag-of-keywords topic task: each text draws mostly from its own pool,
    one of `default_keyword_pools(num_topics)`."""

    num_topics: int = 4
    examples_per_topic: int = 100
    words_per_example: int = 10
    noise_rate: float = 0.05

    def __post_init__(self):
        if self.num_topics < 2:
            raise ParameterError(f"num_topics must be >= 2, got {self.num_topics}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ParameterError(f"noise_rate must be in [0, 1), got {self.noise_rate}")


def generate_topic_dataset(task: SyntheticTopicTask, rng: np.random.Generator) -> list[Example]:
    """Label-balanced synthetic dataset, deterministic under the rng seed.

    Each word comes from the example's own topic pool with probability
    1 - noise_rate, otherwise uniformly from some other topic's pool.
    """
    pools = default_keyword_pools(task.num_topics)
    examples = []
    for label in range(task.num_topics):
        own = pools[label]
        other_labels = [t for t in range(task.num_topics) if t != label]
        for _ in range(task.examples_per_topic):
            words = []
            for _ in range(task.words_per_example):
                if task.noise_rate > 0.0 and rng.random() < task.noise_rate:
                    pool = pools[other_labels[rng.integers(len(other_labels))]]
                else:
                    pool = own
                words.append(pool[rng.integers(len(pool))])
            examples.append(Example(text=" ".join(words), label=label))
    return examples


def write_jsonl(path, examples: list[Example]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"text": ex.text, "label": ex.label}) + "\n")


def load_label_manifest(data_path) -> dict[str, int] | None:
    """The labels.json beside a data file, mapping label strings to ids; None
    when there is none. A manifest that is not such a JSON object fails naming
    the file."""
    path = Path(data_path).parent / "labels.json"
    if not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise DataError(f"label manifest {path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in manifest.values()):
        raise DataError(f"label manifest {path}: must map label strings to integer ids")
    return manifest


def load_jsonl(path, label_map: dict[str, int] | None = None) -> list[Example]:
    """One object per line with "text" and "label" fields, order preserved.

    String labels are resolved through a manifest: an explicit label_map
    argument, a sibling labels.json file, or, failing those, a mapping built
    from the sorted distinct labels in the file. Malformed lines fail with
    their line number.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    if label_map is None:
        label_map = load_label_manifest(path)

    raw = []
    # an undecodable byte stays on its line as a lone surrogate, which encode() refuses
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(line)
            except UnicodeEncodeError as exc:
                raise DataError(f"{path} line {lineno}: not valid UTF-8") from exc
            except json.JSONDecodeError as exc:
                raise DataError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
                raise DataError(f'{path} line {lineno}: object must have "text" and "label" fields')
            if not isinstance(obj["text"], str):
                raise DataError(f'{path} line {lineno}: "text" must be a string')
            raw.append((lineno, obj["text"], obj["label"]))

    labels = [lab for _, _, lab in raw]
    if label_map is None and any(isinstance(lab, str) for lab in labels):
        label_map = {lab: i for i, lab in enumerate(sorted({str(l) for l in labels}))}

    examples = []
    for lineno, text, lab in raw:
        if isinstance(lab, bool) or not isinstance(lab, (int, str)):
            raise DataError(f'{path} line {lineno}: "label" must be an integer or string')
        if isinstance(lab, str):
            if lab not in label_map:
                raise DataError(f"{path} line {lineno}: label {lab!r} missing from label manifest")
            lab = label_map[lab]
        examples.append(Example(text=text, label=int(lab)))
    return examples


def few_shot_sample(examples: list[Example], k: int, rng: np.random.Generator) -> list[Example]:
    """k examples without replacement, label-stratified as evenly as possible.

    Per-label counts differ by at most one; which labels receive the remainder
    and which members are taken are both decided by the rng, so a fixed seed
    fixes the sample.
    """
    if k > len(examples):
        raise ParameterError(f"k={k} exceeds dataset size {len(examples)}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    by_label: dict[int, list[int]] = {}
    for idx, ex in enumerate(examples):
        by_label.setdefault(ex.label, []).append(idx)
    labels = sorted(by_label)

    counts = {lab: 0 for lab in labels}
    remaining = {lab: len(by_label[lab]) for lab in labels}
    assigned = 0
    # round-robin in rng-shuffled label order until k slots are filled
    order = [labels[i] for i in rng.permutation(len(labels))]
    while assigned < k:  # k <= len(examples), so each pass assigns a slot
        for lab in order:
            if assigned == k:
                break
            if counts[lab] < remaining[lab]:
                counts[lab] += 1
                assigned += 1

    chosen: list[int] = []
    for lab in labels:
        idxs = by_label[lab]
        take = counts[lab]
        perm = rng.permutation(len(idxs))[:take]
        chosen.extend(idxs[i] for i in perm)
    chosen_order = rng.permutation(len(chosen))
    return [examples[chosen[i]] for i in chosen_order]
