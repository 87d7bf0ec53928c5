import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spartan.data import (
    DataError,
    Example,
    SyntheticTopicTask,
    default_keyword_pools,
    few_shot_sample,
    generate_topic_dataset,
    load_jsonl,
    write_jsonl,
)
from spartan.numerics import ParameterError, make_rng


def keyword_count_classify(task: SyntheticTopicTask, text: str) -> int:
    """Trivial oracle classifier: argmax of per-topic keyword overlap."""
    words = text.split()
    scores = [sum(w in pool for w in words) for pool in default_keyword_pools(task.num_topics)]
    return int(np.argmax(scores))


class TestSyntheticTask:
    def test_noise_free_examples_use_only_own_pool(self):
        task = SyntheticTopicTask(num_topics=3, examples_per_topic=20, noise_rate=0.0)
        pools = default_keyword_pools(task.num_topics)
        for ex in generate_topic_dataset(task, make_rng(0)):
            pool = set(pools[ex.label])
            assert all(w in pool for w in ex.text.split())

    def test_deterministic_under_seed(self):
        task = SyntheticTopicTask(num_topics=4, examples_per_topic=10)
        a = generate_topic_dataset(task, make_rng(7))
        b = generate_topic_dataset(task, make_rng(7))
        assert a == b

    def test_label_balance_is_exact(self):
        task = SyntheticTopicTask(num_topics=5, examples_per_topic=13)
        counts = Counter(ex.label for ex in generate_topic_dataset(task, make_rng(1)))
        assert set(counts.values()) == {13}

    def test_noise_free_task_is_linearly_solvable(self):
        task = SyntheticTopicTask(num_topics=4, examples_per_topic=50, noise_rate=0.0)
        examples = generate_topic_dataset(task, make_rng(2))
        assert all(keyword_count_classify(task, ex.text) == ex.label for ex in examples)

    def test_default_pools_are_disjoint(self):
        pools = default_keyword_pools(5)
        flat = [w for pool in pools for w in pool]
        assert len(flat) == len(set(flat))


class TestJsonl:
    def test_empty_file_gives_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_jsonl(path) == []

    def test_order_preserving_load(self, tmp_path):
        path = tmp_path / "three.jsonl"
        path.write_text(
            '{"text": "a", "label": 0}\n{"text": "b", "label": 1}\n{"text": "c", "label": 0}\n')
        examples = load_jsonl(path)
        assert [ex.text for ex in examples] == ["a", "b", "c"]
        assert [ex.label for ex in examples] == [0, 1, 0]

    def test_missing_label_names_line_two(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "label": 1}\n{"text": "broken"}\n')
        with pytest.raises(DataError, match="line 2"):
            load_jsonl(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "label": 1}\nnot json at all\n')
        with pytest.raises(DataError, match="line 2"):
            load_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="notthere"):
            load_jsonl(tmp_path / "notthere.jsonl")

    def test_round_trip_identity(self, tmp_path):
        examples = [Example("hello world", 0), Example("second line", 2),
                    Example('quotes "and" unicode é', 1)]
        path = tmp_path / "rt.jsonl"
        write_jsonl(path, examples)
        assert load_jsonl(path) == examples

    def test_string_labels_via_manifest_file(self, tmp_path):
        path = tmp_path / "named.jsonl"
        path.write_text('{"text": "a", "label": "sports"}\n{"text": "b", "label": "news"}\n')
        (tmp_path / "labels.json").write_text(json.dumps({"news": 0, "sports": 1}))
        examples = load_jsonl(path)
        assert [ex.label for ex in examples] == [1, 0]

    def test_string_labels_without_manifest_use_sorted_order(self, tmp_path):
        path = tmp_path / "named.jsonl"
        path.write_text('{"text": "a", "label": "zebra"}\n{"text": "b", "label": "ant"}\n')
        examples = load_jsonl(path)
        assert [ex.label for ex in examples] == [1, 0]


class TestFewShot:
    def _balanced(self, per_label=100, labels=4):
        return [Example(f"text {l} {i}", l) for l in range(labels) for i in range(per_label)]

    def test_full_sample_is_a_permutation(self):
        examples = self._balanced(per_label=5, labels=3)
        sample = few_shot_sample(examples, len(examples), make_rng(0))
        assert sorted((ex.text, ex.label) for ex in sample) == \
               sorted((ex.text, ex.label) for ex in examples)

    def test_two_hundred_over_four_labels_gives_fifty_each(self):
        sample = few_shot_sample(self._balanced(), 200, make_rng(1))
        counts = Counter(ex.label for ex in sample)
        assert counts == {0: 50, 1: 50, 2: 50, 3: 50}

    def test_deterministic_under_seed(self):
        examples = self._balanced()
        a = few_shot_sample(examples, 30, make_rng(5))
        b = few_shot_sample(examples, 30, make_rng(5))
        assert a == b

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            few_shot_sample(self._balanced(per_label=2), 100, make_rng(0))

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one(self, k):
        # library callers get this check; the CLI refuses such a k as flags are parsed
        with pytest.raises(ParameterError, match="k must be >= 1"):
            few_shot_sample(self._balanced(per_label=2), k, make_rng(0))

    @given(st.integers(min_value=1, max_value=80), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_stratified_counts_differ_by_at_most_one(self, k, seed):
        examples = self._balanced(per_label=20, labels=4)
        sample = few_shot_sample(examples, k, make_rng(seed))
        assert len(sample) == k
        counts = Counter(ex.label for ex in sample)
        values = [counts.get(l, 0) for l in range(4)]
        assert max(values) - min(values) <= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_uneven_labels_take_the_small_one_whole(self, seed):
        sizes = {0: 2, 1: 10, 2: 10}
        examples = [Example(f"text {l} {i}", l) for l, n in sizes.items() for i in range(n)]
        sample = few_shot_sample(examples, 15, make_rng(seed))
        assert len(sample) == 15
        assert len({ex.text for ex in sample}) == 15
        counts = Counter(ex.label for ex in sample)
        assert counts[0] == 2 and abs(counts[1] - counts[2]) <= 1

    def test_no_replacement(self):
        examples = self._balanced(per_label=10, labels=2)
        sample = few_shot_sample(examples, 15, make_rng(3))
        texts = [ex.text for ex in sample]
        assert len(texts) == len(set(texts))
