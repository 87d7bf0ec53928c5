import csv
import hashlib
import json

import numpy as np
import pytest

import reference
from spartan import analysis as analysis_mod, training as training_mod
from spartan.analysis import (
    Selections,
    collect_selections,
    nmi_from_contingency,
    specialization_stats,
    write_selection_csv,
    write_summary_json,
)
from spartan.backbone import BackboneConfig, Model, init_backbone, iter_named_tensors, make_plugin
from spartan.data import Example, SyntheticTopicTask, generate_topic_dataset
from spartan.memory import SpartanConfig
from spartan.numerics import ParameterError, make_rng

CFG = BackboneConfig(d=32, layers=3, heads=2, ffn_dim=48, vocab_hash_buckets=512, max_seq_len=16)


def analysis_model(seed=0, num_parents=5, children=1, top_k=2):
    rng = make_rng(seed)
    params = init_backbone(CFG, 4, rng)
    plugin = make_plugin("spartan", CFG, rng,
                         SpartanConfig(d=CFG.d, num_parents=num_parents,
                                       children_per_parent=children, top_k=top_k))
    return Model(CFG, params, plugin)


def synthetic_selections(num, parents, labels, seed, coupled=False):
    """One-hot selections: each example picks parent label % parents, or one at random."""
    rng = make_rng(seed)
    label = rng.integers(labels, size=num)
    parent = label % parents if coupled else rng.integers(parents, size=num)
    return Selections(0, label, np.eye(parents)[parent])


def small_dataset(n_per=10):
    task = SyntheticTopicTask(num_topics=4, examples_per_topic=n_per, words_per_example=6)
    return generate_topic_dataset(task, make_rng(99))


class TestCollectSelections:
    def test_zero_parent_matrix_gives_uniform_and_argmax_zero(self):
        model = analysis_model(1)
        for (sp,) in model.plugin.layers:
            sp.parents[...] = 0.0
        sel = collect_selections(model, small_dataset(), layer="last")
        assert sel.probs.shape == (40, 5)
        assert np.allclose(sel.probs, 0.2, atol=1e-12)
        assert (sel.probs.argmax(axis=1) == 0).all()

    def test_single_parent_always_selected(self):
        model = analysis_model(2, num_parents=1, top_k=1)
        sel = collect_selections(model, small_dataset(5))
        assert sel.probs.shape == (20, 1)
        assert (sel.probs.argmax(axis=1) == 0).all()

    def test_pure_read_leaves_model_unchanged(self):
        model = analysis_model(3)
        before = {n: hashlib.sha256(a.tobytes()).hexdigest()
                  for n, a, _ in iter_named_tensors(model)}
        collect_selections(model, small_dataset(5))
        after = {n: hashlib.sha256(a.tobytes()).hexdigest()
                 for n, a, _ in iter_named_tensors(model)}
        assert before == after

    def test_layer_selection_and_validation(self):
        model = analysis_model(4)
        data = small_dataset(3)
        last = collect_selections(model, data, layer="last")
        explicit = collect_selections(model, data, layer=CFG.layers - 1)
        assert last.layer == explicit.layer == CFG.layers - 1
        np.testing.assert_array_equal(last.probs, explicit.probs)
        with pytest.raises(ParameterError):
            collect_selections(model, data, layer=CFG.layers)
        with pytest.raises(ParameterError, match="'abc'"):
            collect_selections(model, data, layer="abc")

    def test_records_indexed_by_example(self):
        model = analysis_model(5)
        # odd examples are shorter, so eval_batches forwards them first
        data = [Example(" ".join(ex.text.split()[:3]) if i % 2 else ex.text, ex.label)
                for i, ex in enumerate(small_dataset(4))]
        sel = collect_selections(model, data)
        assert sel.labels.tolist() == [ex.label for ex in data]
        for i, ex in enumerate(data):
            np.testing.assert_allclose(sel.probs[i], collect_selections(model, [ex]).probs[0],
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("max_positions", [1, 40])
    def test_forwards_stay_within_eval_positions(self, monkeypatch, max_positions):
        model = analysis_model(7)
        data = small_dataset(10)
        monkeypatch.setattr(training_mod, "EVAL_POSITIONS", 10**9)
        whole = collect_selections(model, data)
        shapes, encode = [], analysis_mod.encode

        def spy(model, ids, **kwargs):
            shapes.append(ids.shape)
            return encode(model, ids, **kwargs)

        monkeypatch.setattr(analysis_mod, "encode", spy)
        monkeypatch.setattr(training_mod, "EVAL_POSITIONS", max_positions)
        chunked = collect_selections(model, data)
        assert sum(b for b, _ in shapes) == len(data)
        assert all(b * s <= max(s, max_positions) for b, s in shapes)
        # a row's result may move by a few ulps with the rows forwarded beside it
        np.testing.assert_array_equal(chunked.probs.argmax(axis=1), whole.probs.argmax(axis=1))
        np.testing.assert_allclose(chunked.probs, whole.probs, rtol=1e-12, atol=0)

    def test_requires_spartan_plugin(self):
        rng = make_rng(6)
        params = init_backbone(CFG, 4, rng)
        model = Model(CFG, params, make_plugin("adapter", CFG, rng))
        with pytest.raises(ParameterError):
            collect_selections(model, small_dataset(2))


class TestNmi:
    def test_perfect_correspondence_is_one(self):
        stats = specialization_stats(synthetic_selections(400, parents=4, labels=4, seed=0,
                                                          coupled=True))
        assert stats.nmi == pytest.approx(1.0, abs=1e-12)

    def test_independent_choice_is_near_zero(self):
        # permutation baseline: random parent choice carries no label signal
        stats = specialization_stats(synthetic_selections(2000, parents=5, labels=4, seed=1))
        assert stats.nmi < 0.05

    def test_matches_bruteforce_oracle(self):
        rng = make_rng(2)
        for _ in range(25):
            table = rng.integers(0, 30, size=(rng.integers(2, 6), rng.integers(2, 6)))
            if table.sum() == 0:
                continue
            assert nmi_from_contingency(table) == pytest.approx(
                reference.nmi_bruteforce(table.tolist()), abs=1e-9)

    def test_degenerate_marginal_returns_zero(self):
        assert nmi_from_contingency(np.array([[5, 5]])) == 0.0

    def test_nmi_stays_in_unit_interval(self):
        rng = make_rng(3)
        for _ in range(50):
            table = rng.integers(0, 10, size=(4, 3))
            if table.sum() == 0:
                continue
            v = nmi_from_contingency(table)
            assert -1e-12 <= v <= 1.0 + 1e-12


class TestStats:
    def test_histogram_rows_sum_to_selection_counts(self):
        sel = synthetic_selections(300, parents=5, labels=4, seed=4)
        stats = specialization_stats(sel)
        want = np.zeros((5, 4), dtype=np.int64)
        for probs, label in zip(sel.probs, sel.labels):
            want[probs.argmax(), label] += 1
        np.testing.assert_array_equal(stats.histogram, want)
        assert stats.histogram.sum() == 300

    def test_purity_of_pure_parent(self):
        stats = specialization_stats(synthetic_selections(200, parents=4, labels=4, seed=5,
                                                          coupled=True))
        for p in stats.per_parent_purity:
            assert p is None or p == 1.0


class TestOutputs:
    def test_csv_has_one_row_per_example_and_prob_columns(self, tmp_path):
        model = analysis_model(7)
        data = small_dataset(3)
        sel = collect_selections(model, data)
        path = tmp_path / "sel.csv"
        write_selection_csv(path, sel)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["example_id", "label", "layer", "argmax_parent",
                           "p_0", "p_1", "p_2", "p_3", "p_4"]
        assert len(rows) == 1 + len(data)
        probs = [float(v) for v in rows[1][4:]]
        assert abs(sum(probs) - 1.0) <= 1e-12

    def test_summary_json(self, tmp_path):
        stats = specialization_stats(synthetic_selections(100, parents=3, labels=3, seed=8,
                                                          coupled=True))
        path = tmp_path / "summary.json"
        write_summary_json(path, stats)
        payload = json.loads(path.read_text())
        assert payload["num_records"] == 100
        assert payload["nmi"] == pytest.approx(1.0)
        assert np.asarray(payload["histogram"]).shape == (3, 3)
