import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from fdcheck import central_diff, max_rel_err, sample_spartan_instance
from spartan.memory import (
    SpartanConfig,
    SpartanLayerParams,
    _block_size,
    backward_batch,
    forward_batch,
    init_params,
)
from spartan.numerics import MacCounter, ParameterError, make_rng
from test_numerics import softmax_mpmath

SMALL = SpartanConfig(d=8, num_parents=4, children_per_parent=2, top_k=2)


def random_params(cfg, seed, value_scale=0.5):
    rng = make_rng(seed)
    params = init_params(cfg, rng)
    params.child_values[...] = rng.normal(0.0, value_scale, params.child_values.shape)
    return params, rng


def traced(params, x):
    """forward_batch over the rows of x (a vector is one row), with its trace."""
    return forward_batch(params, np.atleast_2d(x), collect_trace=True)


def child_attention(trace, t, c):
    """Child attention (K, c) of position t, one row per selected parent in
    trace.selected[t] order, gathered from the trace's (block, pattern) groups."""
    attn = np.full((trace.selected.shape[1], c), np.nan)
    for _, _, pair, a in trace.groups:
        t_idx, k_idx = np.divmod(pair, trace.selected.shape[1])
        hit = t_idx == t
        attn[k_idx[hit]] = a[hit]
    return attn


def replay(params, trace, t):
    """Output of position t rebuilt from the trace: input plus the weighted
    child value mixes of its selected parents."""
    attn = child_attention(trace, t, params.cfg.children_per_parent)
    mixes = [a @ params.child_values[i] for a, i in zip(attn, trace.selected[t])]
    return trace.x[t] + trace.agg_weights[t] @ np.stack(mixes)


class TestInit:
    def test_identity_at_init(self):
        cfg = SpartanConfig(d=16, num_parents=6, children_per_parent=3, top_k=4)
        params = init_params(cfg, make_rng(0))
        x = make_rng(1).normal(size=(100, 16))
        out, _ = forward_batch(params, x)
        assert np.array_equal(out, x)

    def test_same_seed_bitwise_identical(self):
        a = init_params(SMALL, make_rng(9))
        b = init_params(SMALL, make_rng(9))
        assert np.array_equal(a.parents, b.parents)
        assert np.array_equal(a.child_keys, b.child_keys)
        assert np.array_equal(a.child_values, b.child_values)

    def test_scalar_count_at_default_shapes(self):
        # (N + 2*N*c) * d with N=16, c=3, d=768
        cfg = SpartanConfig(d=768, num_parents=16, children_per_parent=3, top_k=8)
        params = init_params(cfg, make_rng(0))
        total = params.parents.size + params.child_keys.size + params.child_values.size
        assert total == (16 + 2 * 16 * 3) * 768 == 86016

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SpartanConfig(d=4, num_parents=4, children_per_parent=1, top_k=5)
        with pytest.raises(ParameterError):
            SpartanConfig(d=0)


class TestChooseParents:
    def test_zero_parent_matrix_uniform_tiebreak(self):
        cfg = SpartanConfig(d=3, num_parents=4, children_per_parent=1, top_k=2)
        params = init_params(cfg, make_rng(0))
        params.parents[...] = 0.0
        _, trace = traced(params, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(trace.parent_probs, 0.25, atol=1e-15)
        assert trace.selected.tolist() == [[0, 1]]

    def test_hand_case_matches_high_precision_softmax(self):
        cfg = SpartanConfig(d=2, num_parents=3, children_per_parent=1, top_k=1)
        params = init_params(cfg, make_rng(0))
        params.parents[...] = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        _, trace = traced(params, np.array([2.0, 0.0]))
        assert np.max(np.abs(trace.parent_probs[0] - softmax_mpmath([2.0, 0.0, -2.0]))) <= 1e-12
        assert trace.selected.tolist() == [[0]]

    def test_k_equals_n_selects_all(self):
        cfg = SpartanConfig(d=8, num_parents=4, children_per_parent=2, top_k=4)
        params, rng = random_params(cfg, 3)
        _, trace = traced(params, rng.normal(size=(5, 8)))
        assert trace.selected.tolist() == [[0, 1, 2, 3]] * 5


class TestChildRepresentation:
    def test_single_child_attention_is_one(self):
        cfg = SpartanConfig(d=4, num_parents=2, children_per_parent=1, top_k=1)
        params, rng = random_params(cfg, 4)
        x = rng.normal(size=4)
        out, trace = traced(params, x)
        assert child_attention(trace, 0, 1).tolist() == [[1.0]]
        assert np.array_equal(out[0], x + params.child_values[trace.selected[0, 0]][0])

    def test_zero_values_give_zero_output(self):
        params = init_params(SMALL, make_rng(5))
        x = make_rng(6).normal(size=8)
        out, _ = traced(params, x)
        assert np.array_equal(out[0] - x, np.zeros(8))

    def test_two_children_weighted_sum_oracle(self):
        cfg = SpartanConfig(d=2, num_parents=1, children_per_parent=2, top_k=1)
        params, rng = random_params(cfg, 7)
        params.child_keys[0] = np.array([[2.0, 0.0], [0.0, 0.0]])  # logits (2, 0) at x=e0
        x = np.array([1.0, 0.0])
        out, trace = traced(params, x)
        expect_attn = softmax_mpmath([2.0, 0.0])
        assert np.max(np.abs(child_attention(trace, 0, 2)[0] - expect_attn)) <= 1e-12
        expect_v = expect_attn[0] * params.child_values[0][0] + expect_attn[1] * params.child_values[0][1]
        assert np.max(np.abs(out[0] - x - expect_v)) <= 1e-12


class TestAggregate:
    def test_singleton_renormalizes_to_one(self):
        cfg = SpartanConfig(d=2, num_parents=3, children_per_parent=1, top_k=1)
        params, rng = random_params(cfg, 24)
        _, trace = traced(params, rng.normal(size=(10, 2)))
        assert trace.agg_weights.tolist() == [[1.0]] * 10

    def test_equal_children_convexity(self):
        cfg = SpartanConfig(d=3, num_parents=3, children_per_parent=1, top_k=2)
        params, rng = random_params(cfg, 25)
        v = np.array([1.5, -2.0, 0.25])
        params.child_values[...] = v
        x = rng.normal(size=(10, 3))
        out, trace = traced(params, x)
        assert np.max(np.abs(trace.agg_weights.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(out - x - v)) <= 1e-12

    def test_denominator_cancellation_identity(self):
        # weights from p/Z must equal softmax over the selected raw logits
        cfg = SpartanConfig(d=2, num_parents=3, children_per_parent=1, top_k=2)
        params = init_params(cfg, make_rng(0))
        params.parents[...] = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        _, trace = traced(params, np.array([2.0, 0.0]))  # logits (2, 0, -2)
        assert trace.selected.tolist() == [[0, 1]]
        assert np.max(np.abs(trace.agg_weights[0] - softmax_mpmath([2.0, 0.0]))) <= 1e-12
        p_sel = softmax_mpmath([2.0, 0.0, -2.0])[:2]
        assert np.max(np.abs(trace.agg_weights[0] - p_sel / p_sel.sum())) <= 1e-12


class TestForward:
    def test_zero_values_identity(self):
        params = init_params(SMALL, make_rng(10))
        x = make_rng(11).normal(size=8)
        out, _ = traced(params, x)
        assert np.array_equal(out[0], x)

    def test_k_equals_n_matches_dense_reference(self):
        cfg = SpartanConfig(d=8, num_parents=4, children_per_parent=2, top_k=4)
        params, rng = random_params(cfg, 12)
        x = rng.normal(size=(50, 8))
        out, _ = forward_batch(params, x)
        for t in range(50):
            assert np.max(np.abs(out[t] - reference.dense_forward(params, x[t]))) <= 1e-12

    def test_trace_replay_reconstructs_output(self):
        cfg = SpartanConfig(d=768, num_parents=16, children_per_parent=3, top_k=8)
        params, rng = random_params(cfg, 13, value_scale=1.0 / 28.0)
        x = rng.normal(size=768)
        out, trace = traced(params, x)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out[0] - replay(params, trace, 0))) <= 1e-12
        assert abs(trace.parent_probs.sum() - 1.0) <= 1e-12
        assert abs(trace.agg_weights.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(child_attention(trace, 0, 3).sum(axis=1) - 1.0)) <= 1e-12

    def test_sparsity_is_lossy_versus_dense(self):
        # orthogonal value rows make the dropped parents visible
        cfg = SpartanConfig(d=4, num_parents=4, children_per_parent=1, top_k=1)
        params, rng = random_params(cfg, 14)
        for i in range(4):
            params.child_values[i][0] = np.eye(4)[i] * 5.0
        x = rng.normal(size=(20, 4))
        sparse, _ = forward_batch(params, x)
        differs = sum(np.max(np.abs(sparse[t] - reference.dense_forward(params, x[t]))) > 1e-6
                      for t in range(20))
        assert differs > 0

    def test_forward_sequence_position_independence(self):
        # a sequence is the rows of one forward_batch call
        params, rng = random_params(SMALL, 15)
        x = rng.normal(size=8)
        outs, _ = forward_batch(params, np.stack([x, x, x]))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])

    def test_forward_sequence_permutation_equivariance(self):
        params, rng = random_params(SMALL, 16)
        xs = rng.normal(size=(5, 8))
        outs, _ = forward_batch(params, xs)
        perm = [3, 0, 4, 1, 2]
        outs_perm, _ = forward_batch(params, xs[perm])
        assert np.array_equal(outs_perm, outs[perm])

    def test_single_position_sequence_matches_forward_position(self):
        params, rng = random_params(SMALL, 17)
        x = rng.normal(size=8)
        out, trace = traced(params, x)
        ref_out, ref_trace = reference.memory_forward(params, x)
        assert np.max(np.abs(out[0] - ref_out)) <= 1e-12
        assert trace.selected[0].tolist() == ref_trace.selected.tolist()


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        params, rng = random_params(SMALL, 20)
        _, trace = traced(params, rng.normal(size=8))
        g = backward_batch(params, trace, np.zeros((1, 8)))
        assert np.all(g.parents == 0.0)
        assert np.all(g.child_keys == 0.0)
        assert np.all(g.child_values == 0.0)
        assert np.all(g.d_input == 0.0)

    def test_matches_central_finite_differences(self):
        params, x = sample_spartan_instance(21, SMALL, positions=1)
        u = make_rng(22).normal(size=(1, 8))
        _, trace = traced(params, x)
        g = backward_batch(params, trace, u)

        def loss():
            out, _ = forward_batch(params, x)
            return float(np.sum(u * out))

        assert max_rel_err(g.parents, central_diff(loss, params.parents)) <= 1e-6
        assert max_rel_err(g.child_keys, central_diff(loss, params.child_keys)) <= 1e-6
        assert max_rel_err(g.child_values, central_diff(loss, params.child_values)) <= 1e-6
        assert max_rel_err(g.d_input, central_diff(loss, x)) <= 1e-6

    def test_non_selected_rows_exactly_zero(self):
        for seed in range(30, 50):
            params, x = sample_spartan_instance(seed, SMALL, positions=1)
            _, trace = traced(params, x)
            g = backward_batch(params, trace, make_rng(seed + 1000).normal(size=(1, 8)))
            selected = set(trace.selected[0].tolist())
            for i in range(SMALL.num_parents):
                if i not in selected:
                    assert np.all(g.parents[i] == 0.0)
                    assert np.all(g.child_keys[i] == 0.0)
                    assert np.all(g.child_values[i] == 0.0)


class TestProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_convex_aggregation_weights(self, seed):
        params, rng = random_params(SMALL, seed)
        out, trace = traced(params, rng.normal(size=(4, 8)))
        assert np.all(trace.agg_weights >= 0.0)
        assert np.max(np.abs(trace.agg_weights.sum(axis=1) - 1.0)) <= 1e-12
        for t in range(4):
            assert np.max(np.abs(out[t] - replay(params, trace, t))) <= 1e-12

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_denominator_cancellation(self, seed, n):
        k = max(1, n // 2)
        cfg = SpartanConfig(d=6, num_parents=n, children_per_parent=2, top_k=k)
        params, rng = random_params(cfg, seed)
        _, trace = traced(params, rng.normal(size=(3, 6)))
        p_sel = np.take_along_axis(trace.parent_probs, trace.selected, axis=1)
        assert np.max(np.abs(trace.agg_weights - p_sel / p_sel.sum(axis=1, keepdims=True))) <= 1e-12

    def test_parent_permutation_equivariance(self):
        rng = make_rng(60)
        for _ in range(20):
            params, _ = random_params(SMALL, int(rng.integers(1 << 30)))
            x = rng.normal(size=8)
            out, trace = traced(params, x)
            probs = np.sort(trace.parent_probs[0])[::-1]
            if probs[SMALL.top_k - 1] - probs[SMALL.top_k] < 1e-6:
                continue  # permuting near a tie could flip the selection
            perm = rng.permutation(SMALL.num_parents)
            permuted = SpartanLayerParams(
                SMALL, params.parents[perm].copy(),
                params.child_keys[perm].copy(), params.child_values[perm].copy())
            out_perm, _ = traced(permuted, x)
            assert np.max(np.abs(out - out_perm)) <= 1e-12

    def test_child_level_macs_independent_of_parent_count(self):
        t, k, c, d = 12, 4, 3, 16
        child_macs = []
        for n in (8, 16, 32):
            cfg = SpartanConfig(d=d, num_parents=n, children_per_parent=c, top_k=k)
            params, rng = random_params(cfg, 70 + n)
            counter = MacCounter()
            forward_batch(params, rng.normal(size=(t, d)), counter=counter)
            child_macs.append(counter.get("child_keys") + counter.get("child_values"))
            assert counter.get("parent_scores") == t * n * d
        assert child_macs[0] == child_macs[1] == child_macs[2] == t * k * c * 2 * d


class TestBatchedPath:
    def test_forward_batch_matches_per_position(self):
        cfg = SpartanConfig(d=24, num_parents=8, children_per_parent=3, top_k=3)
        params, rng = random_params(cfg, 80)
        x = rng.normal(size=(40, 24))
        out_batch, trace = forward_batch(params, x, collect_trace=True)
        for t in range(40):
            out_t, tr = reference.memory_forward(params, x[t])
            assert np.max(np.abs(out_batch[t] - out_t)) <= 1e-12
            assert trace.selected[t].tolist() == tr.selected.tolist()

    def test_backward_batch_matches_per_position_sum(self):
        cfg = SpartanConfig(d=12, num_parents=6, children_per_parent=2, top_k=2)
        params, rng = random_params(cfg, 81)
        x = rng.normal(size=(9, 12))
        d_out = rng.normal(size=(9, 12))
        _, trace = forward_batch(params, x, collect_trace=True)
        g = backward_batch(params, trace, d_out)
        ref_parents = np.zeros_like(params.parents)
        ref_keys = np.zeros_like(params.child_keys)
        ref_values = np.zeros_like(params.child_values)
        for t in range(9):
            _, tr = reference.memory_forward(params, x[t])
            gt = reference.memory_backward(params, tr, d_out[t])
            ref_parents += gt.parents
            ref_keys += gt.child_keys
            ref_values += gt.child_values
            assert np.max(np.abs(g.d_input[t] - gt.d_input)) <= 1e-12
        assert np.max(np.abs(g.parents - ref_parents)) <= 1e-12
        assert np.max(np.abs(g.child_keys - ref_keys)) <= 1e-12
        assert np.max(np.abs(g.child_values - ref_values)) <= 1e-12

    def test_never_selected_parents_get_bitwise_zero_batch_grads(self):
        cfg = SpartanConfig(d=10, num_parents=12, children_per_parent=2, top_k=2)
        params, rng = random_params(cfg, 82)
        x = rng.normal(size=(6, 10))
        _, trace = forward_batch(params, x, collect_trace=True)
        g = backward_batch(params, trace, rng.normal(size=(6, 10)))
        ever = set(np.unique(trace.selected).tolist())
        for i in range(12):
            if i not in ever:
                assert np.all(g.parents[i] == 0.0)
                assert np.all(g.child_keys[i] == 0.0)
                assert np.all(g.child_values[i] == 0.0)

    def test_never_selected_parents_get_bitwise_zero_batch_grads_in_blocks(self):
        # parents 5 and 6 point away from every input, so they are never
        # selected, while 4 and 7 of the same block are
        cfg = SpartanConfig(d=10, num_parents=8, children_per_parent=2, top_k=2)
        t = 512
        assert _block_size(cfg.num_parents, t) == 4
        params, rng = random_params(cfg, 83)
        params.parents[[5, 6]] = 0.0
        params.parents[[5, 6], 0] = -10.0
        x = rng.normal(size=(t, 10))
        x[:, 0] = np.abs(x[:, 0]) + 1.0
        _, trace = forward_batch(params, x, collect_trace=True)
        g = backward_batch(params, trace, rng.normal(size=(t, 10)))
        assert set(np.unique(trace.selected).tolist()) == {0, 1, 2, 3, 4, 7}
        for i in (5, 6):
            assert np.all(g.parents[i] == 0.0)
            assert np.all(g.child_keys[i] == 0.0)
            assert np.all(g.child_values[i] == 0.0)

    @pytest.mark.parametrize("t, block", [(6, 1), (120, 2), (240, 4)])
    def test_backward_batch_matches_central_finite_differences(self, t, block):
        # criterion 01's bound on the production path, one, two and four
        # parents per block; every position is kept off top-K ties
        cfg = SpartanConfig(d=3, num_parents=4, children_per_parent=2, top_k=2)
        assert _block_size(cfg.num_parents, t) == block
        params, x = sample_spartan_instance(90 + t, cfg, positions=t)
        u = make_rng(91 + t).normal(size=(t, 3))
        _, trace = forward_batch(params, x, collect_trace=True)
        g = backward_batch(params, trace, u)

        def loss():
            return float(np.sum(u * forward_batch(params, x)[0]))

        assert max_rel_err(g.parents, central_diff(loss, params.parents)) <= 1e-6
        assert max_rel_err(g.child_keys, central_diff(loss, params.child_keys)) <= 1e-6
        assert max_rel_err(g.child_values, central_diff(loss, params.child_values)) <= 1e-6
        assert max_rel_err(g.d_input, central_diff(loss, x)) <= 1e-6

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("n, k, t, block", [(64, 4, 500, 1), (256, 8, 1024, 1),
                                                (64, 4, 2000, 2), (10, 3, 800, 4), (16, 8, 1024, 4)])
    def test_backward_batch_matches_the_dense_parent_oracle(self, n, k, t, block, dtype, tol):
        # the parent gradient through the groups against the dense (T, N)
        # products; N=10 leaves a short last block, and K=3 of a block of 4
        # gives non-contiguous patterns
        cfg = SpartanConfig(d=6, num_parents=n, children_per_parent=3, top_k=k)
        assert _block_size(n, t) == block
        p, rng = random_params(cfg, 85 + n + t)
        params = SpartanLayerParams(cfg, p.parents.astype(dtype), p.child_keys.astype(dtype),
                                    p.child_values.astype(dtype))
        x, d_out = rng.normal(size=(2, t, 6)).astype(dtype)
        _, trace = forward_batch(params, x, collect_trace=True)
        if n == 10:
            assert any(isinstance(cols, np.ndarray) for cols, _, _, _ in trace.groups)
        g = backward_batch(params, trace, d_out)
        ref = reference.memory_backward_dense(params, trace, d_out)
        for name in ("parents", "child_keys", "child_values", "d_input"):
            want = getattr(ref, name)
            assert getattr(g, name).dtype == dtype
            assert np.max(np.abs(getattr(g, name) - want)) <= tol * np.max(np.abs(want)), name
        unused = ~np.isin(np.arange(n), trace.selected)
        assert np.all(g.parents[unused] == 0.0) and np.all(g.child_keys[unused] == 0.0)

    def test_backward_batch_builds_nothing_positions_by_parents(self):
        # one (T, N) float64 array here is 33.5 MB; the backward's own
        # arrays are (T, d), (T*K, c+1) and (N, c+1, d)
        cfg = SpartanConfig(d=8, num_parents=2048, children_per_parent=3, top_k=2)
        t = 2048
        params, rng = random_params(cfg, 86)
        _, trace = forward_batch(params, rng.normal(size=(t, 8)), collect_trace=True)
        d_out = rng.normal(size=(t, 8))
        tracemalloc.start()
        try:
            backward_batch(params, trace, d_out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < t * cfg.num_parents * 8 / 8

    @pytest.mark.parametrize("n, k, t", [(16, 8, 1024), (10, 3, 800), (64, 4, 4000)])
    def test_block_grouped_path_matches_per_position(self, n, k, t):
        # enough positions per parent that forward_batch groups parents in
        # blocks (memory._block_size > 1); N=10 leaves a short last block
        cfg = SpartanConfig(d=6, num_parents=n, children_per_parent=3, top_k=k)
        params, rng = random_params(cfg, 84 + n)
        x = rng.normal(size=(t, 6))
        d_out = rng.normal(size=(t, 6))
        counter = MacCounter()
        out, trace = forward_batch(params, x, counter=counter, collect_trace=True)
        assert counter.total == t * (n * 6 + 2 * k * 3 * 6)
        g = backward_batch(params, trace, d_out)
        ref_parents = np.zeros_like(params.parents)
        ref_keys = np.zeros_like(params.child_keys)
        ref_values = np.zeros_like(params.child_values)
        for pos in range(0, t, 37):
            out_t, tr = reference.memory_forward(params, x[pos])
            assert np.max(np.abs(out[pos] - out_t)) <= 1e-12
            assert trace.selected[pos].tolist() == tr.selected.tolist()
        for pos in range(t):
            _, tr = reference.memory_forward(params, x[pos])
            gt = reference.memory_backward(params, tr, d_out[pos])
            ref_parents += gt.parents
            ref_keys += gt.child_keys
            ref_values += gt.child_values
            assert np.max(np.abs(g.d_input[pos] - gt.d_input)) <= 1e-12
        assert np.max(np.abs(g.parents - ref_parents)) <= 1e-11
        assert np.max(np.abs(g.child_keys - ref_keys)) <= 1e-11
        assert np.max(np.abs(g.child_values - ref_values)) <= 1e-11
        # one trace group per nonempty (block, pattern): each (position,
        # selected parent) pair in exactly one group, positions ascending, and
        # the group's child rows are those of exactly the parents each of its
        # positions selected in that block
        b = _block_size(n, t)
        for cols, pos, pair, attn in trace.groups:
            parents = np.unique(np.arange(n * 3)[cols] // 3)
            assert (parents // b == parents[0] // b).all()
            assert (np.diff(pos) > 0).all()
            assert (pair // k == np.repeat(pos, len(parents))).all()
            chosen = trace.selected.ravel()[pair].reshape(len(pos), -1)
            assert (chosen == parents).all()
            in_block = trace.selected[pos] // b == parents[0] // b
            assert (in_block.sum(axis=1) == len(parents)).all()
            assert attn.shape == (len(pair), 3)
        pairs = np.concatenate([pair for _, _, pair, _ in trace.groups])
        assert np.array_equal(np.sort(pairs), np.arange(t * k))
