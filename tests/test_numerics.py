import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import reference
from spartan.memory import SpartanConfig, forward_batch, init_params
from spartan.numerics import (
    ParameterError,
    ShapeError,
    _erf32,
    gelu_cached,
    gelu_grad_cached,
    layer_norm,
    make_rng,
    sample_gaussian,
    softmax_rows,
    topk_rows,
)

finite_logits = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=32
).map(np.asarray)


def softmax_mpmath(logits, dps=50):
    """High-precision softmax oracle."""
    with mpmath.workdps(dps):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in logits]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def topk_bruteforce(p, k):
    """Full-sort oracle: sort by (-value, index), take k, return ascending."""
    order = sorted(range(len(p)), key=lambda i: (-p[i], i))[:k]
    return sorted(order)


def softmax_stable(logits):
    """softmax_rows on one row."""
    return softmax_rows(np.asarray(logits)[None, :])[0]


def topk_indices(p, k):
    """topk_rows on one row."""
    return topk_rows(np.asarray(p)[None, :], k)[0]


class TestMatvec:
    def test_matches_scalar_loop_oracle(self):
        # the parent-scoring product: forward_batch's parent softmax against
        # the softmax of scalar-loop logits, one row per position
        rng = make_rng(5)
        for _ in range(10):
            params = init_params(SpartanConfig(d=16, num_parents=16, children_per_parent=2,
                                               top_k=4), rng)
            m = params.parents = rng.normal(size=(16, 16))
            vs = rng.normal(size=(3, 16))
            _, trace = forward_batch(params, vs, collect_trace=True)
            for v, row in zip(vs, trace.parent_probs):
                logits = [sum(m[i][j] * v[j] for j in range(16)) for i in range(16)]
                expect = reference.softmax_stable(np.array(logits))
                assert np.max(np.abs(row - expect)) <= 1e-12


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax_stable(np.zeros(4)), 0.25, atol=1e-15)

    def test_extreme_logits_do_not_overflow(self):
        out = softmax_stable(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999

    def test_matches_high_precision_oracle(self):
        logits = np.array([2.0, 0.0, -2.0])
        expect = softmax_mpmath(logits)
        got = softmax_stable(logits)
        assert np.max(np.abs(got - expect)) <= 1e-12
        assert np.allclose(got, [0.8668, 0.1173, 0.0159], atol=5e-5)

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            softmax_stable(np.array([]))

    @given(finite_logits)
    def test_sums_to_one(self, logits):
        assert abs(softmax_stable(logits).sum() - 1.0) <= 1e-12

    @given(finite_logits, st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, logits, shift):
        a = softmax_stable(logits)
        b = softmax_stable(logits + shift)
        assert np.max(np.abs(a - b)) <= 1e-12

    @given(finite_logits)
    def test_order_preserving(self, logits):
        # gaps below float64's exp resolution produce equal outputs, so only
        # meaningfully separated logits are expected to stay strictly ordered
        out = softmax_stable(logits)
        for i in range(len(logits)):
            for j in range(len(logits)):
                if logits[i] - logits[j] > 1e-9:
                    assert out[i] > out[j]

    def test_rows_variant_matches_vector_form(self):
        rng = make_rng(1)
        for width in (3, 5, 16, 40):  # softmax_rows takes a different path per width range
            x = rng.normal(size=(7, width))
            rows = softmax_rows(x.copy())
            for i in range(7):
                assert np.max(np.abs(rows[i] - reference.softmax_stable(x[i]))) <= 1e-15


class TestTopK:
    def test_tie_break_lowest_index(self):
        assert topk_indices(np.array([0.25, 0.25, 0.25, 0.25]), 2).tolist() == [0, 1]

    def test_unique_max(self):
        assert topk_indices(np.array([0.1, 0.7, 0.2]), 1).tolist() == [1]

    def test_two_peaks(self):
        p = np.array([0.4, 0.1, 0.4, 0.1])
        assert topk_indices(p, 2).tolist() == topk_bruteforce(p, 2) == [0, 2]

    def test_k_equals_dim_returns_all(self):
        assert topk_indices(np.array([3.0, 1.0, 2.0]), 3).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, k):
        with pytest.raises(ParameterError):
            topk_indices(np.ones(4), k)

    @given(st.data())
    @settings(max_examples=80)
    def test_matches_bruteforce_sort_oracle(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=64))
        vals = data.draw(st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=dim, max_size=dim))
        k = data.draw(st.integers(min_value=1, max_value=dim))
        p = np.asarray(vals)
        assert topk_indices(p, k).tolist() == topk_bruteforce(p, k)

    def test_rows_variant_matches_vector_form(self):
        rng = make_rng(2)
        x = rng.normal(size=(20, 9))
        rows = topk_rows(x, 4)
        for i in range(20):
            assert rows[i].tolist() == reference.topk_indices(x[i], 4).tolist()

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_rows_variant_matches_vector_form_on_ties(self, k):
        # topk_rows partitions and redoes only rows where a tie straddles the
        # cut; every row must still match the stable-sort rule, K=N included
        rng = make_rng(3)
        x = rng.integers(0, 3, size=(300, 9)).astype(np.float32)
        x[::11] = 0.25                          # a row of one value
        x[5] = [0.0, -0.0] * 4 + [0.0]          # signed zeros tie
        x[6, 2] = np.nan
        rows = topk_rows(x, k)
        for i in range(len(x)):
            assert rows[i].tolist() == reference.topk_indices(x[i], k).tolist(), i


class TestRng:
    def test_zero_stddev_gives_zeros(self):
        assert np.array_equal(sample_gaussian(make_rng(0), 3, 0.0), np.zeros(3))

    def test_fixed_seed_reproduces_sequence(self):
        a = sample_gaussian(make_rng(42), 100, 1.0)
        b = sample_gaussian(make_rng(42), 100, 1.0)
        assert np.array_equal(a, b)

    def test_moments_match_law_of_large_numbers(self):
        draws = sample_gaussian(make_rng(7), 10**5, 1.0)
        assert abs(draws.mean()) <= 0.02
        assert abs(draws.std() - 1.0) <= 0.02

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            sample_gaussian(make_rng(0), 0, 1.0)
        with pytest.raises(ParameterError):
            sample_gaussian(make_rng(0), 3, -1.0)


class TestNeuralOps:
    def test_gelu_grad_at_zero_is_half(self):
        x = np.array([0.0])
        assert gelu_grad_cached(x, gelu_cached(x)[1])[0] == pytest.approx(0.5, abs=1e-15)

    def test_gelu_cached_matches_plain(self):
        x = make_rng(3).normal(size=40)
        y, cdf = gelu_cached(x)
        assert np.allclose(y, reference.gelu(x), atol=1e-15)
        assert np.allclose(gelu_grad_cached(x, cdf), reference.gelu_grad(x), atol=1e-15)

    def test_gelu_grad_matches_finite_differences(self):
        x = make_rng(4).normal(size=20)
        h = 1e-6
        fd = (gelu_cached(x + h)[0] - gelu_cached(x - h)[0]) / (2 * h)
        assert np.max(np.abs(gelu_grad_cached(x, gelu_cached(x)[1]) - fd)) <= 1e-8

    def test_float64_gelu_is_scipys_erf_bit_for_bit(self):
        x = make_rng(6).normal(size=(7, 300)) * 3
        out, cdf = gelu_cached(x)
        expect = 0.5 * (1 + scipy.special.erf(x / math.sqrt(2)))
        assert np.array_equal(cdf, expect)
        assert np.array_equal(out, x * expect)

    def test_layer_norm_normalizes(self):
        x = make_rng(5).normal(size=(6, 32)) * 3 + 1
        out, _ = layer_norm(x, np.ones(32), np.zeros(32))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)  # eps-limited


class TestErf32:
    """The float32 erf behind gelu_cached's float32 path."""

    @pytest.fixture(scope="class")
    def grid(self):
        # every 1e-5 over [-10, 10], rounded to float32: past the clamp at +-4
        # and through the tails where erf rounds to +-1
        return np.linspace(-10, 10, 2_000_001).astype(np.float32)

    def test_within_5e_7_of_float64_erf(self, grid):
        err = np.abs(_erf32(grid) - scipy.special.erf(grid.astype(np.float64)))
        assert err.max() <= 5e-7

    def test_odd_bit_for_bit(self, grid):
        x = np.concatenate([grid, np.float32([0.0, 1e-30, 3e38, np.inf])])
        assert np.array_equal(_erf32(-x).view(np.uint32), (-_erf32(x)).view(np.uint32))

    def test_cdf_in_unit_interval_without_fp_warnings(self, grid):
        x = np.concatenate([grid, np.float32([-3.4e38, -1e30, 1e30, 3.4e38])])
        with np.errstate(all="raise"):
            out, cdf = gelu_cached(x)
        assert 0.0 <= cdf.min() and cdf.max() <= 1.0
        assert np.isfinite(out).all()

    def test_infinities_and_nan(self):
        x = np.float32([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):  # gelu(-inf) = -inf * 0
            out, cdf = gelu_cached(x)
        assert cdf[0] == 1.0 and cdf[1] == 0.0 and np.isnan(cdf[2])
        assert out[0] == np.inf and np.isnan(out[2])

    def test_blocks_give_the_values_of_single_elements(self):
        # 2.5 blocks, so a full and a partial block meet in one call
        x = make_rng(7).normal(size=(5, 32768)).astype(np.float32) * 3
        got = _erf32(x)
        assert got.shape == x.shape and got.dtype == np.float32
        some = make_rng(8).integers(0, x.size, size=500)
        singles = np.array([_erf32(x.reshape(-1)[i:i + 1])[0] for i in some])
        assert np.array_equal(got.reshape(-1)[some], singles)

    def test_non_contiguous_input(self):
        x = make_rng(9).normal(size=(40, 30)).astype(np.float32)
        assert np.array_equal(_erf32(x.T), _erf32(np.ascontiguousarray(x.T)))
