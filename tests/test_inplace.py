"""The training path's in-place passes against the plain expressions they
replace, kept in tests/reference.py.

Every result is bitwise equal to the reference's, at float32 and float64, for
contiguous, transposed and single-row inputs. No function writes into its
arguments or into a cache it returned earlier: each call is checked by
hashing every array it was handed before and after.
"""

import copy
import hashlib

import numpy as np
import pytest

import reference
from spartan import adapter, backbone, bench, numerics, training
from spartan.data import SyntheticTopicTask, generate_topic_dataset
from spartan.numerics import make_rng

DTYPES = (np.float32, np.float64)
LAYOUTS = ("contiguous", "transposed", "one-row")


def bits(a) -> bytes:
    a = np.ascontiguousarray(a)
    return a.view(np.uint32 if a.itemsize == 4 else np.uint64).tobytes()


def assert_bitwise(got, want, where="result"):
    """Arrays equal bit for bit, with the same dtype and shape, through
    tuples, lists and dicts; other values equal."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert bits(got) == bits(want), f"{where}: not bitwise equal"
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_bitwise(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_bitwise(got[key], want[key], f"{where}[{key!r}]")
    else:
        assert got == want, where


def digest(obj) -> str:
    """SHA-256 over every array reachable from obj, dataclasses included."""
    h = hashlib.sha256()

    def walk(o):
        if isinstance(o, np.ndarray):
            h.update(str((o.dtype, o.shape)).encode())
            h.update(bits(o))
        elif isinstance(o, (tuple, list)):
            for item in o:
                walk(item)
        elif isinstance(o, dict):
            for key in sorted(o):
                walk(o[key])
        elif hasattr(o, "__dict__"):
            walk(vars(o))
        else:
            h.update(repr(o).encode())

    walk(obj)
    return h.hexdigest()


def call_untouched(fn, *args, earlier=()):
    """fn(*args), asserting that neither args nor `earlier` (results of
    earlier calls) change."""
    before = digest((args, earlier))
    result = fn(*args)
    assert digest((args, earlier)) == before, f"{fn.__name__} wrote into its inputs"
    return result


def rows(rng, layout, n, d, dtype):
    """An (n, d) input: C-contiguous, a transposed view of a (d, n) array, or one row."""
    if layout == "transposed":
        return rng.standard_normal((d, n)).astype(dtype).T
    return rng.standard_normal((1 if layout == "one-row" else n, d)).astype(dtype)


def small_model(kind, dtype, seed=0):
    """A bench model at toy shapes with every matrix drawn, the head included."""
    cfg = bench.BenchConfig(architecture=kind, precision="f32" if dtype == np.float32 else "f64",
                            d=16, layers=2, heads=2, ffn_dim=24, bottleneck=4, num_parents=4,
                            children_per_parent=2, top_k=2, seq_len=5, num_labels=3,
                            vocab_hash_buckets=64)
    model = bench.build_bench_model(cfg, make_rng(seed))
    rng = make_rng(seed + 1)
    model.params.head_weight[...] = rng.standard_normal(model.params.head_weight.shape)
    for lw in model.params.layers:
        for name in ("bq", "bk", "bv", "bo", "b1", "b2"):
            getattr(lw, name)[...] = rng.standard_normal(getattr(lw, name).shape) * 0.1
    return model


def package_gelu(dtype):
    """The (gelu, cdf) function the plain forward runs: float32 has only the
    package's kernel, which the in-place rewrite left as it was."""
    return numerics.gelu_cached if dtype == np.float32 else reference.gelu_cached


@pytest.mark.parametrize("layout", LAYOUTS)
def test_gelu_cached_float64(layout):
    """Only the float64 branch went in place; float32 runs _erf32, unchanged."""
    x = rows(make_rng(0), layout, 7, 5, np.float64) * 3
    assert_bitwise(call_untouched(numerics.gelu_cached, x), reference.gelu_cached(x))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES)
class TestNumerics:
    def test_gelu_grad_cached(self, dtype, layout):
        x = rows(make_rng(1), layout, 7, 5, dtype) * 3
        act, cdf = numerics.gelu_cached(x)
        got = call_untouched(numerics.gelu_grad_cached, x, cdf, earlier=(act,))
        assert_bitwise(got, reference.gelu_grad_cached(x, cdf))

    @pytest.mark.parametrize("param_grads", (False, True))
    def test_layer_norm_backward(self, dtype, layout, param_grads):
        rng = make_rng(2)
        x = rows(rng, layout, 6, 9, dtype)
        gain, bias = (rng.standard_normal(9).astype(dtype) for _ in range(2))
        out, cache = numerics.layer_norm(x, gain, bias)
        d_out = rows(rng, layout, 6, 9, dtype)
        got = call_untouched(numerics.layer_norm_backward, cache, gain, d_out, param_grads,
                             earlier=(out,))
        assert_bitwise(got, reference.layer_norm_backward(cache, gain, d_out, param_grads))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES)
class TestBackboneSteps:
    def setup_inputs(self, dtype, layout):
        model = small_model("none", dtype)
        b, s = (1, 1) if layout == "one-row" else (2, 5)
        h = rows(make_rng(3), layout, b * s, model.cfg.d, dtype)
        d_out = rows(make_rng(4), layout, b * s, model.cfg.d, dtype)
        return model.params.layers[0], h, d_out, b, model.cfg.heads

    def test_attention(self, dtype, layout):
        lw, h, d_out, b, heads = self.setup_inputs(dtype, layout)
        out, cache = call_untouched(backbone._attention_forward, lw, h, b, heads)
        want_out, want_cache = reference.attention_forward(lw, h, b, heads)
        assert_bitwise((out, cache), (want_out, want_cache))
        got = call_untouched(backbone._attention_backward, lw, cache, d_out, earlier=(out,))
        assert_bitwise(got, reference.attention_backward(lw, want_cache, d_out))

    def test_attention_with_pooled_queries(self, dtype, layout):
        """Queries from each sequence's first row: the top layer of classify_*."""
        lw, h, d_out, b, heads = self.setup_inputs(dtype, layout)
        rows = slice(None, None, len(h) // b)
        d_out = d_out[rows]
        out, cache = call_untouched(backbone._attention_forward, lw, h, b, heads, rows)
        want_out, want_cache = reference.attention_forward(lw, h, b, heads, rows)
        assert_bitwise((out, cache), (want_out, want_cache))
        got = call_untouched(backbone._attention_backward, lw, cache, d_out, earlier=(out,))
        assert_bitwise(got, reference.attention_backward(lw, want_cache, d_out))

    def test_ffn(self, dtype, layout):
        lw, h, d_out, _, _ = self.setup_inputs(dtype, layout)
        out, cache = call_untouched(backbone._ffn_forward, lw, h)
        want_out, want_cache = reference.ffn_forward(lw, h, package_gelu(dtype))
        assert_bitwise((out, cache), (want_out, want_cache))
        got = call_untouched(backbone._ffn_backward, lw, cache, d_out, earlier=(out,))
        assert_bitwise(got, reference.ffn_backward(lw, want_cache, d_out))


@pytest.mark.parametrize("kind", ("spartan", "adapter", "none"))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b", (1, 3))
def test_encode_classify_and_backward(kind, dtype, b):
    model = small_model(kind, dtype)
    ids = make_rng(5).integers(0, model.cfg.vocab_hash_buckets, size=(b, 5))
    hidden, routing = call_untouched(backbone.encode, model, ids)
    want_hidden, _ = reference.encode(model, ids, None, False, package_gelu(dtype))
    assert_bitwise(hidden, want_hidden)
    assert routing is None
    # a second call writes into nothing the first one returned
    call_untouched(backbone.encode, model, ids, earlier=(hidden,))

    logits, state = call_untouched(backbone.classify_forward, model, ids, None, True,
                                   earlier=(hidden,))
    want_logits, want_state = reference.classify_forward(model, ids, None, True,
                                                         package_gelu(dtype))
    assert_bitwise(logits, want_logits)
    assert digest(state) == digest(want_state)
    d_logits = make_rng(6).standard_normal(logits.shape).astype(dtype)
    grads = call_untouched(backbone.classify_backward, model, state, d_logits,
                           earlier=(logits,))
    assert_bitwise(grads, reference.classify_backward(model, want_state, d_logits))


@pytest.mark.parametrize("dtype", DTYPES)
def test_adam_step(dtype):
    model = small_model("spartan", dtype)
    want_model = copy.deepcopy(model)
    cfg = training.TrainConfig(learning_rate=0.01)
    state, want_state = training.init_optimizer(model), training.init_optimizer(want_model)
    rng = make_rng(7)
    for _ in range(3):
        grads = {name: rng.standard_normal(arr.shape).astype(dtype)
                 for name, arr, trainable in backbone.iter_named_tensors(model) if trainable}
        before = digest(grads)
        training.adam_step(state, model, grads, cfg)
        assert digest(grads) == before, "adam_step wrote into the gradients"
        reference.adam_step(want_state, want_model, grads, cfg)
        assert_bitwise((state.m, state.v), (want_state.m, want_state.v))
        assert_bitwise([arr for _, arr, _ in backbone.iter_named_tensors(model)],
                       [arr for _, arr, _ in backbone.iter_named_tensors(want_model)])


@pytest.mark.parametrize("kind", ("spartan", "adapter"))
def test_twenty_training_steps_match_the_plain_expressions(kind, monkeypatch):
    """training.train with every rewritten step swapped for its plain form
    trains the same tensors, bit for bit."""
    task = SyntheticTopicTask(num_topics=3, examples_per_topic=8, words_per_example=4)
    dataset = generate_topic_dataset(task, make_rng(8))
    cfg = training.TrainConfig(learning_rate=1e-2, batch_size=4, steps=20, seed=9)
    model = small_model(kind, np.float64)
    want_model = copy.deepcopy(model)
    training.train(model, dataset, cfg)

    monkeypatch.setattr(training, "classify_forward", reference.classify_forward)
    monkeypatch.setattr(training, "classify_backward", reference.classify_backward)
    monkeypatch.setattr(training, "adam_step", reference.adam_step)
    monkeypatch.setattr(adapter, "gelu_cached", reference.gelu_cached)
    monkeypatch.setattr(adapter, "gelu_grad_cached", reference.gelu_grad_cached)
    monkeypatch.setattr(adapter, "layer_norm_backward", reference.layer_norm_backward)
    training.train(want_model, dataset, cfg)
    assert_bitwise({name: arr for name, arr, _ in backbone.iter_named_tensors(model)},
                   {name: arr for name, arr, _ in backbone.iter_named_tensors(want_model)})
