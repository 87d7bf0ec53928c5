import collections

import numpy as np
import pytest

import reference
from fdcheck import max_rel_err
from spartan import adapter as adapter_mod
from spartan import bench
from spartan import memory as memory_mod
from spartan.backbone import (
    BackboneConfig,
    Model,
    _plugin_forward,
    classify,
    classify_backward,
    classify_forward,
    encode,
    init_backbone,
    iter_named_tensors,
    make_plugin,
    tokenize,
)
from spartan.memory import SpartanConfig
from spartan.numerics import MacCounter, ParameterError, ShapeError, gelu_cached, make_rng
from spartan.training import cross_entropy_batch

CFG = BackboneConfig(d=32, layers=2, heads=2, ffn_dim=48, vocab_hash_buckets=256, max_seq_len=16)


def small_model(seed=0, kind="spartan", cfg=CFG, num_labels=3):
    rng = make_rng(seed)
    params = init_backbone(cfg, num_labels, rng)
    spartan_cfg = SpartanConfig(d=cfg.d, num_parents=4, children_per_parent=2, top_k=2)
    plugin = make_plugin(kind, cfg, rng, spartan_cfg if kind == "spartan" else None)
    return Model(cfg, params, plugin)


class TestTokenize:
    def test_empty_text_gives_bos_only(self):
        assert tokenize("", CFG).tolist() == [0]

    def test_deterministic(self):
        a = tokenize("The quick brown fox", CFG)
        b = tokenize("The quick brown fox", CFG)
        assert np.array_equal(a, b)

    def test_ids_in_range_and_bos_prefixed(self):
        ids = tokenize("alpha beta gamma", CFG)
        assert ids[0] == 0
        assert np.all(ids[1:] >= 1) and np.all(ids < CFG.vocab_hash_buckets)

    def test_single_word_change_changes_ids(self):
        # hash collisions are possible but rare; sample several word pairs
        changed = 0
        for i in range(20):
            a = tokenize(f"shared context word{i}", CFG)
            b = tokenize(f"shared context other{i}", CFG)
            if not np.array_equal(a, b):
                changed += 1
        assert changed >= 19

    def test_truncation_at_max_seq_len(self):
        ids = tokenize(" ".join(f"w{i}" for i in range(100)), CFG)
        assert len(ids) == CFG.max_seq_len


class TestEncode:
    def test_spartan_at_init_matches_no_plugin(self):
        model_none = small_model(3, "none")
        model_sp = small_model(3, "spartan")
        # same backbone weights by construction? rebuild sharing params instead
        model_sp.params = model_none.params
        ids = np.stack([tokenize("business words here", CFG)])
        h_none, _ = encode(model_none, ids)
        h_sp, _ = encode(model_sp, ids)
        assert np.max(np.abs(h_none - h_sp)) <= 1e-12

    def test_token_swap_changes_outputs(self):
        model = small_model(4)
        a, _ = encode(model, np.array([[0, 5, 9]]))
        b, _ = encode(model, np.array([[0, 9, 5]]))
        assert np.max(np.abs(a - b)) > 1e-6

    def test_deterministic_across_runs(self):
        model = small_model(5)
        ids = np.array([[0, 7, 11, 2]])
        a, _ = encode(model, ids)
        b, _ = encode(model, ids)
        assert np.array_equal(a, b)

    def test_rejects_overlong_and_out_of_vocab(self):
        model = small_model(6)
        with pytest.raises(ShapeError):
            encode(model, np.zeros((1, CFG.max_seq_len + 1), dtype=np.int64))
        with pytest.raises(ShapeError):
            encode(model, np.array([[0, CFG.vocab_hash_buckets]]))

    def test_returns_hidden_and_routing(self):
        model = small_model(7)
        ids = np.stack([tokenize("a b c", CFG)])
        result = encode(model, ids)
        assert len(result) == 2 and result[1] is None
        assert result[0].shape == (1, 4, CFG.d)
        hidden, routing = encode(model, ids, capture_routing=True)
        assert np.array_equal(hidden, result[0]) and len(routing) == CFG.layers

    def test_routing_capture_shape(self):
        model = small_model(7)
        ids = np.stack([tokenize("a b c", CFG), tokenize("d e f", CFG)])
        _, routing = encode(model, ids, capture_routing=True)
        assert len(routing) == CFG.layers
        assert routing[0].shape == (2, 4)
        assert np.allclose(routing[0].sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("pooling", ["mean", "first-token"])
    def test_pooling_other_than_first_rejected(self, pooling):
        # the head reads each sequence's first position; classify_* rely on it
        with pytest.raises(ParameterError, match="pooling must be 'first'"):
            BackboneConfig(pooling=pooling)

    def test_routing_capture_requires_spartan(self):
        model = small_model(8, "adapter")
        with pytest.raises(ParameterError):
            encode(model, np.array([[0, 1]]), capture_routing=True)


class TestClassify:
    def test_zero_head_gives_uniform_logits(self):
        model = small_model(9)
        logits, _ = classify_forward(model, np.array([[0, 3, 5]]))
        assert np.array_equal(logits, np.zeros((1, 3)))

    def test_matches_scalar_oracle(self):
        model = small_model(10, num_labels=2)
        rng = make_rng(11)
        model.params.head_weight[...] = rng.normal(size=model.params.head_weight.shape)
        model.params.head_bias[...] = rng.normal(size=2)
        pooled = rng.normal(size=CFG.d)
        logits = classify(model.params, pooled)[0]
        expect = [sum(model.params.head_weight[i][j] * pooled[j] for j in range(CFG.d))
                  + model.params.head_bias[i] for i in range(2)]
        assert np.max(np.abs(logits - expect)) <= 1e-12

    def test_softmax_of_logits_sums_to_one(self):
        model = small_model(12)
        logits, _ = classify_forward(model, np.array([[0, 1, 2]]))
        z = np.exp(logits[0] - logits[0].max())
        assert abs(z.sum() / z.sum() - 1.0) == 0.0
        assert abs((z / z.sum()).sum() - 1.0) <= 1e-12

    def test_head_dim_mismatch(self):
        model = small_model(13)
        with pytest.raises(ShapeError):
            classify(model.params, np.zeros(CFG.d + 1))


class TestEndToEndGradients:
    def test_plugin_and_head_gradients_match_finite_differences(self):
        model = small_model(14)
        rng = make_rng(15)
        for (sp,) in model.plugin.layers:
            sp.child_values[...] = rng.normal(0.0, 0.3, sp.child_values.shape)
        ids = np.stack([tokenize("one two three", CFG), tokenize("four five six", CFG)])
        labels = np.array([0, 2])

        def loss():
            logits, _ = classify_forward(model, ids)
            losses, _ = cross_entropy_batch(logits, labels)
            return float(losses.mean())

        logits, state = classify_forward(model, ids, collect=True)
        _, d_logits = cross_entropy_batch(logits, labels)
        grads = classify_backward(model, state, d_logits / 2)

        rng2 = make_rng(16)
        for name, arr, trainable in iter_named_tensors(model):
            if not trainable:
                continue
            picks = rng2.permutation(arr.size)[:24]
            fd = np.zeros(picks.size)
            flat = arr.ravel()
            for j, idx in enumerate(picks):
                orig = flat[idx]
                flat[idx] = orig + 1e-5
                f1 = loss()
                flat[idx] = orig - 1e-5
                f2 = loss()
                flat[idx] = orig
                fd[j] = (f1 - f2) / 2e-5
            assert max_rel_err(grads[name].ravel()[picks], fd) <= 1e-6, name


class TestPooledTopLayer:
    """classify_forward and classify_backward run the top layer on each
    sequence's first row only. Against the full-row path (package encode,
    the head over its first rows, and the reference's full-row backward),
    the logits and gradients agree up to rounding, and bitwise where S = 1:
    there both paths run the same products. One-row products run BLAS's
    matrix-vector kernels, which sum in another order than the matrix
    kernels a many-row product runs."""

    TOL = {np.float64: 1e-12, np.float32: 1e-5}

    @staticmethod
    def model(kind, dtype, layers):
        cfg = bench.BenchConfig(architecture=kind, precision="f32" if dtype == np.float32 else "f64",
                                d=16, layers=layers, heads=2, ffn_dim=24, bottleneck=4,
                                num_parents=4, children_per_parent=2, top_k=2, seq_len=5,
                                num_labels=3, vocab_hash_buckets=64)
        model = bench.build_bench_model(cfg, make_rng(30))
        head = model.params.head_weight
        head[...] = make_rng(31).standard_normal(head.shape)
        return model

    def assert_close(self, got, want, dtype, where, bitwise):
        if bitwise:
            assert got.tobytes() == want.tobytes(), where
            return
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= self.TOL[dtype] * scale, where

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("s", [1, 5])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("kind", ["none", "spartan", "adapter", "adapterx2"])
    def test_matches_the_full_row_path(self, kind, b, s, layers, dtype):
        model = self.model(kind, dtype, layers)
        ids = make_rng(32).integers(0, 64, size=(b, s))
        logits, state = classify_forward(model, ids, collect=True)
        # the full-row pass, with the package's gelu: float32 has only its kernel
        hidden, bundle = reference.encode(model, ids, None, True, gelu_cached)
        full_logits = classify(model.params, hidden[:, 0])
        self.assert_close(logits, full_logits, dtype, "logits", bitwise=s == 1)

        d_logits = make_rng(33).standard_normal(logits.shape).astype(dtype)
        grads = classify_backward(model, state, d_logits)
        full = reference.classify_backward(model, (bundle, hidden[:, 0]), d_logits)
        assert grads.keys() == full.keys()
        for name, g in grads.items():
            assert g.dtype == dtype, name
            self.assert_close(g, full[name], dtype, name, bitwise=False)

    def test_top_layer_runs_on_the_pooled_rows(self):
        model = self.model("spartan", np.float64, 2)
        ids = make_rng(34).integers(0, 64, size=(3, 5))
        counter = MacCounter()
        _, (bundle, pooled) = classify_forward(model, ids, counter, collect=True)
        (low,), (top,) = bundle[0][4], bundle[1][4]
        assert (len(low.x), len(top.x), pooled.shape) == (15, 3, (3, 16))
        assert counter.rows == 15 + 3


class TestSequencesStayIndependent:
    """The encoder runs a batch as one flat (B·S, d) token matrix; only
    attention mixes tokens, and only within a sequence. So each sequence's
    output and gradient must not depend on the others in its batch."""

    @pytest.mark.parametrize("kind", ["none", "spartan", "adapter", "adapterx2"])
    def test_batch_matches_each_sequence_alone(self, kind):
        model = small_model(23, kind)
        rng = make_rng(24)
        for stack in model.plugin.layers:
            for inst in stack:
                for name in ("child_values", "up"):  # zero at init: make the plugin act
                    if hasattr(inst, name):
                        setattr(inst, name, rng.normal(0.0, 0.3, getattr(inst, name).shape))
        model.params.head_weight[...] = rng.normal(0.0, 0.3, model.params.head_weight.shape)
        ids = rng.integers(0, CFG.vocab_hash_buckets, size=(3, 7))
        d_logits = rng.standard_normal((3, model.params.num_labels))

        hidden, _ = encode(model, ids)
        logits, state = classify_forward(model, ids, collect=True)
        grads = classify_backward(model, state, d_logits)
        summed = {}
        for i in range(3):
            alone, _ = encode(model, ids[i:i + 1])
            np.testing.assert_allclose(hidden[i], alone[0], rtol=0, atol=1e-12)
            _, state_i = classify_forward(model, ids[i:i + 1], collect=True)
            for name, g in classify_backward(model, state_i, d_logits[i:i + 1]).items():
                summed[name] = summed.get(name, 0) + g
        assert grads.keys() == summed.keys()
        for name, g in grads.items():
            np.testing.assert_allclose(g, summed[name], rtol=1e-10, atol=1e-12, err_msg=name)


class TestIdentityAtInit:
    def test_holds_through_all_layers(self):
        cfg = BackboneConfig(d=128, layers=4, heads=4, ffn_dim=256,
                             vocab_hash_buckets=1024, max_seq_len=16)
        rng = make_rng(18)
        params = init_backbone(cfg, 4, rng)
        plugin = make_plugin("spartan", cfg, rng)
        base = Model(cfg, params, make_plugin("none", cfg, rng))
        plugged = Model(cfg, params, plugin)
        ids = make_rng(19).integers(0, cfg.vocab_hash_buckets, size=(8, 12))
        h0, _ = encode(base, ids)
        h1, _ = encode(plugged, ids)
        assert np.max(np.abs(h0 - h1)) <= 1e-12


# The names are the checkpoint format, so they are spelled out here rather
# than derived from the schema they pin.
_FROZEN_NAMES = [
    "backbone.token_emb", "backbone.pos_emb",
    "backbone.layer0.wq", "backbone.layer0.wk", "backbone.layer0.wv", "backbone.layer0.wo",
    "backbone.layer0.bq", "backbone.layer0.bk", "backbone.layer0.bv", "backbone.layer0.bo",
    "backbone.layer0.ln1_gain", "backbone.layer0.ln1_bias",
    "backbone.layer0.w1", "backbone.layer0.b1", "backbone.layer0.w2", "backbone.layer0.b2",
    "backbone.layer0.ln2_gain", "backbone.layer0.ln2_bias",
    "backbone.layer1.wq", "backbone.layer1.wk", "backbone.layer1.wv", "backbone.layer1.wo",
    "backbone.layer1.bq", "backbone.layer1.bk", "backbone.layer1.bv", "backbone.layer1.bo",
    "backbone.layer1.ln1_gain", "backbone.layer1.ln1_bias",
    "backbone.layer1.w1", "backbone.layer1.b1", "backbone.layer1.w2", "backbone.layer1.b2",
    "backbone.layer1.ln2_gain", "backbone.layer1.ln2_bias",
]
_HEAD_NAMES = ["head.weight", "head.bias"]
_PLUGIN_NAMES = {
    "none": [],
    "spartan": [
        "plugin.layer0.parents", "plugin.layer0.child_keys", "plugin.layer0.child_values",
        "plugin.layer1.parents", "plugin.layer1.child_keys", "plugin.layer1.child_values",
    ],
    "adapter": [
        "plugin.layer0.down", "plugin.layer0.down_bias", "plugin.layer0.up",
        "plugin.layer0.up_bias", "plugin.layer0.norm_gain", "plugin.layer0.norm_bias",
        "plugin.layer1.down", "plugin.layer1.down_bias", "plugin.layer1.up",
        "plugin.layer1.up_bias", "plugin.layer1.norm_gain", "plugin.layer1.norm_bias",
    ],
    "adapterx2": [
        "plugin.layer0.a0.down", "plugin.layer0.a0.down_bias", "plugin.layer0.a0.up",
        "plugin.layer0.a0.up_bias", "plugin.layer0.a0.norm_gain", "plugin.layer0.a0.norm_bias",
        "plugin.layer0.a1.down", "plugin.layer0.a1.down_bias", "plugin.layer0.a1.up",
        "plugin.layer0.a1.up_bias", "plugin.layer0.a1.norm_gain", "plugin.layer0.a1.norm_bias",
        "plugin.layer1.a0.down", "plugin.layer1.a0.down_bias", "plugin.layer1.a0.up",
        "plugin.layer1.a0.up_bias", "plugin.layer1.a0.norm_gain", "plugin.layer1.a0.norm_bias",
        "plugin.layer1.a1.down", "plugin.layer1.a1.down_bias", "plugin.layer1.a1.up",
        "plugin.layer1.a1.up_bias", "plugin.layer1.a1.norm_gain", "plugin.layer1.a1.norm_bias",
    ],
}


class TestTensorNames:
    TINY = BackboneConfig(d=4, layers=2, heads=1, ffn_dim=6, vocab_hash_buckets=8, max_seq_len=4)
    TINY_SPARTAN = SpartanConfig(d=4, num_parents=2, children_per_parent=1, top_k=1)

    @pytest.mark.parametrize("kind", ["none", "spartan", "adapter", "adapterx2"])
    def test_names_order_and_trainable_flags(self, kind):
        rng = make_rng(0)
        spartan_cfg = self.TINY_SPARTAN if kind == "spartan" else None
        model = Model(self.TINY, init_backbone(self.TINY, 2, rng),
                      make_plugin(kind, self.TINY, rng, spartan_cfg))
        expect = ([(n, False) for n in _FROZEN_NAMES]
                  + [(n, True) for n in _HEAD_NAMES + _PLUGIN_NAMES[kind]])
        assert [(n, t) for n, _, t in iter_named_tensors(model)] == expect
        shapes = reference.iter_tensor_shapes(self.TINY, 2, kind, spartan_cfg)
        assert [(n, t) for n, _, t in shapes] == expect


class TestLowestPluginSkipsItsInputGradient:
    """classify_backward asks the lowest instance of layer 0's stack for no
    input gradient, since nothing trainable lies below it. Its gradients are
    bitwise those of a pass in which that instance computes one."""

    @staticmethod
    def record(monkeypatch, force_input):
        """Wrap both plugin backwards; each call appends (params, d_out,
        need_input, d_input). With force_input every call computes d_input."""
        calls = []
        for module, name in ((memory_mod, "backward_batch"), (adapter_mod, "adapter_backward")):
            def wrapper(params, trace, d_out, need_input=True, _original=getattr(module, name)):
                g = _original(params, trace, d_out, need_input or force_input)
                calls.append((params, d_out, need_input, g.d_input))
                return g
            monkeypatch.setattr(module, name, wrapper)
        return calls

    @pytest.mark.parametrize("kind", ["none", "spartan", "adapter", "adapterx2"])
    def test_gradients_match_a_pass_that_computes_it(self, kind, monkeypatch):
        model = small_model(25, kind)
        rng = make_rng(26)
        for stack in model.plugin.layers:
            for inst in stack:
                for name in ("child_values", "up"):  # zero at init: make the plugin act
                    if hasattr(inst, name):
                        setattr(inst, name, rng.normal(0.0, 0.3, getattr(inst, name).shape))
        model.params.head_weight[...] = rng.normal(0.0, 0.3, model.params.head_weight.shape)
        ids = rng.integers(0, CFG.vocab_hash_buckets, size=(3, 7))
        logits, state = classify_forward(model, ids, collect=True)
        d_logits = rng.standard_normal(logits.shape)

        with monkeypatch.context() as patch:
            calls = self.record(patch, force_input=False)
            grads = classify_backward(model, state, d_logits)
        with monkeypatch.context() as patch:
            self.record(patch, force_input=True)
            want = classify_backward(model, state, d_logits)
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert g.tobytes() == want[name].tobytes(), name
        # only the last call, layer 0's lowest instance, skips its d_input
        asked = [need for _, _, need, _ in calls]
        assert asked == ([True] * (len(calls) - 1) + [False] if calls else [])
        assert len(calls) == CFG.layers * len(model.plugin.layers[0])

    def test_upper_instance_of_layer_0_still_passes_its_input_gradient_down(self, monkeypatch):
        model = small_model(27, "adapterx2")
        ids = make_rng(28).integers(0, CFG.vocab_hash_buckets, size=(2, 5))
        logits, state = classify_forward(model, ids, collect=True)
        calls = self.record(monkeypatch, force_input=False)
        classify_backward(model, state, np.ones_like(logits))
        (upper, _, upper_need, d_input), (lower, d_out, lower_need, lower_d_input) = calls[-2:]
        assert (upper, lower) == model.plugin.layers[0][::-1]
        assert upper_need and d_input is d_out and np.isfinite(d_input).all()
        assert not lower_need and lower_d_input is None


class TestDispatchAtCallTime:
    """The plugin dispatch must look the layer functions up in their modules
    on every call: profilers and tests replace those module attributes."""

    def _count_calls(self, monkeypatch):
        calls = collections.Counter()
        for module, name in ((memory_mod, "forward_batch"), (memory_mod, "backward_batch"),
                             (adapter_mod, "adapter_forward")):
            def wrapper(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_memory_forward_and_backward_are_reached(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        model = small_model(20)
        ids = np.stack([tokenize("one two", CFG), tokenize("three four", CFG)])
        encode(model, ids)
        assert calls["forward_batch"] == CFG.layers
        logits, state = classify_forward(model, ids, collect=True)
        classify_backward(model, state, np.ones_like(logits))
        assert calls["forward_batch"] == 2 * CFG.layers
        assert calls["backward_batch"] == CFG.layers

    def test_adapter_forward_is_reached_for_every_stacked_instance(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        model = small_model(21, kind="adapterx2")
        _plugin_forward(model.plugin, 0, make_rng(22).standard_normal((5, CFG.d)), None, False)
        assert calls["adapter_forward"] == 2
        encode(model, np.array([[0, 1, 2]]))
        assert calls["adapter_forward"] == 2 + 2 * CFG.layers
