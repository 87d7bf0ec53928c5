"""Small frozen Transformer encoder with per-layer plugin insertion.

The encoder is a standard post-norm stack (attention, residual, norm, feed
forward, residual, norm); after each layer's final norm, that layer's plugin
stack transforms its positions' vectors. `encode` runs every layer on every
position. The classifier pools each sequence's first position, so
`classify_forward` and `classify_backward` run the top layer on those B
pooled rows only: its attention takes keys and values from every row and
queries from the pooled rows, and its residuals, norms, feed forward and
plugin stack see (B, d), not (B·S, d). Both paths share one layer loop.
Backbone weights are randomly initialized and frozen; only plugin parameters
and the classification head train. The rest of this module is a manual
reverse-mode pass through the stack that produces gradients for exactly those
trainable tensors.

Hidden states run as one flat (B·S, d) token matrix, so each projection, norm
and plugin is one 2-D product over all tokens, not B per-sequence ones; only
attention's scores and context see (B, H, S, dh) heads, per sequence.
No function here writes into its arguments or into arrays it returned
earlier: every in-place pass (bias and residual adds, scaling, the attention
backward) works on an array the function allocated itself, and does the same
IEEE operations in the same order as the plain expression, so results are
bitwise those of `h @ w.T + b`, `h + a` and the rest.

`PLUGINS` gives each plugin kind its config and params types and its stack
depth; a layer's plugin entry is a tuple of that many instances, each with
`forward(x, counter, collect)`, `backward(trace, d_out, need_input)` and a
`shapes(cfg)` schema; `backward` returns (d_input, {field: gradient}), with
d_input None when need_input is False. `classify_backward` passes False to
the lowest instance of layer 0's stack only, since nothing trainable lies
below it. Every tensor group declares its (field, shape, init) entries once,
init being a Gaussian standard deviation or a "zeros"/"ones" fill. Fresh and
shape-only models come from one schema walk that only changes how each group
is filled; `tensor_slots` walks a built model through the same declarations,
and checkpoint names, parameter counts and dtype casts follow it.

Tokenization is hash-bucketed: lowercased word tokens map to ids via FNV-1a,
so identical text always yields identical ids with no vocabulary files.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from . import adapter as adapter_mod
from . import memory as memory_mod
from .numerics import (
    MacCounter,
    ParameterError,
    ShapeError,
    UsageError,
    check_counts,
    gelu_cached,
    gelu_grad_cached,
    init_tensors,
    layer_norm,
    layer_norm_backward,
)

BOS_ID = 0

_TOKEN_RE = re.compile(r"[a-z0-9']+")
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass
class BackboneConfig:
    d: int = 128
    layers: int = 4
    heads: int = 4
    ffn_dim: int = 256
    vocab_hash_buckets: int = 4096
    max_seq_len: int = 64
    pooling: str = "first"

    def __post_init__(self):
        check_counts(vars(self), d=1, layers=1, heads=1, ffn_dim=1, vocab_hash_buckets=2,
                     max_seq_len=1)
        if self.d % self.heads != 0:
            raise ParameterError(f"d={self.d} not divisible by heads={self.heads}")
        if self.pooling != "first":
            raise ParameterError(f"pooling must be 'first' (the only mode), got {self.pooling!r}")


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray

    @staticmethod
    def shapes(cfg: BackboneConfig) -> tuple:
        """The tensor schema: (field, shape, init) in checkpoint order.
        Projections ~ N(0, 1/fan_in), biases zero, norms at identity."""
        d, f = cfg.d, cfg.ffn_dim
        sd = 1.0 / np.sqrt(d)
        return (("wq", (d, d), sd), ("wk", (d, d), sd), ("wv", (d, d), sd), ("wo", (d, d), sd),
                ("bq", (d,), "zeros"), ("bk", (d,), "zeros"), ("bv", (d,), "zeros"),
                ("bo", (d,), "zeros"), ("ln1_gain", (d,), "ones"), ("ln1_bias", (d,), "zeros"),
                ("w1", (f, d), sd), ("b1", (f,), "zeros"),
                ("w2", (d, f), 1.0 / np.sqrt(f)), ("b2", (d,), "zeros"),
                ("ln2_gain", (d,), "ones"), ("ln2_bias", (d,), "zeros"))


@dataclass
class BackboneParams:
    token_emb: np.ndarray
    pos_emb: np.ndarray
    layers: list[LayerWeights]
    head_weight: np.ndarray
    head_bias: np.ndarray

    @staticmethod
    def embedding_shapes(cfg: BackboneConfig) -> tuple:
        return (("token_emb", (cfg.vocab_hash_buckets, cfg.d), 1.0),
                ("pos_emb", (cfg.max_seq_len, cfg.d), 1.0))

    @staticmethod
    def head_shapes(cfg: BackboneConfig, num_labels: int) -> tuple:
        """The head starts at zero, so initial logits are uniform."""
        return (("head_weight", (num_labels, cfg.d), "zeros"), ("head_bias", (num_labels,), "zeros"))

    @property
    def num_labels(self) -> int:
        return self.head_weight.shape[0]


@dataclass(frozen=True)
class PluginKind:
    config: type | None         # config dataclass, built with d= at least
    params: type | None         # params dataclass: shapes(cfg), forward, backward
    depth: int                  # instances stacked per layer


PLUGINS = {
    "none": PluginKind(None, None, 0),
    "spartan": PluginKind(memory_mod.SpartanConfig, memory_mod.SpartanLayerParams, 1),
    "adapter": PluginKind(adapter_mod.AdapterConfig, adapter_mod.AdapterParams, 1),
    "adapterx2": PluginKind(adapter_mod.AdapterConfig, adapter_mod.AdapterParams, 2),
}


def plugin_kind(kind: str) -> PluginKind:
    if kind not in PLUGINS:
        raise ParameterError(f"plugin kind {kind!r} not one of {tuple(PLUGINS)}")
    return PLUGINS[kind]


def plugin_config(kind: str, d: int, *given):
    """The config a `kind` plugin runs with at width d: the first of `given`
    that has the kind's config type, else that type's defaults; None for a
    kind without parameters. `decode_config` owns the rule that d matches."""
    config = plugin_kind(kind).config
    if config is None:
        return None
    return next((c for c in given if isinstance(c, config)), None) or config(d=d)


def build_config(cls, given, section: str, **fixed):
    """cls(**fixed, **given), rejecting any given field the dataclass does not
    declare; a None cls declares no fields and builds None."""
    unknown = set(given) - ({f.name for f in fields(cls)} - set(fixed) if cls else set())
    if unknown:
        raise UsageError(f"unknown {section} fields: {sorted(unknown)}")
    try:
        return cls(**fixed, **given) if cls else None
    except TypeError as exc:  # a field of the wrong JSON type
        raise UsageError(f"{section}: {exc}") from exc


def decode_config(conf: dict) -> tuple:
    """(BackboneConfig, kind, plugin config or None) of a run config or a
    checkpoint's config echo: the one reader of `backbone` and `plugin`. A
    stray or wrong-typed field, an unknown kind or a plugin d other than the
    backbone's raises UsageError."""
    backbone = build_config(BackboneConfig, conf["backbone"], "backbone")
    given = dict(conf["plugin"])
    kind = given.pop("kind")
    if not isinstance(kind, str) or kind not in PLUGINS:
        raise UsageError(f"unknown plugin kind {kind!r}; expected one of {tuple(PLUGINS)}")
    d = given.pop("d", backbone.d)
    if d != backbone.d:
        raise UsageError(f"plugin d={d} does not match backbone d={backbone.d}")
    return backbone, kind, build_config(PLUGINS[kind].config, given, f"{kind} plugin", d=d)


@dataclass
class PluginSpec:
    """Per encoder layer, the tuple of plugin instances applied after the
    layer's final norm: () for `none`, two for `adapterx2`."""

    kind: str = "none"
    layers: list = field(default_factory=list)

    def __post_init__(self):
        plugin_kind(self.kind)


@dataclass
class Model:
    cfg: BackboneConfig
    params: BackboneParams
    plugin: PluginSpec


def _fnv1a(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def tokenize(text: str, cfg: BackboneConfig) -> np.ndarray:
    """Deterministic hash-bucketed ids, BOS-prefixed, truncated to max_seq_len.

    Id 0 is reserved for the BOS marker; word tokens land in [1, buckets).
    """
    words = _TOKEN_RE.findall(text.lower())
    ids = [BOS_ID] + [1 + _fnv1a(w) % (cfg.vocab_hash_buckets - 1) for w in words]
    return np.asarray(ids[: cfg.max_seq_len], dtype=np.int64)


_MAX_SCALARS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _sized(fill):
    """fill, refusing first with a ParameterError any schema entry with more
    scalars than a float64 array can hold; numpy would raise a ValueError of
    its own for the shape, zero-stride or not."""
    def sized(schema):
        for name, shape, _ in schema:
            if math.prod(shape) > _MAX_SCALARS:
                raise ParameterError(f"tensor {name} of shape {shape} is too large for an array")
        return fill(schema)
    return sized


def _backbone_params(cfg: BackboneConfig, num_labels: int, fill) -> BackboneParams:
    """The backbone's schema walk: each group's tensors are fill(schema),
    embeddings first, then the layers in order, then the head."""
    check_counts({"num_labels": num_labels}, num_labels=2)
    fill = _sized(fill)
    return BackboneParams(**fill(BackboneParams.embedding_shapes(cfg)),
                          layers=[LayerWeights(**fill(LayerWeights.shapes(cfg)))
                                  for _ in range(cfg.layers)],
                          **fill(BackboneParams.head_shapes(cfg, num_labels)))


def _plugin_spec(kind: str, layers: int, plugin_cfg, fill) -> PluginSpec:
    """The plugin's schema walk: each instance's tensors are fill(schema),
    layer by layer and, within a layer, instance by instance."""
    pk, fill = plugin_kind(kind), _sized(fill)
    return PluginSpec(kind, [tuple(pk.params(plugin_cfg, **fill(pk.params.shapes(plugin_cfg)))
                                   for _ in range(pk.depth))
                             for _ in range(layers)])


def init_backbone(cfg: BackboneConfig, num_labels: int, rng: np.random.Generator) -> BackboneParams:
    """Random frozen weights, drawn from rng as the schema declares."""
    return _backbone_params(cfg, num_labels, lambda schema: init_tensors(schema, rng))


def make_plugin(kind: str, cfg: BackboneConfig, rng: np.random.Generator,
                spartan_cfg: memory_mod.SpartanConfig | None = None,
                adapter_cfg: adapter_mod.AdapterConfig | None = None) -> PluginSpec:
    """Fresh per-layer plugin parameters for the given kind, drawn from rng
    as the schema declares.

    The kind takes whichever of spartan_cfg/adapter_cfg has its config type,
    so a caller holding one config of either type may pass it first; with
    neither, the type's defaults at width cfg.d.
    """
    pcfg = plugin_config(kind, cfg.d, spartan_cfg, adapter_cfg)
    return _plugin_spec(kind, cfg.layers, pcfg, lambda schema: init_tensors(schema, rng))


def empty_model(cfg: BackboneConfig, num_labels: int, kind: str, plugin_cfg) -> Model:
    """A shape-only model: each tensor is a read-only zero-stride view, so no count
    costs tensor memory. Parameter counts and the loader's file checks walk it."""
    def fill(schema):
        return {name: np.broadcast_to(np.zeros(()), shape) for name, shape, _ in schema}

    return Model(cfg, _backbone_params(cfg, num_labels, fill),
                 _plugin_spec(kind, cfg.layers, plugin_cfg, fill))


def _split_heads(x: np.ndarray, b: int, heads: int) -> np.ndarray:
    return x.reshape(b, -1, heads, x.shape[-1] // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    return x.transpose(0, 2, 1, 3).reshape(-1, x.shape[1] * x.shape[3])


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w.T + b, the bias added in place."""
    y = x @ w.T
    y += b
    return y


def _attention_forward(lw: LayerWeights, h: np.ndarray, b: int, heads: int,
                       rows: slice = slice(None)):
    """Self-attention with keys and values from every row of h and queries
    from h[rows] only: all rows, or each sequence's first (rows = ::s)."""
    q = _split_heads(_affine(h[rows], lw.wq, lw.bq), b, heads)
    k = _split_heads(_affine(h, lw.wk, lw.bk), b, heads)
    v = _split_heads(_affine(h, lw.wv, lw.bv), b, heads)
    scale = float(1.0 / np.sqrt(q.shape[-1]))  # a Python float keeps f32 in f32 (NEP 50)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(scores @ v)
    return _affine(ctx, lw.wo, lw.bo), (q, k, v, scores, scale)


def _query_rows(cache) -> slice:
    """The rows of h that an attention took queries from, read off its
    cache: every row, or each sequence's first."""
    q, k = cache[:2]
    return slice(None, None, k.shape[2] // q.shape[2])


def _attention_backward(lw: LayerWeights, cache, d_out: np.ndarray) -> np.ndarray:
    """d_out is the gradient of the query rows' outputs; returns that of
    every row of h, the query path's share added into the query rows."""
    q, k, v, attn, scale = cache
    d_ctx = _split_heads(d_out @ lw.wo, q.shape[0], q.shape[1])
    d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
    d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
    d_attn -= (d_attn * attn).sum(axis=-1, keepdims=True)
    d_attn *= attn  # now d_scores
    d_q = d_attn @ k
    d_q *= scale
    d_k = d_attn.transpose(0, 1, 3, 2) @ q
    d_k *= scale
    d_in = _merge_heads(d_k) @ lw.wk
    d_in[_query_rows(cache)] += _merge_heads(d_q) @ lw.wq
    d_in += _merge_heads(d_v) @ lw.wv
    return d_in


def _ffn_forward(lw: LayerWeights, h: np.ndarray):
    u = _affine(h, lw.w1, lw.b1)
    act, cdf = gelu_cached(u)
    return _affine(act, lw.w2, lw.b2), (u, cdf)


def _ffn_backward(lw: LayerWeights, cache, d_out: np.ndarray) -> np.ndarray:
    u, cdf = cache
    d_u = d_out @ lw.w2
    d_u *= gelu_grad_cached(u, cdf)
    return d_u @ lw.w1


def _stack_tag(i: int, depth: int) -> str:
    """Name prefix of instance i in a layer's stack; only deeper stacks need one."""
    return f"a{i}." if depth > 1 else ""


def _plugin_forward(plugin: PluginSpec, layer: int, x_flat: np.ndarray,
                    counter: MacCounter | None, collect: bool):
    """Runs the layer's stack in order; returns (output, per-instance traces).
    A counter tallies the stack's MACs and the rows it ran on."""
    if counter is not None:
        counter.rows += len(x_flat)
    traces = []
    for inst in plugin.layers[layer]:
        x_flat, trace = inst.forward(x_flat, counter, collect)
        traces.append(trace)
    return x_flat, traces


def _plugin_backward(plugin: PluginSpec, layer: int, traces, d_out: np.ndarray,
                     need_input: bool):
    """Returns (d_input, {local tensor name: gradient}). With need_input
    False the stack's lowest instance computes no input gradient and d_input
    is None; the instances above it still pass theirs down."""
    stack = plugin.layers[layer]
    grads = [None] * len(stack)
    for i in reversed(range(len(stack))):
        d_out, grads[i] = stack[i].backward(traces[i], d_out, need_input or i > 0)
    return d_out, {_stack_tag(i, len(stack)) + name: g
                   for i, named in enumerate(grads) for name, g in named.items()}


def _run_layers(model: Model, ids: np.ndarray, counter: MacCounter | None, collect: bool,
                capture_routing: bool, pooled_top: bool):
    """The encoder stack over (B, S) ids; returns (h, layer caches or None,
    routing or None). h is (B·S, d), or (B, d) with pooled_top: then the top
    layer takes queries from each sequence's first row only, and its
    residual, norms, feed forward and plugin stack run on those B rows."""
    cfg = model.cfg
    b, s = ids.shape
    if s > cfg.max_seq_len:
        raise ShapeError(f"sequence length {s} exceeds max_seq_len {cfg.max_seq_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_hash_buckets:
        raise ShapeError("token ids out of vocabulary range")
    if capture_routing and model.plugin.kind != "spartan":
        raise ParameterError("routing capture requires the spartan plugin")

    h = model.params.token_emb[ids]
    h += model.params.pos_emb[:s]
    h = h.reshape(b * s, cfg.d)
    layer_caches = []
    routing = [] if capture_routing else None
    collect_plugin = collect or capture_routing
    top = cfg.layers - 1
    for l, lw in enumerate(model.params.layers):
        rows = slice(None, None, s) if pooled_top and l == top else slice(None)
        a, attn_cache = _attention_forward(lw, h, b, cfg.heads, rows)
        a += h[rows]
        h1, ln1_cache = layer_norm(a, lw.ln1_gain, lw.ln1_bias)
        f, ffn_cache = _ffn_forward(lw, h1)
        f += h1
        h2, ln2_cache = layer_norm(f, lw.ln2_gain, lw.ln2_bias)
        h, ptrace = _plugin_forward(model.plugin, l, h2, counter, collect_plugin)
        if capture_routing:
            routing.append(ptrace[0].parent_probs[np.arange(b) * s])
        if collect:
            layer_caches.append((attn_cache, ln1_cache, ffn_cache, ln2_cache, ptrace))
    return h, layer_caches if collect else None, routing


def encode(model: Model, ids: np.ndarray, counter: MacCounter | None = None,
           collect: bool = False, capture_routing: bool = False):
    """Run the stack over a batch of equal-length id sequences.

    ids is (B, S). Returns (hidden (B, S, d), bundle, routing) where bundle
    carries per-layer caches when collect=True and routing, when requested,
    holds each layer's parent probabilities at the first position of every
    sequence (spartan plugin only).
    """
    ids = np.atleast_2d(np.asarray(ids))
    h, bundle, routing = _run_layers(model, ids, counter, collect, capture_routing, False)
    return h.reshape(*ids.shape, model.cfg.d), bundle, routing


def classify(params: BackboneParams, pooled: np.ndarray) -> np.ndarray:
    """Affine task head over pooled vectors; (B, d) -> (B, num_labels)."""
    pooled = np.atleast_2d(pooled)
    if pooled.shape[-1] != params.head_weight.shape[1]:
        raise ShapeError(
            f"pooled dim {pooled.shape[-1]} != head dim {params.head_weight.shape[1]}")
    return _affine(pooled, params.head_weight, params.head_bias)


def classify_forward(model: Model, ids: np.ndarray, counter: MacCounter | None = None,
                     collect: bool = False):
    """Logits of the head over each sequence's first position, with the top
    layer run on those B pooled rows only. They equal the head over
    `encode`'s first positions up to rounding: one-row products run other
    BLAS kernels than many-row ones."""
    pooled, bundle, _ = _run_layers(model, np.atleast_2d(np.asarray(ids)), counter, collect,
                                    False, True)
    return classify(model.params, pooled), (bundle, pooled)


def classify_backward(model: Model, fw_state, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for the trainable tensors only: head plus plugin parameters.

    fw_state is classify_forward's, run with collect=True. The frozen
    backbone contributes activation gradients but none of its weights receive
    one; the walk stops once the lowest plugin has been differentiated, and
    that plugin computes no input gradient. The
    top layer's gradients are (B, d), one row per sequence, until its
    attention spreads them over every row through the keys and values.
    """
    bundle, pooled = fw_state
    if bundle is None:
        raise ParameterError("classify_backward needs a forward pass run with collect=True")
    grads: dict[str, np.ndarray] = {
        "head.weight": d_logits.T @ pooled,
        "head.bias": d_logits.sum(axis=0),
    }
    if not any(model.plugin.layers):
        return grads  # no plugin: only the head trains

    d_h = d_logits @ model.params.head_weight
    for l in range(model.cfg.layers - 1, -1, -1):
        attn_cache, ln1_cache, ffn_cache, ln2_cache, ptrace = bundle[l]
        lw = model.params.layers[l]
        d_h, pgrads = _plugin_backward(model.plugin, l, ptrace, d_h, need_input=l > 0)
        for name, g in pgrads.items():
            grads[f"plugin.layer{l}.{name}"] = g
        if l == 0:
            break  # nothing trainable below the first layer's plugin
        d_r2 = layer_norm_backward(ln2_cache, lw.ln2_gain, d_h)
        d_h1 = _ffn_backward(lw, ffn_cache, d_r2)
        d_h1 += d_r2
        d_r1 = layer_norm_backward(ln1_cache, lw.ln1_gain, d_h1)
        d_h = _attention_backward(lw, attn_cache, d_r1)
        d_h[_query_rows(attn_cache)] += d_r1
    return grads


def plugin_slots(plugin: PluginSpec):
    """(name, owner, field, trainable) for every plugin tensor, in checkpoint order."""
    for l, stack in enumerate(plugin.layers):
        for i, inst in enumerate(stack):
            for fname, _, _ in inst.shapes(inst.cfg):
                yield f"plugin.layer{l}.{_stack_tag(i, len(stack))}{fname}", inst, fname, True


def tensor_slots(model: Model):
    """(name, owner, field, trainable) for every tensor: the array is
    getattr(owner, field). The order is fixed so checkpoints and optimizer
    state are reproducible."""
    p, cfg = model.params, model.cfg
    for fname, _, _ in p.embedding_shapes(cfg):
        yield f"backbone.{fname}", p, fname, False
    for l, lw in enumerate(p.layers):
        for fname, _, _ in lw.shapes(cfg):
            yield f"backbone.layer{l}.{fname}", lw, fname, False
    for fname, _, _ in p.head_shapes(cfg, p.num_labels):
        yield fname.replace("_", ".", 1), p, fname, True  # head_weight -> head.weight
    yield from plugin_slots(model.plugin)


def iter_named_tensors(model: Model):
    """Yields (name, array, trainable) over every tensor, in tensor_slots order."""
    for name, owner, fname, trainable in tensor_slots(model):
        yield name, getattr(owner, fname), trainable
