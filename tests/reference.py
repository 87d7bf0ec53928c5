"""Plain reference implementations that the tests compare the package against.

Each is written from the definition, one position or one row at a time, and
shares no code with `spartan`'s batched paths, except the training-path
section: those are the package's own functions written as plain expressions.
None checks its inputs: a test hands them well-formed arrays. The
initializers write every tensor out by hand, in the order the package draws
them, without the tensor schema.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.special import erf

from spartan.adapter import AdapterConfig, AdapterParams
from spartan.backbone import (
    BackboneConfig,
    BackboneParams,
    LayerWeights,
    Model,
    PluginSpec,
    _merge_heads,
    _plugin_backward,
    _plugin_forward,
    _split_heads,
    empty_model,
    iter_named_tensors,
    plugin_config,
)
from spartan.memory import SpartanConfig, SpartanGradients, SpartanLayerParams
from spartan.numerics import layer_norm


def softmax_stable(logits):
    """Max-subtracted softmax of a vector."""
    z = np.asarray(logits) - np.max(logits)
    e = np.exp(z)
    return e / e.sum()


def topk_indices(p, k):
    """Indices of the k largest entries, ties to the lower index, ascending."""
    return np.sort(np.argsort(-np.asarray(p), kind="stable")[:k])


def gelu(x):
    """Exact (erf-based) gelu."""
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_grad(x):
    """d gelu / dx = Phi(x) + x * phi(x)."""
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    return cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# --- the training path as plain expressions -------------------------------
# Each function below is a package function on the training path written as
# plain expressions, each allocating its result. The package's in-place passes
# must match them bit for bit.

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def gelu_cached(x):
    """(gelu, cdf) of a float64 array."""
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * cdf, cdf


def gelu_grad_cached(x, cdf):
    """gelu_grad given the cdf of gelu_cached."""
    return cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))


def layer_norm_backward(cache, gain, d_out, want_param_grads=False):
    """Gradient of the package's layer_norm w.r.t. its input, and optionally gain/bias."""
    xhat, inv_std = cache
    d_xhat = d_out * gain
    m1 = d_xhat.mean(axis=-1, keepdims=True)
    m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = inv_std * (d_xhat - m1 - xhat * m2)
    if not want_param_grads:
        return d_x
    axes = tuple(range(d_out.ndim - 1))
    d_gain = (d_out * xhat).sum(axis=axes)
    d_bias = d_out.sum(axis=axes)
    return d_x, d_gain, d_bias


def attention_forward(lw, h, b, heads, rows=slice(None)):
    """Keys and values from every row of h, queries from h[rows]."""
    q = _split_heads(h[rows] @ lw.wq.T + lw.bq, b, heads)
    k = _split_heads(h @ lw.wk.T + lw.bk, b, heads)
    v = _split_heads(h @ lw.wv.T + lw.bv, b, heads)
    scale = float(1.0 / np.sqrt(q.shape[-1]))
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(scores @ v)
    return ctx @ lw.wo.T + lw.bo, (q, k, v, scores, scale)


def attention_backward(lw, cache, d_out):
    q, k, v, attn, scale = cache
    d_ctx = _split_heads(d_out @ lw.wo, q.shape[0], q.shape[1])
    d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
    d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    d_q = (d_scores @ k) * scale
    d_k = (d_scores.transpose(0, 1, 3, 2) @ q) * scale
    d_from_q = np.zeros((k.shape[0] * k.shape[2], lw.wq.shape[1]), dtype=d_q.dtype)
    d_from_q[query_rows(cache)] = _merge_heads(d_q) @ lw.wq
    return (d_from_q
            + _merge_heads(d_k) @ lw.wk
            + _merge_heads(d_v) @ lw.wv)


def query_rows(cache):
    """The rows an attention took queries from: all of them, or each
    sequence's first."""
    q, k = cache[:2]
    return slice(None, None, k.shape[2] // q.shape[2])


def ffn_forward(lw, h, gelu=gelu_cached):
    """gelu is the (gelu, cdf) function to run: this module's float64 one,
    or the package's, whose float32 branch has no plain form."""
    u = h @ lw.w1.T + lw.b1
    act, cdf = gelu(u)
    return act @ lw.w2.T + lw.b2, (u, cdf)


def ffn_backward(lw, cache, d_out):
    u, cdf = cache
    return (d_out @ lw.w2 * gelu_grad_cached(u, cdf)) @ lw.w1


def run_layers(model, ids, counter, collect, gelu, pooled_top):
    """The stack over (B, S) ids: (h, caches), h (B·S, d), or (B, d) with
    pooled_top, where the top layer runs on each sequence's first row."""
    cfg = model.cfg
    b, s = ids.shape
    h = (model.params.token_emb[ids] + model.params.pos_emb[:s]).reshape(b * s, cfg.d)
    layer_caches = []
    for l, lw in enumerate(model.params.layers):
        rows = slice(None, None, s) if pooled_top and l == cfg.layers - 1 else slice(None)
        a, attn_cache = attention_forward(lw, h, b, cfg.heads, rows)
        h1, ln1_cache = layer_norm(h[rows] + a, lw.ln1_gain, lw.ln1_bias)
        f, ffn_cache = ffn_forward(lw, h1, gelu)
        h2, ln2_cache = layer_norm(h1 + f, lw.ln2_gain, lw.ln2_bias)
        h, ptrace = _plugin_forward(model.plugin, l, h2, counter, collect)
        if collect:
            layer_caches.append((attn_cache, ln1_cache, ffn_cache, ln2_cache, ptrace))
    return h, layer_caches if collect else None


def encode(model, ids, counter=None, collect=False, gelu=gelu_cached):
    """The package's encode without its input checks and routing capture."""
    h, layer_caches = run_layers(model, ids, counter, collect, gelu, False)
    return h.reshape(*ids.shape, model.cfg.d), layer_caches, None


def classify(params, pooled):
    pooled = np.atleast_2d(pooled)
    return pooled @ params.head_weight.T + params.head_bias


def classify_forward(model, ids, counter=None, collect=False, gelu=gelu_cached):
    """The package's classify_forward: the top layer on the pooled rows."""
    pooled, layer_caches = run_layers(model, ids, counter, collect, gelu, True)
    return classify(model.params, pooled), (layer_caches, pooled)


def classify_backward(model, fw_state, d_logits):
    """The package's classify_backward, with this module's backward steps.

    fw_state is (layer caches, pooled rows): classify_forward's, or encode's
    bundle with hidden[:, 0], whose top layer ran on every row. Then the
    gradient enters at each sequence's first row and is zero elsewhere: the
    full-row backward. Unlike the package, it has layer 0's plugin compute
    its input gradient too.
    """
    bundle, pooled = fw_state
    grads = {
        "head.weight": d_logits.T @ pooled,
        "head.bias": d_logits.sum(axis=0),
    }
    if not any(model.plugin.layers):
        return grads

    d_pooled = d_logits @ model.params.head_weight
    top_rows = len(bundle[-1][3][0])  # the top layer's second norm: B or B·S rows
    d_h = np.zeros((top_rows, d_pooled.shape[1]), dtype=d_pooled.dtype)
    d_h[::top_rows // len(d_pooled)] = d_pooled

    for l in range(model.cfg.layers - 1, -1, -1):
        attn_cache, ln1_cache, ffn_cache, ln2_cache, ptrace = bundle[l]
        lw = model.params.layers[l]
        d_h, pgrads = _plugin_backward(model.plugin, l, ptrace, d_h, need_input=True)
        for name, g in pgrads.items():
            grads[f"plugin.layer{l}.{name}"] = g
        if l == 0:
            break
        d_r2 = layer_norm_backward(ln2_cache, lw.ln2_gain, d_h)
        d_h1 = d_r2 + ffn_backward(lw, ffn_cache, d_r2)
        d_r1 = layer_norm_backward(ln1_cache, lw.ln1_gain, d_h1)
        d_in = attention_backward(lw, attn_cache, d_r1)
        d_residual = np.zeros_like(d_in)
        d_residual[query_rows(attn_cache)] = d_r1
        d_h = d_residual + d_in
    return grads


def adam_step(state, model, grads, cfg):
    """The package's adam_step without its shape and finiteness checks."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, arr, trainable in iter_named_tensors(model):
        if not trainable:
            continue
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        with np.errstate(all="ignore"):
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
            if cfg.weight_decay:
                update = update + cfg.weight_decay * arr
            arr -= cfg.learning_rate * update


def cross_entropy(logits, label):
    """(loss, d_logits) for one row: -log softmax(logits)[label]."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    d = np.exp(z) / np.exp(z).sum()
    d[label] -= 1.0
    return math.log(np.exp(z).sum()) - z[label], d


def nmi_bruteforce(table) -> float:
    """Normalized mutual information of a contingency table, in scalar loops."""
    rows, cols = len(table), len(table[0])
    n = sum(sum(row) for row in table)
    pi = [sum(table[i][j] for j in range(cols)) / n for i in range(rows)]
    pj = [sum(table[i][j] for i in range(rows)) / n for j in range(cols)]
    info = 0.0
    for i in range(rows):
        for j in range(cols):
            p = table[i][j] / n
            if p > 0:
                info += p * math.log(p / (pi[i] * pj[j]))
    h_i = -sum(p * math.log(p) for p in pi if p > 0)
    h_j = -sum(p * math.log(p) for p in pj if p > 0)
    if h_i == 0.0 or h_j == 0.0:
        return 0.0
    return 2.0 * info / (h_i + h_j)


def adapter_param_count(cfg) -> int:
    """Scalars per adapter instance: 2*d*b + b + d + 2*d."""
    return 2 * cfg.d * cfg.bottleneck + cfg.bottleneck + cfg.d + 2 * cfg.d


def iter_tensor_shapes(cfg, num_labels, kind, spartan_cfg=None, adapter_cfg=None):
    """(name, shape, trainable) of every tensor a model of this configuration
    would hold, walked on zero-stride views as params.build_report walks it."""
    pcfg = plugin_config(kind, cfg.d, spartan_cfg, adapter_cfg)
    model = empty_model(cfg, num_labels, kind, pcfg)
    for name, arr, trainable in iter_named_tensors(model):
        yield name, arr.shape, trainable


def enumerate_params(model) -> dict:
    """Scalars of a constructed model, split frozen / plugin / head."""
    counts = {"frozen": 0, "plugin": 0, "head": 0}
    for name, arr, trainable in iter_named_tensors(model):
        if not trainable:
            counts["frozen"] += arr.size
        elif name.startswith("plugin."):
            counts["plugin"] += arr.size
        else:
            counts["head"] += arr.size
    counts["trainable"] = counts["plugin"] + counts["head"]
    counts["total"] = counts["frozen"] + counts["trainable"]
    return counts


class PositionTrace(NamedTuple):
    x: np.ndarray          # (d,)
    probs: np.ndarray      # (N,) softmax over all parents
    selected: np.ndarray   # (K,) ascending parent indices
    attn: np.ndarray       # (K, c) child attention of each selected parent
    values: np.ndarray     # (K, d) each selected parent's child value mix
    weights: np.ndarray    # (K,) renormalized parent weights


def memory_forward(params, x):
    """The memory layer at one position (d,): route to the top-K parents,
    attend over each one's children, mix with the parent probabilities
    renormalized over the chosen set, add the input. Returns (output, trace)."""
    logits = params.parents @ x
    probs = softmax_stable(logits)
    selected = topk_indices(probs, params.cfg.top_k)
    weights = softmax_stable(logits[selected])  # = probs[selected] / their sum
    attn = np.stack([softmax_stable(params.child_keys[i] @ x) for i in selected])
    values = np.stack([a @ params.child_values[i] for a, i in zip(attn, selected)])
    return x + weights @ values, PositionTrace(x, probs, selected, attn, values, weights)


def memory_backward(params, trace: PositionTrace, d_output) -> SpartanGradients:
    """Exact gradients of memory_forward at one position, selection held fixed."""
    x, w, sel = trace.x, trace.weights, trace.selected
    g_parents = np.zeros_like(params.parents)
    g_keys = np.zeros_like(params.child_keys)
    g_values = np.zeros_like(params.child_values)
    d_x = d_output.copy()
    u = trace.values @ d_output
    d_logits = w * (u - u @ w)
    g_parents[sel] = np.outer(d_logits, x)
    d_x += d_logits @ params.parents[sel]
    for k, i in enumerate(sel):
        attn = trace.attn[k]
        d_v = w[k] * d_output
        g_values[i] = np.outer(attn, d_v)
        d_attn = params.child_values[i] @ d_v
        d_klog = attn * (d_attn - d_attn @ attn)
        g_keys[i] = np.outer(d_klog, x)
        d_x += d_klog @ params.child_keys[i]
    return SpartanGradients(g_parents, g_keys, g_values, d_x)


def memory_backward_dense(params, trace, d_out) -> SpartanGradients:
    """The memory layer's batched backward over a forward_batch trace, with
    the parent gradient taken through a dense (T, N) matrix that is zero off
    the selected parents: two full products, d_logits @ parents and
    d_logits.T @ x. The child gradients go through the trace's groups, one
    product per group and tensor. An oracle for backward_batch, which takes
    the parent gradient through the groups instead."""
    n, c, d = params.cfg.num_parents, params.cfg.children_per_parent, params.cfg.d
    x, w, t = trace.x, trace.agg_weights, trace.x.shape[0]
    key_rows = params.child_keys.reshape(n * c, d)
    value_rows = params.child_values.reshape(n * c, d)
    g_keys, g_values = np.zeros_like(params.child_keys), np.zeros_like(params.child_values)
    gk, gv = g_keys.reshape(n * c, d), g_values.reshape(n * c, d)
    u = np.zeros_like(w)
    d_klogs = []
    for cols, pos, pair, attn in trace.groups:
        coef = attn * w.ravel()[pair][:, None]
        dg = d_out[pos]
        d_attn = (dg @ value_rows[cols].T).reshape(len(pair), c)
        gv[cols] += coef.reshape(len(pos), -1).T @ dg
        u_pairs = np.einsum("ic,ic->i", attn, d_attn)
        u.flat[pair] = u_pairs
        d_klogs.append(coef * (d_attn - u_pairs[:, None]))
    d_logits = np.zeros((t, n), dtype=u.dtype)
    np.put_along_axis(d_logits, trace.selected, w * (u - (u * w).sum(axis=1, keepdims=True)), 1)
    d_x = d_logits @ params.parents + d_out
    g_parents = d_logits.T @ x
    for (cols, pos, _, _), d_klog in zip(trace.groups, d_klogs):
        dk = d_klog.reshape(len(pos), -1)
        gk[cols] += dk.T @ x[pos]
        d_x[pos] += dk @ key_rows[cols]
    return SpartanGradients(g_parents, g_keys, g_values, d_x)


def dense_forward(params, x):
    """The layer without sparsity at one position: every parent contributes
    with its full softmax weight."""
    probs = softmax_stable(params.parents @ x)
    out = x.copy()
    for i in range(params.cfg.num_parents):
        attn = softmax_stable(params.child_keys[i] @ x)
        out = out + probs[i] * (attn @ params.child_values[i])
    return out


def _gaussian(rng, std, *shape):
    return rng.normal(0.0, std, math.prod(shape)).reshape(shape)


def init_backbone(cfg, num_labels, rng):
    """Embeddings ~ N(0, 1); projections ~ N(0, 1/fan_in), biases zero, norms
    at identity; the head at zero."""
    d, f = cfg.d, cfg.ffn_dim
    sd = 1.0 / np.sqrt(d)
    token_emb = _gaussian(rng, 1.0, cfg.vocab_hash_buckets, d)
    pos_emb = _gaussian(rng, 1.0, cfg.max_seq_len, d)
    layers = []
    for _ in range(cfg.layers):
        layers.append(LayerWeights(
            wq=_gaussian(rng, sd, d, d), wk=_gaussian(rng, sd, d, d),
            wv=_gaussian(rng, sd, d, d), wo=_gaussian(rng, sd, d, d),
            bq=np.zeros(d), bk=np.zeros(d), bv=np.zeros(d), bo=np.zeros(d),
            ln1_gain=np.ones(d), ln1_bias=np.zeros(d),
            w1=_gaussian(rng, sd, f, d), b1=np.zeros(f),
            w2=_gaussian(rng, 1.0 / np.sqrt(f), d, f), b2=np.zeros(d),
            ln2_gain=np.ones(d), ln2_bias=np.zeros(d),
        ))
    return BackboneParams(token_emb=token_emb, pos_emb=pos_emb, layers=layers,
                          head_weight=np.zeros((num_labels, d)), head_bias=np.zeros(num_labels))


def init_memory(cfg, rng):
    """Parents and child keys ~ N(0, 1/d); child values zero."""
    n, c, d = cfg.num_parents, cfg.children_per_parent, cfg.d
    std = 1.0 / np.sqrt(d)
    parents = _gaussian(rng, std, n, d)
    child_keys = _gaussian(rng, std, n, c, d)
    return SpartanLayerParams(cfg, parents, child_keys, np.zeros((n, c, d)))


def init_adapter(cfg, rng):
    """Down projection ~ N(0, 1/d); up projection and biases zero; norm at
    identity."""
    b, d = cfg.bottleneck, cfg.d
    return AdapterParams(cfg, down=_gaussian(rng, 1.0 / np.sqrt(d), b, d), down_bias=np.zeros(b),
                         up=np.zeros((d, b)), up_bias=np.zeros(d),
                         norm_gain=np.ones(d), norm_bias=np.zeros(d))


PLUGIN_INIT = {"none": (None, 0), "spartan": (init_memory, 1),
               "adapter": (init_adapter, 1), "adapterx2": (init_adapter, 2)}


def make_plugin(kind, layers, plugin_cfg, rng):
    """Per layer, a stack of freshly initialized instances of the kind."""
    init, depth = PLUGIN_INIT[kind]
    return PluginSpec(kind, [tuple(init(plugin_cfg, rng) for _ in range(depth))
                             for _ in range(layers)])


def bench_plugin_spec(cfg, layers, rng):
    """The bench's plugin at float64: initialized, then child values and the
    adapter's up projection drawn at N(0, 1/d) and N(0, 1/bottleneck)."""
    kind = cfg.architecture
    plugin_cfg = None
    if kind == "spartan":
        plugin_cfg = SpartanConfig(d=cfg.d, num_parents=cfg.num_parents,
                                   children_per_parent=cfg.children_per_parent, top_k=cfg.top_k)
    elif kind != "none":
        plugin_cfg = AdapterConfig(d=cfg.d, bottleneck=cfg.bottleneck)
    spec = make_plugin(kind, layers, plugin_cfg, rng)
    start_std = {"child_values": 1.0 / np.sqrt(cfg.d), "up": 1.0 / np.sqrt(cfg.bottleneck)}
    for stack in spec.layers:
        for inst in stack:
            for name, std in start_std.items():
                if hasattr(inst, name):
                    arr = getattr(inst, name)
                    arr[...] = rng.normal(0.0, std, arr.shape)
    return spec


def bench_model(cfg, rng):
    """The bench's model at float64."""
    bb_cfg = BackboneConfig(d=cfg.d, layers=cfg.layers, heads=cfg.heads, ffn_dim=cfg.ffn_dim,
                            vocab_hash_buckets=cfg.vocab_hash_buckets,
                            max_seq_len=max(cfg.seq_len, 2))
    params = init_backbone(bb_cfg, cfg.num_labels, rng)
    return Model(bb_cfg, params, bench_plugin_spec(cfg, cfg.layers, rng))
