"""The three benchmark workloads.

Each workload is a closed loop with one caller in one process: the next batch
is issued only after the previous one returns. There are no queues, pools or
contended locks, so no layer has a wait time to record.

A workload builds its inputs from the seed, sets up (repeated
`SETUP_REPS` times; `setup_s` is the median import time of a fresh
interpreter plus the median build), measures for the requested seconds, and
then checks its outputs. Set-up, throughput and latency times are scaled to
a reference host speed by the probe in `hostspeed` (see `Timings`). The
checks run outside the timed regions and feed `attempted` and `failed`.

With tracing on, a workload measures an untraced baseline and a run with
every public layer function wrapped (see `LAYER_WRAPS`); the per-layer
metrics come from the spans of the wrapped run only.
"""

from __future__ import annotations

import copy
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from spartan import adapter, backbone, bench, checkpoint, data, memory, training
from spartan.numerics import MacCounter, make_rng

import hostspeed
from memref import forward_row, sparse_macs_per_position
from tracing import Tracer

SETUP_REPS = 5
TRACE_ROUNDS = 10
NO_WAIT = "none: closed loop, one caller, no queues or contended locks"


@dataclass
class Checks:
    """Tally of checked operations; `failures` names the first few that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Outcome:
    """What one workload run measured. Values are (number, unit) pairs."""

    dtype: str
    end_to_end: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)
    tracer: Tracer | None = None


def derive_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


class RepSeconds(NamedTuple):
    """Median seconds of repeated set-up work: as measured, and scaled to the
    reference host speed by the probes taken around each repeat."""

    wall: float
    scaled: float


def timed_reps(work, reps: int = SETUP_REPS):
    """Run `work` `reps` times; return the last result and its RepSeconds."""
    wall, scaled, result = [], [], None
    for _ in range(reps):
        result = None  # release the previous result before the next one
        before = hostspeed.probe()
        t0 = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - t0
        around = (before + hostspeed.probe()) / 2
        wall.append(seconds)
        scaled.append(seconds * hostspeed.REFERENCE_S / around)
    return result, RepSeconds(statistics.median(wall), statistics.median(scaled))


@dataclass
class Timings:
    """Per-call seconds of a timed phase: as measured (`wall`) and scaled to
    the reference host speed (`scaled`), with the host-speed probe seconds."""

    wall: np.ndarray
    scaled: np.ndarray
    probes: np.ndarray

    @classmethod
    def from_probed(cls, wall: list[float], probes: list[float]) -> "Timings":
        """`probes` has one probe before the first call and one after each call;
        a call is scaled by the mean of the two probes around it."""
        wall, probes = np.asarray(wall), np.asarray(probes)
        around = (probes[:-1] + probes[1:]) / 2
        return cls(wall, wall * hostspeed.REFERENCE_S / around, probes)

    def __add__(self, other: "Timings") -> "Timings":
        return Timings(np.concatenate([self.wall, other.wall]),
                       np.concatenate([self.scaled, other.scaled]),
                       np.concatenate([self.probes, other.probes]))


def closed_loop(step, seconds: float, after=None) -> Timings:
    """Call step(i) back to back for `seconds`, probing the host speed before
    the first call and after each call.

    `after(i, result)` runs outside the timed call, for output checks.
    """
    wall, probes = [], [hostspeed.probe()]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        result = step(i)
        t1 = time.perf_counter()
        wall.append(t1 - t0)
        probes.append(hostspeed.probe())
        if after is not None:
            after(i, result)
        i += 1
        if t1 >= deadline:
            return Timings.from_probed(wall, probes)


def throughput(seconds, instances_per_call: int) -> float:
    return float(instances_per_call * len(seconds) / np.sum(seconds))


def loop_metrics(out: Outcome, timings: Timings, instances_per_call: int,
                 import_s: RepSeconds, build_s: RepSeconds) -> None:
    out.end_to_end.update({
        "setup_s": (import_s.scaled + build_s.scaled, "s"),
        "inst_per_s": (throughput(timings.scaled, instances_per_call), "1/s"),
        "batch_ms_p50": (percentile_ms(timings.scaled, 50), "ms"),
        "batch_ms_p90": (percentile_ms(timings.scaled, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    out.extra.update({
        "batch_samples": (len(timings.wall), "count"),
        "wall_inst_per_s": (throughput(timings.wall, instances_per_call), "1/s"),
        "wall_batch_ms_p50": (percentile_ms(timings.wall, 50), "ms"),
        "wall_batch_ms_p90": (percentile_ms(timings.wall, 90), "ms"),
        "host_probe_ms_p50": (percentile_ms(timings.probes, 50), "ms"),
        "host_probe_reference_ms": (hostspeed.REFERENCE_S * 1e3, "ms"),
        "setup_wall_s": (import_s.wall + build_s.wall, "s"),
        "setup_import_s": (import_s.scaled, "s"),
        "setup_build_s": (build_s.scaled, "s"),
    })


# --- tracing ---------------------------------------------------------------

def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _describe_memory_forward(args, kwargs, result):
    out, trace = result
    info = {"t": out.shape[0], "k": _first_arg(args, kwargs, "params").cfg.top_k,
            "d": out.shape[1], "itemsize": out.itemsize}
    if trace is not None:
        info["groups"] = len(trace.groups)
        info["trace_bytes"] = batch_trace_bytes(trace)
    return info


def _describe_memory_backward(args, kwargs, result):
    d_input = result.d_input
    return {"t": d_input.shape[0], "k": _first_arg(args, kwargs, "params").cfg.top_k,
            "d": d_input.shape[1], "itemsize": d_input.itemsize}


def _describe_encode(args, kwargs, result):
    hidden = result[0]
    b, s = hidden.shape[:2]
    cfg = _first_arg(args, kwargs, "model").cfg
    return {"b": b, "s": s, "out_itemsize": hidden.itemsize,
            "macs": b * encoder_macs_per_sequence(cfg, s)}


LAYER_WRAPS = (
    # (module, attribute the callers look up, span name, describe)
    (memory, "forward_batch", "memory.forward_batch", _describe_memory_forward),
    (memory, "backward_batch", "memory.backward_batch", _describe_memory_backward),
    (memory, "topk_rows", "numerics.topk_rows@memory", None),
    (memory, "softmax_rows", "numerics.softmax_rows@memory", None),
    (backbone, "encode", "backbone.encode", _describe_encode),
    (backbone, "gelu_cached", "numerics.gelu_cached@backbone", None),
    (backbone, "layer_norm", "numerics.layer_norm@backbone", None),
    (adapter, "adapter_forward", "adapter.adapter_forward", None),
    (adapter, "gelu_cached", "numerics.gelu_cached@adapter", None),
    (adapter, "layer_norm", "numerics.layer_norm@adapter", None),
    (training, "train", "training.train", None),
    (training, "evaluate", "training.evaluate", None),
    (training, "tokenize", "backbone.tokenize", None),
    (training, "compute_batch_gradients", "training.compute_batch_gradients", None),
    (training, "classify_forward", "backbone.classify_forward", None),
    (training, "classify_backward", "backbone.classify_backward", None),
    (training, "adam_step", "training.adam_step", None),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", None),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
)


def install_layer_tracer(tracer: Tracer | None = None) -> Tracer:
    tracer = tracer or Tracer()
    for owner, attr, name, describe in LAYER_WRAPS:
        tracer.wrap(owner, attr, name, describe)
    return tracer


def interleaved_loops(step, seconds: float, after):
    """Alternate untraced and traced closed loops, TRACE_ROUNDS of each, so
    that drifting load on the host hits both sides alike.

    Returns (tracer, untraced Timings, traced Timings).
    """
    tracer, base, traced = Tracer(), [], []
    window = seconds / (2 * TRACE_ROUNDS)
    for _ in range(TRACE_ROUNDS):
        base.append(closed_loop(step, window, after))
        install_layer_tracer(tracer)
        try:
            traced.append(closed_loop(step, window, after))
        finally:
            tracer.restore()
    return tracer, sum(base[1:], base[0]), sum(traced[1:], traced[0])


def batch_trace_bytes(trace) -> int:
    """Computed size of a memory.BatchTrace: its arrays plus its per-group arrays."""
    arrays = [trace.x, trace.parent_probs, trace.selected, trace.agg_weights, trace.output]
    for _, t_idx, k_idx, attn in trace.groups:
        arrays += [t_idx, k_idx, attn]
    return sum(a.nbytes for a in arrays)


def encoder_macs_per_sequence(cfg: backbone.BackboneConfig, s: int) -> int:
    """Computed forward MACs of the frozen encoder for one sequence of s tokens:
    Q/K/V/O projections, attention scores and context, and the two FFN
    products, per layer. Plugin and head are excluded."""
    d, f = cfg.d, cfg.ffn_dim
    return cfg.layers * (4 * s * d * d + 2 * s * s * d + 2 * s * d * f)


def _mean(xs) -> float:
    xs = list(xs)
    return float(sum(xs) / len(xs)) if xs else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans; a layer that did not run reads 0.

    Where a training.train span exists, per-call layer figures use only the
    spans inside it, so that the one large evaluate batch does not skew the
    per-step averages; checkpoint figures use their own spans.
    """
    own = tracer.self_seconds()
    scopes = [(s.start, s.end) for s in tracer.named("training.train")]

    def named(*names):
        found = tracer.named(*names)
        if not scopes:
            return found
        return [s for s in found if any(a <= s.start and s.end <= b for a, b in scopes)]

    def self_ms(*names):
        return _mean(own[s.sid] * 1e3 for s in named(*names))

    def busy_ms(*names):
        return _mean(s.seconds * 1e3 for s in named(*names))

    fwd = named("memory.forward_batch")
    bwd = named("memory.backward_batch")
    with_trace = [s for s in fwd if "groups" in s.attrs]
    moved = (sum(3 * s.attrs["t"] * s.attrs["k"] * s.attrs["d"] * s.attrs["itemsize"] for s in fwd)
             + sum(7 * s.attrs["t"] * s.attrs["k"] * s.attrs["d"] * s.attrs["itemsize"] for s in bwd))
    encodes = named("backbone.encode")
    grads = named("training.compute_batch_gradients")
    adams = named("training.adam_step")
    steps = [g.seconds + a.seconds for g, a in zip(grads, adams)]
    saves = tracer.named("checkpoint.save_checkpoint")
    loads = tracer.named("checkpoint.load_checkpoint")
    return {
        "memory.fwd_ms": (self_ms("memory.forward_batch"), "ms"),
        "memory.bwd_ms": (self_ms("memory.backward_batch"), "ms"),
        "memory.groups_per_call": (_mean(s.attrs["groups"] for s in with_trace), "count"),
        "memory.gather_mb": (moved / len(fwd) / 1e6 if fwd else 0.0, "MB"),
        "memory.trace_mb": (_mean(s.attrs["trace_bytes"] for s in with_trace) / 1e6, "MB"),
        "numerics.topk_ms": (busy_ms("numerics.topk_rows@memory"), "ms"),
        "numerics.softmax_ms": (busy_ms("numerics.softmax_rows@memory"), "ms"),
        "numerics.gelu_ms": (busy_ms("numerics.gelu_cached@backbone",
                                     "numerics.gelu_cached@adapter"), "ms"),
        "numerics.layer_norm_ms": (busy_ms("numerics.layer_norm@backbone",
                                           "numerics.layer_norm@adapter"), "ms"),
        "backbone.fwd_self_ms": (self_ms("backbone.encode"), "ms"),
        "backbone.bwd_self_ms": (self_ms("backbone.classify_backward"), "ms"),
        "backbone.tokenize_ms": (busy_ms("backbone.tokenize"), "ms"),
        "backbone.macs_per_inst": (
            sum(s.attrs["macs"] for s in encodes) / sum(s.attrs["b"] for s in encodes)
            if encodes else 0.0, "count"),
        "backbone.out_dtype_bytes": (max((s.attrs["out_itemsize"] for s in encodes), default=0),
                                     "bytes"),
        "adapter.fwd_ms": (self_ms("adapter.adapter_forward"), "ms"),
        "training.step_ms_p50": (percentile_ms(steps, 50) if steps else 0.0, "ms"),
        "training.step_ms_p90": (percentile_ms(steps, 90) if steps else 0.0, "ms"),
        "training.adam_ms": (busy_ms("training.adam_step"), "ms"),
        "checkpoint.save_s": (float(sum(s.seconds for s in saves)), "s"),
        "checkpoint.load_s": (float(sum(s.seconds for s in loads)), "s"),
    }


def finish_trace(out: Outcome, tracer: Tracer, traced_rate: float, untraced_rate: float,
                 counted: dict) -> None:
    """Fill the per-layer metrics; `counted` holds MacCounter-derived values."""
    out.per_layer.update(layer_metrics(tracer))
    out.per_layer.update({
        "memory.macs_per_pos": (0.0, "count"),
        "memory.mac_ratio": (0.0, "ratio"),
        "adapter.macs_per_pos": (0.0, "count"),
        "checkpoint.mb": (0.0, "MB"),
        "training.final_loss": (0.0, "nats"),
    })
    out.per_layer.update(counted)
    out.per_layer["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "frac")
    out.tracer = tracer
    out.extra["untraced_inst_per_s"] = (untraced_rate, "1/s")
    out.extra["traced_inst_per_s"] = (traced_rate, "1/s")


# --- finetune --------------------------------------------------------------

FT_TASK = data.SyntheticTopicTask(num_topics=4, examples_per_topic=250,
                                  words_per_example=10, noise_rate=0.05)
FT_BACKBONE = backbone.BackboneConfig(d=128, layers=4, heads=4, ffn_dim=256,
                                      vocab_hash_buckets=4096, max_seq_len=64)
FT_MEMORY = memory.SpartanConfig(d=128, num_parents=16, children_per_parent=3, top_k=8)
FT_BATCH = 16
FT_LR = 1e-3
# Training steps per requested second, so a run lasts about --seconds on a
# 2-core Xeon with one BLAS thread; fixed per (seed, seconds) so the loss is
# deterministic. MIN_STEPS keeps held-out accuracy far above the 0.90 bar.
FT_STEPS_PER_SECOND = 11
FT_MIN_STEPS = 50
FT_MIN_ACCURACY = 0.90


def _finetune_build(seed: int):
    s_data, s_eval, s_backbone, s_plugin, s_train = derive_seeds(seed, 5)
    train_set = data.generate_topic_dataset(FT_TASK, make_rng(s_data))
    eval_set = data.generate_topic_dataset(FT_TASK, make_rng(s_eval))
    params = backbone.init_backbone(FT_BACKBONE, FT_TASK.num_topics, make_rng(s_backbone))
    plugin = backbone.make_plugin("spartan", FT_BACKBONE, make_rng(s_plugin), spartan_cfg=FT_MEMORY)
    model = backbone.Model(FT_BACKBONE, params, plugin)
    # warm-up: one batch of gradients, which leaves the model unchanged
    warm = train_set[:FT_BATCH]
    training.compute_batch_gradients(model, [backbone.tokenize(ex.text, FT_BACKBONE) for ex in warm],
                                     np.asarray([ex.label for ex in warm]))
    return model, train_set, eval_set, s_train


def _finetune_train(model, train_set, steps: int, s_train: int):
    """One training.train call; returns (history, Timings of its steps).

    A step is the gap between consecutive optimizer updates. A wrapper on
    training.adam_step stamps each update and then probes the host speed;
    the probe is left out of the next gap.
    """
    adam_step = training.adam_step
    wall, probes = [], [hostspeed.probe()]
    since = 0.0

    def stamped(*args, **kwargs):
        nonlocal since
        result = adam_step(*args, **kwargs)
        wall.append(time.perf_counter() - since)
        probes.append(hostspeed.probe())
        since = time.perf_counter()
        return result

    cfg = training.TrainConfig(learning_rate=FT_LR, batch_size=FT_BATCH, steps=steps, seed=s_train)
    training.adam_step = stamped
    try:
        since = time.perf_counter()
        result = training.train(model, train_set, cfg)
    finally:
        training.adam_step = adam_step
    return result.history, Timings.from_probed(wall, probes)


def run_finetune(seed: int, seconds: float, trace: bool, import_s: RepSeconds) -> Outcome:
    (model, train_set, eval_set, s_train), build_s = timed_reps(lambda: _finetune_build(seed))
    steps = max(FT_MIN_STEPS, round(FT_STEPS_PER_SECOND * seconds))
    out = Outcome(dtype=str(model.params.token_emb.dtype))

    if trace:
        # untraced baseline on a copy, a quarter as long as the traced run
        _, base = _finetune_train(copy.deepcopy(model), train_set, max(1, steps // 4), s_train)
        tracer = install_layer_tracer()
    try:
        history, step_s = _finetune_train(model, train_set, steps, s_train)
        accuracy = training.evaluate(model, eval_set)
        path = os.path.join(results_dir(), f".ckpt-{os.getpid()}.json")
        try:
            t0 = time.perf_counter()
            checkpoint.save_checkpoint(path, model, seed=s_train)
            t1 = time.perf_counter()
            loaded, _ = checkpoint.load_checkpoint(path)
            t2 = time.perf_counter()
            ckpt_mb = os.path.getsize(path) / 1e6
        finally:
            if os.path.exists(path):
                os.remove(path)
    finally:
        if trace:
            tracer.restore()

    losses = [rec["loss"] for rec in history]
    tail = losses[-max(1, len(losses) // 10):]
    final_loss = float(np.mean(tail))

    checks = out.checks
    for rec in history:
        checks.check(np.isfinite(rec["loss"]), f"step {rec['step']}: non-finite loss")
    checks.check(accuracy >= FT_MIN_ACCURACY, f"held-out accuracy {accuracy:.3f} < {FT_MIN_ACCURACY}")
    saved = list(backbone.iter_named_tensors(model))
    restored = {name: arr for name, arr, _ in backbone.iter_named_tensors(loaded)}
    checks.check(len(saved) == len(restored), "checkpoint tensor count changed")
    for name, arr, _ in saved:
        back = restored.get(name)
        same = (back is not None and back.dtype == arr.dtype and back.shape == arr.shape
                and back.tobytes() == arr.tobytes())
        checks.check(same, f"checkpoint tensor {name} not bitwise equal")

    probe = _finetune_probe_ids(eval_set)
    counter = MacCounter()
    backbone.encode(model, probe, counter=counter)
    per_pos = counter.total / (probe.size * FT_BACKBONE.layers)
    closed = sparse_macs_per_position(FT_MEMORY.num_parents, FT_MEMORY.children_per_parent,
                                      FT_MEMORY.top_k, FT_MEMORY.d)
    checks.check(per_pos == closed, f"MacCounter {per_pos} per position != closed form {closed}")

    out.extra.update({
        "steps": (steps, "count"),
        "final_loss": (final_loss, "nats"),
        "ckpt_roundtrip_s": (t2 - t0, "s"),
        "ckpt_save_s": (t1 - t0, "s"),
        "ckpt_load_s": (t2 - t1, "s"),
        "ckpt_mb": (ckpt_mb, "MB"),
        "heldout_accuracy": (accuracy, "frac"),
    })
    if not trace:
        loop_metrics(out, step_s, FT_BATCH, import_s, build_s)
        return out

    finish_trace(out, tracer, throughput(step_s.scaled, FT_BATCH), throughput(base.scaled, FT_BATCH), {
        "memory.macs_per_pos": (per_pos, "count"),
        "memory.mac_ratio": (closed / per_pos, "ratio"),
        "checkpoint.mb": (ckpt_mb, "MB"),
        "training.final_loss": (final_loss, "nats"),
    })
    return out


def _finetune_probe_ids(eval_set) -> np.ndarray:
    """The first FT_BATCH held-out examples whose length matches the first one."""
    token_lists = [backbone.tokenize(ex.text, FT_BACKBONE) for ex in eval_set]
    same = [ids for ids in token_lists if len(ids) == len(token_lists[0])]
    return np.stack(same[:FT_BATCH])


# --- encode-f32 ------------------------------------------------------------

ENC_BATCH = 8
ENC_SEQ = 32
ENC_DISTINCT = 8
ENC_TOL = 1e-3  # f32-level agreement with the float64 build, absolute and relative


def _encode_cfg(seed: int, precision: str) -> bench.BenchConfig:
    return bench.BenchConfig(architecture="adapter", precision=precision, seed=seed,
                             d=256, layers=4, heads=4, ffn_dim=1024, bottleneck=64,
                             batch_size=ENC_BATCH, seq_len=ENC_SEQ)


def _encode_build(seed: int, precision: str):
    s_model, s_ids = derive_seeds(seed, 2)
    cfg = _encode_cfg(s_model, precision)
    model = bench.build_bench_model(cfg, make_rng(s_model))
    ids = make_rng(s_ids).integers(0, cfg.vocab_hash_buckets, size=(ENC_DISTINCT, ENC_BATCH, ENC_SEQ))
    return model, ids


def run_encode_f32(seed: int, seconds: float, trace: bool, import_s: RepSeconds) -> Outcome:
    def build():
        model, ids = _encode_build(seed, "f32")
        for i in range(2):
            backbone.encode(model, ids[i])
        return model, ids

    (model, ids), build_s = timed_reps(build)
    out = Outcome(dtype=str(model.params.token_emb.dtype))
    checks = out.checks
    dtypes = set()

    def step(i):
        return backbone.encode(model, ids[i % ENC_DISTINCT])[0]

    def after(i, hidden):
        dtypes.add(str(hidden.dtype))
        checks.check(np.isfinite(hidden).all(), f"batch {i}: non-finite encoder output")

    if trace:
        tracer, base, latencies = interleaved_loops(step, seconds, after)
    else:
        latencies = closed_loop(step, seconds, after)

    reference, _ = _encode_build(seed, "f64")
    probe = backbone.encode(model, ids[0])[0]
    expect = backbone.encode(reference, ids[0])[0]
    checks.check(np.allclose(probe, expect, rtol=ENC_TOL, atol=ENC_TOL),
                 f"f32 build differs from f64 build by {np.abs(probe - expect).max():.3e}")
    out.extra.update({
        "executed_out_dtypes": (sorted(dtypes), "dtype"),
        "f64_max_abs_err": (float(np.abs(probe - expect).max()), "abs"),
    })
    if not trace:
        loop_metrics(out, latencies, ENC_BATCH, import_s, build_s)
        return out

    counter = MacCounter()
    backbone.encode(model, ids[0], counter=counter)
    positions = ENC_BATCH * ENC_SEQ * model.cfg.layers
    finish_trace(out, tracer, throughput(latencies.scaled, ENC_BATCH),
                 throughput(base.scaled, ENC_BATCH), {
        "adapter.macs_per_pos": (
            (counter.get("adapter_down") + counter.get("adapter_up")) / positions, "count"),
    })
    return out


# --- memory-wide -----------------------------------------------------------

MW_CFG = memory.SpartanConfig(d=768, num_parents=256, children_per_parent=3, top_k=8)
MW_SEQS = 32
MW_SEQ_LEN = 32
MW_BLOCKS = 4
MW_PROBE_ROWS = 16
MW_TOL = 1e-4       # f32 output vs the float64 per-row reference, absolute and relative
MW_TIE_GAP = 1e-4   # logit gap below which the K-th parent is ambiguous at f32


def _memory_build(seed: int):
    s_params, s_inputs = derive_seeds(seed, 2)
    cfg = MW_CFG
    rng = make_rng(s_params)
    p = memory.init_params(cfg, rng)
    p.child_values[...] = rng.normal(0.0, 1.0 / np.sqrt(cfg.d), p.child_values.shape)
    params = memory.SpartanLayerParams(cfg, p.parents.astype(np.float32),
                                       p.child_keys.astype(np.float32),
                                       p.child_values.astype(np.float32))
    rng = make_rng(s_inputs)
    t = MW_SEQS * MW_SEQ_LEN
    xs = rng.standard_normal((MW_BLOCKS, t, cfg.d), dtype=np.float32)
    d_outs = rng.standard_normal((MW_BLOCKS, t, cfg.d), dtype=np.float32)
    trace = memory.forward_batch(params, xs[0], None, True)[1]
    memory.backward_batch(params, trace, d_outs[0])
    return params, xs, d_outs


def _unselected_rows_zero(grads, selected, n: int) -> bool:
    unused = ~np.isin(np.arange(n), selected)
    return bool((grads.parents[unused] == 0).all() and (grads.child_keys[unused] == 0).all()
                and (grads.child_values[unused] == 0).all())


def run_memory_wide(seed: int, seconds: float, trace: bool, import_s: RepSeconds) -> Outcome:
    (params, xs, d_outs), build_s = timed_reps(lambda: _memory_build(seed))
    cfg = MW_CFG
    out = Outcome(dtype=str(xs.dtype))
    checks = out.checks
    dtypes = set()

    def step(i):
        b = i % MW_BLOCKS
        y, tr = memory.forward_batch(params, xs[b], None, True)
        return y, tr, memory.backward_batch(params, tr, d_outs[b])

    def after(i, result):
        y, tr, grads = result
        dtypes.add(str(y.dtype))
        checks.check(np.isfinite(y).all() and np.isfinite(grads.d_input).all(),
                     f"block {i}: non-finite output or input gradient")
        checks.check(_unselected_rows_zero(grads, tr.selected, cfg.num_parents),
                     f"block {i}: nonzero gradient row for an unselected parent")

    if trace:
        tracer, base, latencies = interleaved_loops(step, seconds, after)
    else:
        latencies = closed_loop(step, seconds, after)

    closed = sparse_macs_per_position(cfg.num_parents, cfg.children_per_parent, cfg.top_k, cfg.d)
    counted, ambiguous = [], 0
    for b in range(MW_BLOCKS):
        counter = MacCounter()
        memory.forward_batch(params, xs[b], counter, False)
        counted.append(counter.total / xs.shape[1])
        checks.check(counter.total == closed * xs.shape[1],
                     f"block {b}: MacCounter {counter.total} != closed form {closed * xs.shape[1]}")

        rows = xs[b, :MW_PROBE_ROWS]
        y, tr = memory.forward_batch(params, rows, None, True)
        for r in range(MW_PROBE_ROWS):
            ref, sel, decidable = forward_row(params.parents, params.child_keys, params.child_values,
                                              cfg.top_k, rows[r], MW_TIE_GAP)
            if not decidable:
                ambiguous += 1
                continue
            checks.check(np.array_equal(sel, tr.selected[r])
                         and np.allclose(y[r], ref, rtol=MW_TOL, atol=MW_TOL),
                         f"block {b} row {r}: forward_batch differs from the per-row reference")
        grads = memory.backward_batch(params, tr, d_outs[b, :MW_PROBE_ROWS])
        checks.check(_unselected_rows_zero(grads, tr.selected, cfg.num_parents),
                     f"block {b} probe: nonzero gradient row for an unselected parent")

    out.extra.update({
        "executed_out_dtypes": (sorted(dtypes), "dtype"),
        "ambiguous_probe_rows": (ambiguous, "count"),
    })
    if not trace:
        loop_metrics(out, latencies, MW_SEQS, import_s, build_s)
        return out

    per_pos = statistics.median(counted)
    finish_trace(out, tracer, throughput(latencies.scaled, MW_SEQS),
                 throughput(base.scaled, MW_SEQS), {
        "memory.macs_per_pos": (per_pos, "count"),
        "memory.mac_ratio": (closed / per_pos, "ratio"),
    })
    return out


def results_dir() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(path, exist_ok=True)
    return path


WORKLOADS = {
    "finetune": run_finetune,
    "encode-f32": run_encode_f32,
    "memory-wide": run_memory_wide,
}
