"""CPU throughput harness for the plugin architectures.

Three modes: `inference` runs the forward pass `training.evaluate` runs
(`classify_forward`, whose top layer runs on the pooled rows only),
`finetune` measures training steps (forward + backward + optimizer update),
and `micro` measures a single plugin layer in isolation. End-to-end numbers
are dominated by the frozen backbone, so the layer-level contrast between
architectures is read from micro mode.

Every mode runs its batches on the calling thread, and BLAS runs one thread
while a bench measures; no cgroup or frequency emulation. The finetune mode
times the training step itself: `training.compute_batch_gradients` followed
by `adam_step`. Timing uses the monotonic clock. Wall-clock comparisons
between architectures should interleave their measurement windows (see
compare_throughput) because machine load drifts on shared hosts; a single
pair of back-to-back runs is not trustworthy.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import json
import math
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import training
from .backbone import (
    PLUGINS,
    BackboneConfig,
    Model,
    PluginSpec,
    _plugin_forward,
    classify_forward,
    init_backbone,
    make_plugin,
    plugin_kind,
    plugin_slots,
    tensor_slots,
)
from .numerics import MacCounter, ParameterError, check_counts, make_rng

ARCHITECTURES = tuple(PLUGINS)


@dataclass
class BenchConfig:
    architecture: str = "spartan"
    batch_size: int = 32
    seq_len: int = 32
    warmup_batches: int = 2
    measure_seconds: float = 2.0
    seed: int = 0
    precision: str = "f32"
    # model shapes; defaults are the full-size comparison configuration
    d: int = 768
    layers: int = 12
    heads: int = 12
    ffn_dim: int = 3072
    num_parents: int = 16
    children_per_parent: int = 3
    top_k: int = 8
    bottleneck: int = 64
    num_labels: int = 2
    vocab_hash_buckets: int = 2048

    def __post_init__(self):
        plugin_kind(self.architecture)
        check_counts(vars(self), batch_size=1, seq_len=1, warmup_batches=0, seed=0)
        if not (math.isfinite(self.measure_seconds) and self.measure_seconds >= 1):
            raise ParameterError(
                f"measure_seconds must be finite and >= 1, got {self.measure_seconds}")
        if self.precision not in ("f32", "f64"):
            raise ParameterError(f"precision must be f32 or f64, got {self.precision!r}")


@dataclass
class BenchReport:
    instances_per_minute: float
    macs_per_instance: int
    macs_per_position_per_plugin: int
    instances: int
    elapsed_seconds: float
    mode: str
    config: dict
    environment: dict
    output_dtype: str          # dtype of the timed step's output, as executed


def _blas_library() -> dict:
    """The BLAS numpy was built against, from its build configuration."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown"}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")
            if blas.get(key) is not None}


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread and restore
    the previous count after it; yields the count that ran, or "unpinned" if
    numpy loaded no such library or it lacks the thread symbols."""
    paths = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                   "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD)  # the copy numpy runs, never another
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        get = None
    if get is None:
        yield "unpinned"
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(1)
    try:
        yield get()
    finally:
        set_(before)


def environment_fingerprint(cfg: BenchConfig, blas_threads) -> dict:
    """What the run executed on. blas_threads is the BLAS thread count that
    the measured window ran, or "unpinned" (the library default, which
    blas_threads_env may set)."""
    return {
        "cores": os.cpu_count(),
        "blas_threads": blas_threads,
        "precision": cfg.precision,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_library(),
        "blas_threads_env": {var: os.environ.get(var)
                             for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def count_macs(architecture: str, d: int, num_parents: int = 16,
               children_per_parent: int = 3, top_k: int = 8, bottleneck: int = 64) -> int:
    """Closed-form multiply-accumulates per position for the plugin alone.

    Sparse memory: N*d parent scoring plus K*c*2*d child key/value work.
    Adapter: 2*d*b for the two projections; its normalization is element
    ops, not MACs.
    """
    if architecture == "spartan":
        return num_parents * d + 2 * top_k * children_per_parent * d
    if architecture == "adapter":
        return 2 * d * bottleneck
    if architecture == "adapterx2":
        return 4 * d * bottleneck
    if architecture == "none":
        return 0
    raise ParameterError(f"architecture {architecture!r} not one of {ARCHITECTURES}")


def _dtype(cfg: BenchConfig):
    return np.float32 if cfg.precision == "f32" else np.float64


def build_plugin_spec(cfg: BenchConfig, layers: int, rng: np.random.Generator) -> PluginSpec:
    """Plugin parameters for `layers` instances at the bench shapes, randomized
    (zero-initialized matrices included; identity-at-init would undercount
    real work). At f64 it also imports scipy's erf, which numerics loads on
    the first float64 gelu, so that no timed batch pays for the import."""
    if cfg.precision == "f64":
        import scipy.special  # noqa: F401
    # heads=1: the throwaway config only sizes plugin tensors
    bb_cfg = BackboneConfig(d=cfg.d, layers=layers, heads=1, ffn_dim=cfg.ffn_dim,
                            vocab_hash_buckets=cfg.vocab_hash_buckets,
                            max_seq_len=max(cfg.seq_len, 2))
    # the plugin config is read from the bench fields of the same names
    config = plugin_kind(cfg.architecture).config
    values = {f.name: getattr(cfg, f.name) for f in fields(config)} if config else {}
    spec = make_plugin(cfg.architecture, bb_cfg, rng, config(**values) if config else None)
    # matrices that init leaves at zero, drawn here so that every plugin does
    # real work, at N(0, 1/fan_in)
    for stack in spec.layers:
        for inst in stack:
            for fname, shape, init in inst.shapes(inst.cfg):
                if init == "zeros" and len(shape) > 1:
                    getattr(inst, fname)[...] = rng.normal(0.0, 1.0 / np.sqrt(shape[-1]), shape)
    _cast(plugin_slots(spec), _dtype(cfg))
    return spec


def _cast(slots, dtype) -> None:
    """Replace each slot's tensor by its cast to dtype (no copy if it has it)."""
    for _, owner, fname, _ in slots:
        setattr(owner, fname, getattr(owner, fname).astype(dtype, copy=False))


def build_bench_model(cfg: BenchConfig, rng: np.random.Generator) -> Model:
    bb_cfg = BackboneConfig(d=cfg.d, layers=cfg.layers, heads=cfg.heads, ffn_dim=cfg.ffn_dim,
                            vocab_hash_buckets=cfg.vocab_hash_buckets,
                            max_seq_len=max(cfg.seq_len, 2))
    params = init_backbone(bb_cfg, cfg.num_labels, rng)
    model = Model(bb_cfg, params, build_plugin_spec(cfg, cfg.layers, rng))
    _cast(tensor_slots(model), _dtype(cfg))
    return model


def _measure(cfg: BenchConfig, mode: str, step) -> BenchReport:
    """Time steps of batch_size instances and count their plugin MACs.

    step(counter) runs one batch on the calling thread and returns its output
    array. After warmup, steps repeat until the measurement window closes.
    MACs per position divide the counter's total by the rows that plugin
    stacks ran on, and MACs per instance by the instances run, warmup
    included in both. BLAS runs one thread for warmup and timing.
    """
    counter = MacCounter()
    with _one_blas_thread() as blas_threads:
        for _ in range(cfg.warmup_batches):
            step(counter)
        instances = 0
        start = time.perf_counter()
        while True:
            output = step(counter)
            instances += cfg.batch_size
            elapsed = time.perf_counter() - start
            if elapsed >= cfg.measure_seconds:
                break
    run = instances + cfg.warmup_batches * cfg.batch_size
    return BenchReport(
        instances_per_minute=instances * 60.0 / elapsed,
        macs_per_instance=counter.total // run,
        macs_per_position_per_plugin=counter.total // counter.rows,
        instances=instances,
        elapsed_seconds=elapsed,
        mode=mode,
        config={**asdict(cfg), "mode": mode},
        environment=environment_fingerprint(cfg, blas_threads),
        output_dtype=output.dtype.name,
    )


def run_micro_bench(cfg: BenchConfig) -> BenchReport:
    """Plugin layer alone over batch_size sequences of seq_len positions."""
    rng = make_rng(cfg.seed)
    spec = build_plugin_spec(cfg, 1, rng)
    x = rng.standard_normal((cfg.batch_size * cfg.seq_len, cfg.d)).astype(_dtype(cfg))
    return _measure(cfg, "micro",
                    lambda counter: _plugin_forward(spec, 0, x, counter, False)[0])


def run_inference_bench(cfg: BenchConfig) -> BenchReport:
    """End-to-end classification throughput at the configured shapes: the
    logits of `classify_forward`, as `training.evaluate` computes them."""
    rng = make_rng(cfg.seed)
    model = build_bench_model(cfg, rng)
    ids = rng.integers(0, cfg.vocab_hash_buckets, size=(cfg.batch_size, cfg.seq_len))
    return _measure(cfg, "inference", lambda counter: classify_forward(model, ids, counter)[0])


def run_finetune_bench(cfg: BenchConfig,
                       train_cfg: training.TrainConfig | None = None) -> BenchReport:
    """Training-step throughput: the step `training.train` runs, that is
    compute_batch_gradients (forward and backward) and then adam_step.

    MACs are the plugin forward's, counted as it runs; the backward pass is
    not instrumented. The reported output dtype is the step's gradients'.
    """
    train_cfg = train_cfg or training.TrainConfig(batch_size=cfg.batch_size)
    rng = make_rng(cfg.seed)
    model = build_bench_model(cfg, rng)
    ids = rng.integers(0, cfg.vocab_hash_buckets, size=(cfg.batch_size, cfg.seq_len))
    labels = rng.integers(0, cfg.num_labels, size=cfg.batch_size)
    opt = training.init_optimizer(model)

    def step(counter):
        # looked up at call time, so that a tracer wrapping the training
        # module's functions sees the bench's steps too
        _, grads = training.compute_batch_gradients(model, list(ids), labels, counter)
        training.adam_step(opt, model, grads, train_cfg)
        return next(iter(grads.values()))

    return _measure(cfg, "finetune", step)


RUNNERS = {"inference": run_inference_bench, "finetune": run_finetune_bench,
           "micro": run_micro_bench}
MODES = tuple(RUNNERS)


def compare_reports(arms: dict[str, BenchConfig], mode: str = "micro",
                    rounds: int = 5) -> dict[str, list[BenchReport]]:
    """Every arm's report from each of `rounds` interleaved rounds.

    Round-robin interleaving cancels slow machine drift that would otherwise
    bias whichever arm happened to run during a quiet stretch.
    """
    if mode not in RUNNERS:
        raise ParameterError(f"mode {mode!r} not one of {MODES}")
    runner = RUNNERS[mode]
    reports: dict[str, list[BenchReport]] = {name: [] for name in arms}
    for _ in range(rounds):
        for name, cfg in arms.items():
            reports[name].append(runner(cfg))
    return reports


def median_throughput(reports: dict[str, list[BenchReport]]) -> dict[str, float]:
    """Median instances/minute per arm."""
    return {name: float(np.median([r.instances_per_minute for r in runs]))
            for name, runs in reports.items()}


def compare_throughput(arms: dict[str, BenchConfig], mode: str = "micro",
                       rounds: int = 5) -> dict[str, float]:
    """Median instances/minute per arm, measured in interleaved rounds."""
    return median_throughput(compare_reports(arms, mode, rounds))


def write_report_json(path, report: BenchReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")


def write_report_csv(path, report: BenchReport) -> None:
    flat = {
        "mode": report.mode,
        "architecture": report.config["architecture"],
        "instances_per_minute": report.instances_per_minute,
        "macs_per_instance": report.macs_per_instance,
        "macs_per_position_per_plugin": report.macs_per_position_per_plugin,
        "instances": report.instances,
        "elapsed_seconds": report.elapsed_seconds,
        "batch_size": report.config["batch_size"],
        "seq_len": report.config["seq_len"],
        "precision": report.config["precision"],
        "output_dtype": report.output_dtype,
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(flat))
        writer.writeheader()
        writer.writerow(flat)
