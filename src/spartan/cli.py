"""Command-line entry point: train, eval, bench, analyze, params.

Configuration comes from a JSON file (see README for the schema) with a small
set of flags that override file fields. Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis as analysis_mod
from . import bench as bench_mod
from . import params as params_mod
from .backbone import Model, build_config, decode_config, init_backbone, make_plugin
from .checkpoint import load_checkpoint, save_checkpoint
from .data import DataError, few_shot_sample, load_jsonl, load_label_manifest
from .numerics import ParameterError, ShapeError, UsageError, check_counts, make_rng
from .training import NumericalError, TrainConfig, evaluate, train, write_metrics_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_run_config(path: str | None) -> dict:
    """The run config at path over the defaults; a section holds only the
    fields the file gives, and its dataclass supplies the rest."""
    conf = {"seed": 0, "num_labels": None, "backbone": {}, "plugin": {"kind": "spartan"},
            "train": {}}
    if path is None:
        return conf
    p = Path(path)
    if not p.is_file():  # a directory too: open() would raise IsADirectoryError
        raise UsageError(f"config file not found: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {p}: invalid JSON ({exc.msg})") from exc
    if not isinstance(user, dict):
        raise UsageError(f"config file {p}: not a JSON object")
    unknown = set(user) - set(conf)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, val in user.items():
        if not isinstance(conf[key], dict):
            conf[key] = val
        elif isinstance(val, dict):
            conf[key].update(val)
        else:
            raise UsageError(f"{key} section must be a JSON object")
    return conf


def decode_run_config(conf: dict) -> tuple:
    """(seed, TrainConfig, *decode_config(conf)) of a loaded run config. It
    checks every rule of a run config; `train` and `params` call it before
    any other work, so both refuse the same files with the same exit code.
    train.seed is a usage error: the top-level seed is the run's one seed."""
    check_counts(conf, seed=0)
    tcfg = build_config(TrainConfig, conf["train"], "train", seed=conf["seed"])
    return (conf["seed"], tcfg, *decode_config(conf))


def _output_path(value: str) -> str:
    """An output flag's value, checked as flags are parsed: its directory exists."""
    if not (parent := Path(value).parent).is_dir():
        raise argparse.ArgumentTypeError(f"directory {parent} does not exist")
    return value


def _sample_size(value: str) -> int:
    """--few-shot's value, checked as flags are parsed: an integer >= 1."""
    if not value.isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"N must be an integer >= 1, got {value!r}")
    return int(value)


def _check_labels(examples, num_labels: int, path) -> None:
    if not examples:
        raise DataError(f"no examples in {path}")
    if num_labels < 2:  # only a count inferred from the data can be below 2
        raise DataError(f"labels in {path} span {num_labels} class(es); training needs at least 2")
    if any(not 0 <= ex.label < num_labels for ex in examples):
        raise DataError(f"labels outside [0, {num_labels}) in {path}")


def cmd_train(args) -> int:
    conf = load_run_config(args.config)
    if args.seed is not None:
        conf["seed"] = args.seed
    for field, flag in (("learning_rate", args.lr), ("steps", args.steps)):
        if flag is not None:
            conf["train"][field] = flag
    seed, tcfg, backbone_cfg, kind, plugin_cfg, num_labels = decode_run_config(conf)

    manifest = load_label_manifest(args.data)
    examples = load_jsonl(args.data, label_map=manifest)
    if num_labels is None:
        num_labels = max((ex.label for ex in examples), default=0) + 1
    _check_labels(examples, num_labels, args.data)

    rng = make_rng(seed)
    params = init_backbone(backbone_cfg, num_labels, rng)
    model = Model(backbone_cfg, params, make_plugin(kind, backbone_cfg, rng, plugin_cfg))

    train_set = examples
    if args.few_shot is not None:
        train_set = few_shot_sample(examples, args.few_shot, make_rng(seed))

    result = train(model, train_set, tcfg)

    out = Path(args.out)
    save_checkpoint(out, model, seed, label_manifest=manifest, extra_config={
        "train": asdict(tcfg),
        "num_train_examples": len(train_set),
        "data_path": str(args.data),
    })
    metrics_path = args.metrics or str(out) + ".metrics.csv"
    write_metrics_csv(metrics_path, result.history)
    final_loss = result.history[-1]["loss"] if result.history else float("nan")
    print(f"trained {tcfg.steps} steps on {len(train_set)} examples; "
          f"final loss {final_loss:.6f}")
    print(f"checkpoint: {out}")
    print(f"metrics: {metrics_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, meta = load_checkpoint(args.model)
    examples = load_jsonl(args.data, label_map=meta["label_manifest"] or None)
    _check_labels(examples, model.params.num_labels, args.data)
    # a loaded checkpoint is finite, but a huge value can still overflow:
    # numpy raises FloatingPointError (exit 3) instead of printing warnings
    with np.errstate(over="raise", invalid="raise"):
        acc = evaluate(model, examples)
    payload = {"accuracy": acc, "examples": len(examples), "model": str(args.model)}
    print(f"accuracy {acc:.4f}")
    print(json.dumps(payload))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


# each bench flag's dest and the BenchConfig field it sets, whose default is the flag's
_BENCH_FLAGS = {"arch": "architecture", "batch": "batch_size", "seq_len": "seq_len",
                "warmup": "warmup_batches", "measure_seconds": "measure_seconds",
                "precision": "precision", "d": "d", "layers": "layers", "heads": "heads",
                "ffn_dim": "ffn_dim", "num_parents": "num_parents",
                "children": "children_per_parent", "top_k": "top_k",
                "bottleneck": "bottleneck", "seed": "seed"}


def cmd_bench(args) -> int:
    cfg = bench_mod.BenchConfig(**{field: getattr(args, dest)
                                   for dest, field in _BENCH_FLAGS.items()})
    report = bench_mod.RUNNERS[args.mode](cfg)
    prefix = Path(args.out)
    bench_mod.write_report_json(str(prefix) + ".json", report)
    bench_mod.write_report_csv(str(prefix) + ".csv", report)
    print(f"{args.mode} {cfg.architecture}: {report.instances_per_minute:.1f} instances/min "
          f"({report.macs_per_position_per_plugin} plugin MACs/position)")
    print(f"reports: {prefix}.json {prefix}.csv")
    return EXIT_OK


def cmd_analyze(args) -> int:
    model, meta = load_checkpoint(args.model)
    examples = load_jsonl(args.data, label_map=meta["label_manifest"] or None)
    _check_labels(examples, model.params.num_labels, args.data)
    with np.errstate(over="raise", invalid="raise"):  # as in cmd_eval
        sel = analysis_mod.collect_selections(model, examples, args.layer)
    stats = analysis_mod.specialization_stats(sel)
    analysis_mod.write_selection_csv(str(args.out) + ".csv", sel)
    analysis_mod.write_summary_json(str(args.out) + ".json", stats)
    best = max(p for p in stats.per_parent_purity if p is not None)
    print(f"{stats.num_records} records at layer {sel.layer}; "
          f"nmi {stats.nmi:.4f}; best parent purity {best:.4f}")
    print(f"outputs: {args.out}.csv {args.out}.json")
    return EXIT_OK


def cmd_params(args) -> int:
    conf = load_run_config(args.config)
    if args.config is None:  # full-size comparison shapes, matching the benchmark defaults
        bdefault = bench_mod.BenchConfig()
        conf["backbone"] = {name: getattr(bdefault, name) for name in
                            ("d", "layers", "heads", "ffn_dim", "vocab_hash_buckets")}
        conf["backbone"]["max_seq_len"] = 128
    _, _, backbone_cfg, kind, plugin_cfg, num_labels = decode_run_config(conf)
    report = params_mod.build_report(backbone_cfg, num_labels, kind, args.tasks, plugin_cfg)
    print(params_mod.render_table(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(asdict(report), fh, indent=2)
            fh.write("\n")
        print(f"report: {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="spartan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fine-tune plugin + head on JSONL data")
    p_train.add_argument("--config", default=None, help="JSON run config")
    p_train.add_argument("--data", required=True, help="training JSONL")
    p_train.add_argument("--out", required=True, type=_output_path, help="checkpoint path")
    p_train.add_argument("--metrics", type=_output_path,
                         help="metrics CSV path (default: <out>.metrics.csv)")
    p_train.add_argument("--few-shot", type=_sample_size, default=None, metavar="N",
                         help="train on a stratified sample of N instances")
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="accuracy of a checkpoint on JSONL data")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", default=None, type=_output_path, help="optional JSON output path")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="throughput benchmarks")
    p_bench.add_argument("--mode", default="inference", choices=bench_mod.MODES)
    bdefault = bench_mod.BenchConfig()
    choices = {"arch": bench_mod.ARCHITECTURES, "precision": ("f32", "f64")}
    for dest, field in _BENCH_FLAGS.items():
        default = getattr(bdefault, field)
        p_bench.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default,
                             choices=choices.get(dest))
    p_bench.add_argument("--out", default="bench_report", type=_output_path, help="output prefix")
    p_bench.set_defaults(func=cmd_bench)

    p_an = sub.add_parser("analyze", help="parent-specialization analysis")
    p_an.add_argument("--model", required=True)
    p_an.add_argument("--data", required=True)
    p_an.add_argument("--layer", default="last", help='layer index or "last"')
    p_an.add_argument("--out", required=True, type=_output_path, help="prefix of .csv and .json")
    p_an.set_defaults(func=cmd_analyze)

    p_par = sub.add_parser("params", help="parameter accounting report")
    p_par.add_argument("--config", default=None, help="JSON run config (default: full-size shapes)")
    p_par.add_argument("--tasks", type=int, default=1)
    p_par.add_argument("--out", default=None, type=_output_path, help="optional JSON output path")
    p_par.set_defaults(func=cmd_params)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # a bad flag raises UsageError
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, ShapeError, MemoryError) as exc:  # MemoryError: a model too large
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
