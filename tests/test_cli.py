import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spartan import bench as bench_mod
from spartan import cli
from spartan import params as params_mod
from spartan.backbone import (PLUGINS, BackboneConfig, Model, decode_config, init_backbone,
                              iter_named_tensors, make_plugin, tensor_slots)
from spartan.checkpoint import load_checkpoint, save_checkpoint
from spartan.cli import build_parser, main
from spartan.data import (DataError, Example, SyntheticTopicTask, generate_topic_dataset,
                          write_jsonl)
from spartan.memory import SpartanConfig
from spartan.numerics import make_rng
from spartan.training import NumericalError, TrainResult

# a numpy warning on any CLI path fails the test instead of being captured
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TINY_CONFIG = {
    "seed": 0,
    "backbone": {"d": 32, "layers": 2, "heads": 2, "ffn_dim": 48,
                 "vocab_hash_buckets": 256, "max_seq_len": 16},
    "plugin": {"kind": "spartan", "num_parents": 4, "children_per_parent": 2, "top_k": 2},
    "train": {"steps": 4, "batch_size": 4, "learning_rate": 1e-3},
}


@pytest.fixture
def workdir(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    data = tmp_path / "train.jsonl"
    task = SyntheticTopicTask(num_topics=4, examples_per_topic=12, words_per_example=6)
    write_jsonl(data, generate_topic_dataset(task, make_rng(0)))
    return tmp_path, config, data


RANDOM_MODEL_MEMORY = SpartanConfig(d=16, num_parents=4, children_per_parent=2, top_k=2)


def random_model(seed, kind="spartan"):
    rng = make_rng(seed)
    cfg = BackboneConfig(d=16, layers=2, heads=2, ffn_dim=24,
                         vocab_hash_buckets=64, max_seq_len=8)
    params = init_backbone(cfg, 3, rng)
    plugin = make_plugin(kind, cfg, rng, spartan_cfg=RANDOM_MODEL_MEMORY)
    model = Model(cfg, params, plugin)
    for name, arr, _ in iter_named_tensors(model):
        arr[...] = rng.normal(size=arr.shape)
    return model


def read_checkpoint_file(path):
    """(header, {name: float64 array}) of a checkpoint file, parsed without
    the loader: a JSON line, then each listed tensor as little-endian float64."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {name: np.fromfile(fh, "<f8", math.prod(shape)).reshape(shape)
                  for name, shape in header["tensors"]}
        assert fh.read() == b""
    return header, arrays


def write_checkpoint_file(path, header, arrays):
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for arr in arrays.values():
            fh.write(np.asarray(arr, "<f8").tobytes())


class TestCheckpoint:
    def test_round_trip_is_bitwise_lossless(self, tmp_path):
        for seed in range(5):
            model = random_model(seed)
            path = tmp_path / f"m{seed}.json"
            save_checkpoint(path, model, seed=seed, label_manifest={"a": 0, "b": 1})
            loaded, meta = load_checkpoint(path)
            assert meta["seed"] == seed
            assert meta["label_manifest"] == {"a": 0, "b": 1}
            for (n1, a1, t1), (n2, a2, t2) in zip(iter_named_tensors(model),
                                                  iter_named_tensors(loaded)):
                assert n1 == n2 and t1 == t2
                assert np.array_equal(a1, a2), n1

    def test_round_trip_all_plugin_kinds(self, tmp_path):
        for kind in ("none", "adapter", "adapterx2"):
            model = random_model(10, kind)
            path = tmp_path / f"{kind}.json"
            save_checkpoint(path, model, seed=0)
            loaded, _ = load_checkpoint(path)
            for (n1, a1, _), (n2, a2, _) in zip(iter_named_tensors(model),
                                                iter_named_tensors(loaded)):
                assert np.array_equal(a1, a2), n1

    def test_missing_file(self, tmp_path):
        from spartan.data import DataError
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.json")

    def test_save_refuses_non_finite_tensor_and_names_it(self, tmp_path):
        model = random_model(0)
        model.params.head_bias[1] = np.inf
        with pytest.raises(NumericalError, match="head.bias"):
            save_checkpoint(tmp_path / "m.ckpt", model, seed=0)
        assert not (tmp_path / "m.ckpt").exists()

    def test_float32_model_is_written_widened_and_loads_exactly(self, tmp_path):
        model = random_model(4)
        for _, owner, fname, _ in tensor_slots(model):
            setattr(owner, fname, getattr(owner, fname).astype(np.float32))
        save_checkpoint(tmp_path / "m.ckpt", model, seed=4)
        header, arrays = read_checkpoint_file(tmp_path / "m.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        named = list(iter_named_tensors(model))
        assert header["tensors"] == [[name, list(arr.shape)] for name, arr, _ in named]
        for (name, arr, _), (_, back, _) in zip(named, iter_named_tensors(loaded)):
            widened = arr.astype(np.float64)
            assert arrays[name].tobytes() == widened.tobytes(), name
            assert back.dtype == np.float64 and back.tobytes() == widened.tobytes(), name

    @pytest.mark.parametrize("kind", ["none", "spartan", "adapter", "adapterx2"])
    def test_file_size_is_header_plus_eight_bytes_per_counted_scalar(self, tmp_path, kind):
        # ties the parameter accounting to the bytes actually written
        model = random_model(5, kind)
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(path, model, seed=5)
        with open(path, "rb") as fh:
            header_line = fh.readline()
        report = params_mod.build_report(model.cfg, 3, kind, spartan_cfg=RANDOM_MODEL_MEMORY)
        scalars = report.backbone_params + report.added_params_per_task + report.head_params
        assert path.stat().st_size == len(header_line) + 8 * scalars

    def test_save_and_load_peak_memory_stays_near_the_model_size(self, tmp_path):
        # the shape of perfbench's finetune workload: 1,120,260 float64 scalars
        cfg = BackboneConfig(d=128, layers=4, heads=4, ffn_dim=256,
                             vocab_hash_buckets=4096, max_seq_len=64)
        rng = make_rng(0)
        model = Model(cfg, init_backbone(cfg, 4, rng), make_plugin(
            "spartan", cfg, rng, spartan_cfg=SpartanConfig(d=128, num_parents=16,
                                                           children_per_parent=3, top_k=8)))
        tensor_bytes = sum(arr.nbytes for _, arr, _ in iter_named_tensors(model))
        assert tensor_bytes == 8 * 1_120_260
        path = tmp_path / "finetune.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, model, seed=0)
            loaded, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.params.token_emb.tobytes() == model.params.token_emb.tobytes()
        # the loaded model is 1x; the rest is the header and per-tensor temporaries
        assert peak <= 1.5 * tensor_bytes, (peak, tensor_bytes)


class TestTrainCommand:
    def test_trains_and_writes_artifacts(self, workdir):
        tmp, config, data = workdir
        out = tmp / "model.json"
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        metrics = tmp / "model.json.metrics.csv"
        with open(metrics) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [r["step"] for r in rows] == ["0", "1", "2", "3"]

    def test_same_seed_reproduces_identical_checkpoint(self, workdir):
        tmp, config, data = workdir
        a, b = tmp / "a.json", tmp / "b.json"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(a), "--seed", "7"]) == 0
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(b), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_few_shot_samples_exactly_n(self, workdir):
        tmp, config, data = workdir
        out = tmp / "fs.json"
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out), "--few-shot", "8", "--steps", "2"])
        assert code == 0
        header, _ = read_checkpoint_file(out)
        assert header["config"]["num_train_examples"] == 8

    def test_few_shot_two_hundred_instances(self, tmp_path):
        # the documented few-shot protocol size, stratified over the labels
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        data = tmp_path / "big.jsonl"
        task = SyntheticTopicTask(num_topics=4, examples_per_topic=100, words_per_example=6)
        write_jsonl(data, generate_topic_dataset(task, make_rng(1)))
        out = tmp_path / "fs200.json"
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out), "--few-shot", "200", "--steps", "1"])
        assert code == 0
        header, _ = read_checkpoint_file(out)
        assert header["config"]["num_train_examples"] == 200

    def test_missing_data_file_exits_2_and_names_path(self, workdir, capsys):
        tmp, config, _ = workdir
        code = main(["train", "--config", str(config), "--data", str(tmp / "absent.jsonl"),
                     "--out", str(tmp / "x.json")])
        assert code == 2
        assert "absent.jsonl" in capsys.readouterr().err

    def test_plugin_backbone_d_mismatch_names_both(self, workdir, capsys):
        tmp, _, data = workdir
        conf = dict(TINY_CONFIG)
        conf["plugin"] = {"kind": "spartan", "d": 64}
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(conf))
        code = main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "64" in err and "32" in err

    def test_mean_pooling_config_exits_1_with_one_line(self, workdir, capsys):
        # mean pooling was removed: the head reads each sequence's first position
        tmp, _, data = workdir
        conf = {**TINY_CONFIG, "backbone": {**TINY_CONFIG["backbone"], "pooling": "mean"}}
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(conf))
        code = main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp / "x.json")])
        assert code == 1
        _assert_one_line_error(capsys, "config error", "pooling", "'mean'")
        assert not (tmp / "x.json").exists()

    def test_model_too_large_to_allocate_exits_1_with_one_line(self, workdir, capsys):
        # a 10**12 x 32 float64 head is 256 TB, past any address space
        tmp, _, data = workdir
        bad = tmp / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "num_labels": 10**12}))
        code = main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp / "x.json")])
        assert code == 1
        _assert_one_line_error(capsys, "config error", "Unable to allocate")
        assert not (tmp / "x.json").exists()

    def test_count_past_an_arrays_size_exits_1_with_one_line(self, workdir, capsys):
        # 10**18 x 32 scalars are more than any float64 array can index
        tmp, _, data = workdir
        bad = tmp / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "num_labels": 10**18}))
        code = main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp / "x.json")])
        assert code == 1
        _assert_one_line_error(capsys, "config error", "head_weight", "too large")
        assert not (tmp / "x.json").exists()

    def test_malformed_jsonl_exits_2_with_line(self, workdir, capsys):
        tmp, config, _ = workdir
        bad = tmp / "bad.jsonl"
        bad.write_text('{"text": "ok", "label": 0}\n{"nope": 1}\n')
        code = main(["train", "--config", str(config), "--data", str(bad),
                     "--out", str(tmp / "x.json")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("line, reason", [
        ('{"text": "ok", "label": 1', "invalid JSON"),
        ('{"nope": 1}', 'must have "text" and "label" fields'),
        ('{"text": 7, "label": 1}', '"text" must be a string'),
        ('{"text": "ok", "label": 1.5}', '"label" must be an integer or string'),
        ('{"text": "ok", "label": "mystery"}', "missing from label manifest"),
    ], ids=["invalid-json", "missing-field", "text-not-string", "label-type", "unknown-label"])
    def test_bad_data_line_exits_2_naming_file_and_line(self, workdir, capsys, line, reason):
        tmp, config, _ = workdir
        (tmp / "labels.json").write_text('{"business": 0, "sports": 1}')
        bad = tmp / "bad.jsonl"
        bad.write_text('{"text": "ok", "label": "sports"}\n' + line + "\n")
        code = main(["train", "--config", str(config), "--data", str(bad),
                     "--out", str(tmp / "x.ckpt")])
        assert code == 2
        _assert_one_line_error(capsys, "data error", "bad.jsonl line 2", reason)
        assert not (tmp / "x.ckpt").exists()

    def test_non_utf8_jsonl_exits_2_naming_file_and_line(self, workdir, capsys):
        tmp, config, _ = workdir
        bad = tmp / "bad.jsonl"
        bad.write_bytes(b'{"text": "ok", "label": 0}\n{"text": "caf\xe9", "label": 1}\n')
        code = main(["train", "--config", str(config), "--data", str(bad),
                     "--out", str(tmp / "x.json")])
        assert code == 2
        _assert_one_line_error(capsys, "data error", "bad.jsonl line 2")
        assert not (tmp / "x.json").exists()

    def test_single_label_data_exits_2_naming_it(self, workdir, capsys):
        tmp, config, _ = workdir
        one = tmp / "one_label.jsonl"
        one.write_text('{"text": "alpha beta", "label": 0}\n{"text": "gamma", "label": 0}\n')
        code = main(["train", "--config", str(config), "--data", str(one),
                     "--out", str(tmp / "x.json")])
        assert code == 2
        _assert_one_line_error(capsys, "data error", "one_label.jsonl")
        assert not (tmp / "x.json").exists()

    def test_malformed_label_manifest_exits_2_naming_it(self, workdir, capsys):
        tmp, config, data = workdir
        (tmp / "labels.json").write_text("{not json")
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp / "x.json")])
        assert code == 2
        _assert_one_line_error(capsys, "data error", "labels.json")
        assert not (tmp / "x.json").exists()

    def test_non_finite_tensor_after_training_exits_3(self, workdir, capsys, monkeypatch):
        tmp, config, data = workdir

        def poisoned_train(model, dataset, cfg):
            model.params.head_bias[0] = np.nan
            return TrainResult()

        monkeypatch.setattr(cli, "train", poisoned_train)
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp / "x.json")])
        assert code == 3
        _assert_one_line_error(capsys, "numerical failure", "head.bias")
        assert not (tmp / "x.json").exists()


    def test_non_finite_gradient_exits_3(self, workdir, capsys, monkeypatch):
        from spartan import training as training_mod
        tmp, config, data = workdir
        compute = training_mod.compute_batch_gradients

        def poisoned(model, token_lists, labels):
            loss, grads = compute(model, token_lists, labels)
            grads["head.bias"][0] = np.inf
            return loss, grads

        monkeypatch.setattr(training_mod, "compute_batch_gradients", poisoned)
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp / "x.json")])
        assert code == 3
        _assert_one_line_error(capsys, "numerical failure", "head.bias", "step 0")
        assert not (tmp / "x.json").exists()

    def test_optimizer_overflow_exits_3_with_one_line(self, workdir):
        # a subprocess, because pytest captures the numpy warnings this must not print
        tmp, config, data = workdir
        cfg = json.loads(config.read_text())
        cfg["train"]["learning_rate"] = 1e300
        config.write_text(json.dumps(cfg))
        run = subprocess.run(
            [sys.executable, "-m", "spartan.cli", "train", "--config", str(config),
             "--data", str(data), "--out", str(tmp / "x.json")],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert run.returncode == 3, run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1, run.stderr
        assert re.fullmatch(r"numerical failure: non-finite Adam moment or update "
                            r"for [\w.]+ at step \d+", lines[0]), lines[0]
        assert not (tmp / "x.json").exists()


class TestEvalCommand:
    def test_eval_matches_training_module(self, workdir, capsys):
        tmp, config, data = workdir
        out = tmp / "model.json"
        main(["train", "--config", str(config), "--data", str(data), "--out", str(out),
              "--steps", "30"])
        capsys.readouterr()
        code = main(["eval", "--model", str(out), "--data", str(data)])
        assert code == 0
        stdout = capsys.readouterr().out
        reported = json.loads(stdout.strip().splitlines()[-1])["accuracy"]
        from spartan.data import load_jsonl
        from spartan.training import evaluate
        model, _ = load_checkpoint(out)
        assert reported == evaluate(model, load_jsonl(data))

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_huge_finite_weight_exits_3_with_one_line(self, workdir, command):
        # a subprocess, because pytest captures the numpy warnings this must not print
        tmp, config, data = workdir
        out = tmp / "model.ckpt"
        assert main(["train", "--config", str(config), "--data", str(data), "--out", str(out),
                     "--steps", "1"]) == 0
        header, arrays = read_checkpoint_file(out)
        first = next(iter(arrays.values()))
        first.flat[0::2], first.flat[1::2] = 1e300, -1e300
        write_checkpoint_file(out, header, arrays)
        argv = {"eval": [], "analyze": ["--out", str(tmp / "analysis")]}[command]
        run = subprocess.run(
            [sys.executable, "-m", "spartan.cli", command, "--model", str(out),
             "--data", str(data), *argv],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert run.returncode == 3, run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), run.stderr

    def test_empty_data_exits_2(self, workdir, capsys):
        tmp, config, data = workdir
        out = tmp / "model.json"
        main(["train", "--config", str(config), "--data", str(data), "--out", str(out)])
        empty = tmp / "empty.jsonl"
        empty.write_text("")
        assert main(["eval", "--model", str(out), "--data", str(empty)]) == 2

    def test_non_utf8_jsonl_exits_2_naming_file_and_line(self, workdir, capsys):
        tmp, config, data = workdir
        out = tmp / "model.json"
        assert main(["train", "--config", str(config), "--data", str(data), "--out", str(out),
                     "--steps", "1"]) == 0
        capsys.readouterr()
        bad = tmp / "bad.jsonl"
        bad.write_bytes(data.read_bytes()[:200] + b"\xff\xfe\n")
        assert main(["eval", "--model", str(out), "--data", str(bad)]) == 2
        _assert_one_line_error(capsys, "data error", "bad.jsonl line")

    def test_malformed_label_manifest_exits_2_naming_it(self, workdir, capsys):
        tmp, config, data = workdir
        out = tmp / "model.json"
        assert main(["train", "--config", str(config), "--data", str(data), "--out", str(out),
                     "--steps", "1"]) == 0
        capsys.readouterr()
        (tmp / "labels.json").write_text('["business", "sports"]')
        assert main(["eval", "--model", str(out), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "labels.json")


class TestBenchCommand:
    def test_default_batch_size_is_32(self):
        args = build_parser().parse_args(["bench"])
        assert args.batch == 32

    def test_invalid_arch_exits_1_listing_valid(self, capsys):
        code = main(["bench", "--arch", "mystery"])
        assert code == 1
        err = capsys.readouterr().err
        assert "spartan" in err and "adapter" in err

    @pytest.mark.parametrize("flag, word", [("--seed", "seed"), ("--warmup", "warmup_batches")])
    def test_negative_count_exits_1_with_one_line(self, tmp_path, capsys, flag, word):
        code = main(["bench", "--mode", "micro", "--batch", "2", "--seq-len", "4", "--d", "32",
                     "--measure-seconds", "1", flag, "-1", "--out", str(tmp_path / "b")])
        assert code == 1
        _assert_one_line_error(capsys, "config error", word)
        assert not (tmp_path / "b.json").exists()

    def test_removed_threads_flag_exits_1_with_one_line(self, tmp_path, capsys):
        # the bench runs on the calling thread; there is no worker pool to size
        code = main(["bench", "--threads", "2", "--out", str(tmp_path / "b")])
        assert code == 1
        _assert_one_line_error(capsys, "usage error:", "--threads")
        assert not (tmp_path / "b.json").exists()

    def test_micro_mode_writes_reports(self, tmp_path, capsys):
        prefix = tmp_path / "micro"
        code = main(["bench", "--arch", "spartan", "--mode", "micro", "--batch", "8",
                     "--seq-len", "8", "--d", "64", "--num-parents", "8", "--children", "2",
                     "--top-k", "4", "--warmup", "1", "--measure-seconds", "1",
                     "--out", str(prefix)])
        assert code == 0
        payload = json.loads((tmp_path / "micro.json").read_text())
        assert payload["mode"] == "micro"
        assert payload["instances_per_minute"] > 0
        assert (tmp_path / "micro.csv").exists()

    def test_mode_choices_are_the_shared_runner_table(self):
        action = next(a for a in build_parser()._actions if a.dest == "command")
        bench_parser = action.choices["bench"]
        mode = next(a for a in bench_parser._actions if a.dest == "mode")
        assert tuple(mode.choices) == bench_mod.MODES == ("inference", "finetune", "micro")

    def test_finetune_mode_writes_reports_through_shared_table(self, tmp_path, capsys,
                                                               monkeypatch):
        ran = []

        def counting_runner(cfg):
            ran.append(cfg.architecture)
            return real(cfg)

        real = bench_mod.RUNNERS["finetune"]
        monkeypatch.setitem(bench_mod.RUNNERS, "finetune", counting_runner)
        prefix = tmp_path / "ft"
        code = main(["bench", "--arch", "adapter", "--mode", "finetune", "--batch", "4",
                     "--seq-len", "8", "--d", "32", "--layers", "1", "--heads", "2",
                     "--ffn-dim", "48", "--bottleneck", "8", "--warmup", "1",
                     "--measure-seconds", "1", "--out", str(prefix)])
        assert code == 0
        assert ran == ["adapter"]
        payload = json.loads((tmp_path / "ft.json").read_text())
        assert payload["mode"] == "finetune"
        assert payload["macs_per_position_per_plugin"] == 2 * 32 * 8
        with open(tmp_path / "ft.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["mode"] == "finetune" and row["architecture"] == "adapter"


class TestAnalyzeCommand:
    def test_outputs_row_per_example(self, workdir, capsys):
        tmp, config, data = workdir
        out = tmp / "model.json"
        main(["train", "--config", str(config), "--data", str(data), "--out", str(out)])
        prefix = tmp / "analysis"
        code = main(["analyze", "--model", str(out), "--data", str(data),
                     "--layer", "last", "--out", str(prefix)])
        assert code == 0
        with open(tmp / "analysis.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 48  # header + examples
        summary = json.loads((tmp / "analysis.json").read_text())
        assert summary["num_records"] == 48

    def test_appendix_style_config_accepted(self, workdir):
        tmp, _, data = workdir
        conf = dict(TINY_CONFIG)
        conf["plugin"] = {"kind": "spartan", "num_parents": 5, "children_per_parent": 1,
                          "top_k": 2}
        cpath = tmp / "five.json"
        cpath.write_text(json.dumps(conf))
        out = tmp / "five_model.json"
        assert main(["train", "--config", str(cpath), "--data", str(data),
                     "--out", str(out)]) == 0
        assert main(["analyze", "--model", str(out), "--data", str(data),
                     "--out", str(tmp / "five_analysis")]) == 0
        summary = json.loads((tmp / "five_analysis.json").read_text())
        assert np.asarray(summary["histogram"]).shape[0] == 5

    def test_layer_out_of_range_exits_1(self, workdir, capsys):
        tmp, config, data = workdir
        out = tmp / "model.json"
        main(["train", "--config", str(config), "--data", str(data), "--out", str(out)])
        assert main(["analyze", "--model", str(out), "--data", str(data),
                     "--layer", "9", "--out", str(tmp / "x")]) == 1

    def test_non_integer_layer_exits_1_with_one_line(self, workdir, capsys):
        tmp, config, data = workdir
        out = tmp / "model.json"
        main(["train", "--config", str(config), "--data", str(data), "--out", str(out)])
        capsys.readouterr()
        assert main(["analyze", "--model", str(out), "--data", str(data),
                     "--layer", "abc", "--out", str(tmp / "x")]) == 1
        _assert_one_line_error(capsys, "config error", "'abc'")


class TestParamsCommand:
    def test_defaults_reproduce_enumerated_count(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "1,032,192" in out
        assert "1,179,648" in out  # closed form printed alongside

    def test_nine_task_scenario(self, capsys, tmp_path):
        jpath = tmp_path / "report.json"
        assert main(["params", "--tasks", "9", "--out", str(jpath)]) == 0
        payload = json.loads(jpath.read_text())
        assert payload["tasks"] == 9
        assert payload["added_params_per_task"] == 1032192
        assert payload["formula_added_per_task"] == 1179648

    def test_config_driven_report(self, workdir, capsys):
        tmp, config, _ = workdir
        assert main(["params", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "plugin kind" in out

    def test_byte_figures_match_a_trained_checkpoint(self, workdir):
        tmp, _, data = workdir
        config = tmp / "labelled.json"  # params assumes 2 labels when the config gives none
        config.write_text(json.dumps({**TINY_CONFIG, "num_labels": 4}))
        jpath, ckpt = tmp / "report.json", tmp / "model.ckpt"
        assert main(["params", "--config", str(config), "--tasks", "3", "--out", str(jpath)]) == 0
        report = json.loads(jpath.read_text())
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(ckpt), "--seed", "7"]) == 0
        with open(ckpt, "rb") as fh:
            line = fh.readline()
        header = json.loads(line)
        assert ckpt.stat().st_size - len(line) == report["body_bytes"]
        assert report["task_file_bytes"] == report["header_bytes"] + report["body_bytes"]
        assert report["all_task_files_bytes"] == 3 * report["task_file_bytes"]
        # the train header is the report's config echo plus cmd_train's run metadata
        assert line == json.dumps(header).encode("utf-8") + b"\n"
        run_metadata = {"train", "plugin_kind", "num_train_examples", "data_path"}
        assert set(header["config"]) == {"backbone", "plugin", "num_labels"} | run_metadata
        echo = {**header, "seed": 0, "config": {k: v for k, v in header["config"].items()
                                                  if k not in run_metadata}}
        assert header["seed"] == 7 and header["label_manifest"] == {}
        assert len(json.dumps(echo).encode("utf-8") + b"\n") == report["header_bytes"]
        assert len(line) > report["header_bytes"]


    @pytest.mark.parametrize("section, field", [(None, "num_labels"),
                                                ("backbone", "vocab_hash_buckets"),
                                                ("plugin", "num_parents")])
    def test_count_past_an_arrays_size_exits_1_with_one_line(self, workdir, capsys,
                                                              section, field):
        tmp, _, _ = workdir
        conf = json.loads(json.dumps(TINY_CONFIG))
        (conf[section] if section else conf)[field] = 10**18
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(conf))
        assert main(["params", "--config", str(bad)]) == 1
        _assert_one_line_error(capsys, "config error", "too large")

    @pytest.mark.parametrize("num_labels, row", [
        (None, "(2 labels, assumed: the config sets none)"), (4, "(4 labels)")])
    def test_label_count_is_stated_and_marked_assumed_when_null(self, workdir, capsys,
                                                                 num_labels, row):
        tmp, _, _ = workdir
        config, jpath = tmp / "labels.json", tmp / "report.json"
        config.write_text(json.dumps({**TINY_CONFIG, "num_labels": num_labels}))
        assert main(["params", "--config", str(config), "--out", str(jpath)]) == 0
        head = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("task head"))
        assert head.endswith(row), head
        report = json.loads(jpath.read_text())
        assert report["num_labels"] == (num_labels or 2)
        assert report["num_labels_assumed"] == (num_labels is None)
        assert report["head_params"] == (num_labels or 2) * (32 + 1)


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["train", "--nonsense"]) == 1


def _assert_one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    for word in words:
        assert word in err, err


class TestCheckpointLoaderErrors:
    """A damaged or inconsistent checkpoint is a data error: exit 2, one line."""

    @pytest.fixture
    def saved(self, workdir):
        tmp, config, data = workdir
        path = tmp / "model.ckpt"
        save_checkpoint(path, random_model(0), seed=0)
        return path, data

    def _rewrite(self, path, edit):
        """Apply edit(header, arrays) and write the file back."""
        header, arrays = read_checkpoint_file(path)
        edit(header, arrays)
        write_checkpoint_file(path, header, arrays)

    def test_corrupt_file(self, saved, capsys):
        path, data = saved
        path.write_bytes(path.read_bytes()[:200])
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "not valid JSON")

    def test_missing_key(self, saved, capsys):
        path, data = saved
        self._rewrite(path, lambda h, _: h["config"].pop("num_labels"))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "num_labels")

    def test_unknown_plugin_kind(self, saved, capsys):
        path, data = saved
        self._rewrite(path, lambda h, _: h["config"]["plugin"].update(kind="mystery"))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "mystery")

    def test_mean_pooling_checkpoint_exits_2(self, saved, capsys):
        path, data = saved
        self._rewrite(path, lambda h, _: h["config"]["backbone"].update(pooling="mean"))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "pooling", "'mean'")

    @pytest.mark.parametrize("change, word", [
        ("renamed", "backbone.layer0.wq"), ("reshaped", "head.bias"),
        ("dropped", "plugin.layer1.child_values"), ("extra", "its end"),
    ])
    def test_header_tensors_disagreeing_with_schema(self, saved, capsys, change, word):
        path, data = saved

        def edit(header, arrays):
            listed = header["tensors"]
            names = [name for name, _ in listed]
            if change == "renamed":
                listed[names.index("backbone.layer0.wq")][0] = "backbone.layer0.wx"
            elif change == "reshaped":
                listed[names.index("head.bias")][1] = [1, 3]
            elif change == "dropped":
                listed.pop()
            else:
                listed.append(["plugin.layer2.parents", [4, 16]])

        self._rewrite(path, edit)
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "header tensors disagree", word)

    def test_nan_token_is_a_data_error(self, saved, capsys):
        path, data = saved
        self._rewrite(path, lambda h, _: h.update(seed=float("nan")))
        assert b"NaN" in path.read_bytes().split(b"\n", 1)[0]
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "NaN")

    def test_overflowing_value_is_a_data_error(self, saved, capsys):
        path, data = saved
        self._rewrite(path, lambda _, arrays: arrays["head.bias"].__setitem__(1, np.inf))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "head.bias", "non-finite")

    def test_nan_bytes_are_a_data_error(self, saved, capsys):
        path, data = saved
        self._rewrite(path, lambda _, arrays: arrays["plugin.layer0.parents"].__setitem__(
            (0, 0), np.nan))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "plugin.layer0.parents", "non-finite")

    def test_tensors_not_an_object(self, saved, capsys):
        path, data = saved
        self._rewrite(path, lambda h, _: h.update(tensors=1.5))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "tensors")

    def test_truncated_body(self, saved, capsys):
        path, data = saved
        path.write_bytes(path.read_bytes()[:-1])
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "body ends inside tensor",
                               "plugin.layer1.child_values")

    def test_trailing_byte(self, saved, capsys):
        path, data = saved
        path.write_bytes(path.read_bytes() + b"\0")
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "bytes after the last tensor")

    def test_version_1_file_is_refused(self, saved, capsys):
        # the earlier all-JSON format: one object, each tensor's values inline
        path, data = saved
        header, arrays = read_checkpoint_file(path)
        tensors = {name: {"shape": list(arr.shape), "dtype": "float64", "trainable": False,
                          "values": arr.ravel().tolist()} for name, arr in arrays.items()}
        path.write_text(json.dumps({**header, "format_version": 1, "tensors": tensors}) + "\n")
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "unsupported checkpoint format version 1")

    @pytest.mark.parametrize("section, field, value", [
        ("backbone", "heads", True), ("backbone", "layers", 1.5), ("plugin", "top_k", 0),
    ])
    def test_bad_count_in_config_echo(self, saved, capsys, section, field, value):
        path, data = saved
        self._rewrite(path, lambda h, _: h["config"][section].update({field: value}))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", field)

    @pytest.mark.parametrize("num_labels", [1, 0])
    def test_num_labels_below_two_in_config_echo(self, saved, capsys, num_labels):
        path, data = saved
        zeros = data.with_name("zeros.jsonl")  # all labels 0: in range for a one-label head
        write_jsonl(zeros, [Example(f"text {i}", 0) for i in range(4)])

        def shrink_head(header, arrays):
            header["config"]["num_labels"] = num_labels
            for entry in header["tensors"]:
                if entry[0] in ("head.weight", "head.bias"):
                    entry[1][0] = num_labels
                    arrays[entry[0]] = arrays[entry[0]][:num_labels]

        self._rewrite(path, shrink_head)
        assert main(["eval", "--model", str(path), "--data", str(zeros)]) == 2
        _assert_one_line_error(capsys, "data error", "num_labels must be")

    @staticmethod
    def _in_range_data(data):
        """Data whose labels fit random_model's 3-label head, so that only
        the checkpoint can be refused."""
        path = data.with_name("three_labels.jsonl")
        write_jsonl(path, [Example(f"text {i}", i % 3) for i in range(6)])
        return path

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_plugin_d_other_than_the_backbones_exits_2(self, saved, capsys, command):
        # a d=8 memory on a d=16 backbone: the header's tensor list matches the
        # echo, so only the decoder's d check can refuse the file
        path, data = saved
        data = self._in_range_data(data)
        model = random_model(0)
        narrow = BackboneConfig(d=8, layers=2, heads=2, ffn_dim=24, vocab_hash_buckets=64,
                                max_seq_len=8)
        model.plugin = make_plugin("spartan", narrow, make_rng(1), spartan_cfg=SpartanConfig(
            d=8, num_parents=4, children_per_parent=2, top_k=2))
        save_checkpoint(path, model, seed=0)
        header, _ = read_checkpoint_file(path)
        assert (header["config"]["backbone"]["d"], header["config"]["plugin"]["d"]) == (16, 8)
        assert main([command, "--model", str(path), "--data", str(data),
                     "--out", str(path.with_name("out"))]) == 2
        _assert_one_line_error(capsys, "data error", "plugin d=8", "backbone d=16")

    def test_none_plugin_echo_with_a_stray_field_exits_2(self, saved, capsys):
        path, data = saved
        save_checkpoint(path, random_model(0, "none"), seed=0)
        self._rewrite(path, lambda h, _: h["config"]["plugin"].update(top_k=2))
        data = self._in_range_data(data)
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "unknown none plugin fields", "top_k")

    @staticmethod
    def _relabel(header, num_labels, tensors=False):
        """Set the echo's num_labels and, with tensors, the head's listed rows."""
        header["config"]["num_labels"] = num_labels
        for entry in header["tensors"] if tensors else ():
            if entry[0] in ("head.weight", "head.bias"):
                entry[1][0] = num_labels

    def test_oversized_label_count_with_the_saved_tensor_list_exits_2(self, saved, capsys):
        # a 10**12 x 16 float64 head would be 116 TiB; the list still says 3 rows
        path, data = saved
        self._rewrite(path, lambda h, _: self._relabel(h, 10**12))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "header tensors disagree",
                               f"head.weight [{10**12}, 16]")

    def test_oversized_label_count_with_a_matching_tensor_list_exits_2(self, saved, capsys):
        # header and schema agree, so only the file size can refuse it
        path, data = saved
        self._rewrite(path, lambda h, _: self._relabel(h, 10**12, tensors=True))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", "body ends inside tensor head.weight")

    @pytest.mark.parametrize("edit", [
        lambda h: TestCheckpointLoaderErrors._relabel(h, 10**6),
        lambda h: TestCheckpointLoaderErrors._relabel(h, 10**6, tensors=True),
        lambda h: h["config"]["backbone"].update(layers=10**4),
    ], ids=["labels", "labels-listed", "layers"])
    def test_refusing_an_oversized_header_allocates_no_tensor(self, saved, edit):
        # a 10**6-row head is 128 MB; 10**4 layers of this model hold 182 MB, and
        # even their zero-stride views would take tens of MB of array objects
        path, _ = saved
        self._rewrite(path, lambda h, _: edit(h))
        tracemalloc.start()
        try:
            with pytest.raises(DataError):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_more_layers_than_the_header_lists_exits_2(self, saved, capsys):
        # each layer lists 16 backbone tensors, so 42 entries cannot describe 10**9
        path, data = saved
        self._rewrite(path, lambda h, _: h["config"]["backbone"].update(layers=10**9))
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        _assert_one_line_error(capsys, "data error", f"{10**9} layers", "header's 42")

    @pytest.mark.parametrize("kind", tuple(PLUGINS))
    def test_config_echo_decodes_to_the_configs_the_model_was_built_with(self, tmp_path, kind):
        model = random_model(2, kind)
        save_checkpoint(tmp_path / "m.ckpt", model, seed=2)
        header, _ = read_checkpoint_file(tmp_path / "m.ckpt")
        stack = model.plugin.layers[0]
        assert decode_config(header["config"]) == (model.cfg, kind,
                                                   stack[0].cfg if stack else None)



class TestConfigValidation:
    def _config(self, tmp, **sections):
        conf = {**TINY_CONFIG, **sections}
        path = tmp / "conf.json"
        path.write_text(json.dumps(conf))
        return path

    @pytest.mark.parametrize("section, value, word", [
        ("backbone", {"bogus": 1}, "bogus"),
        ("plugin", {"kind": "adapter", "top_k": 2}, "top_k"),
        ("plugin", 5, "plugin section"),
    ])
    def test_bad_section_is_a_usage_error(self, workdir, capsys, section, value, word):
        tmp, _, _ = workdir
        path = self._config(tmp, **{section: value})
        assert main(["params", "--config", str(path)]) == 1
        _assert_one_line_error(capsys, "usage error", word)

    def test_readme_schema_block_is_accepted_verbatim(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Config file schema", 1)[1].split("```json\n", 1)[1]
        config = tmp_path / "readme.json"
        config.write_text(block.split("```", 1)[0])
        assert main(["params", "--config", str(config)]) == 0, capsys.readouterr().err

    def test_unknown_train_field_is_a_usage_error(self, workdir, capsys):
        tmp, _, data = workdir
        path = self._config(tmp, train={"stepz": 3})
        assert main(["train", "--config", str(path), "--data", str(data),
                     "--out", str(tmp / "x.json")]) == 1
        _assert_one_line_error(capsys, "usage error", "stepz")


    @pytest.mark.parametrize("section, field, value", [
        ("backbone", "heads", -1), ("backbone", "heads", 0), ("backbone", "heads", True),
        ("backbone", "d", 16.0), ("backbone", "layers", 1.5), ("plugin", "top_k", 1.5),
        ("plugin", "num_parents", 4.0), ("plugin", "children_per_parent", 1.5),
        ("train", "batch_size", 2.5),
    ])
    def test_count_must_be_a_positive_integer(self, workdir, capsys, section, field, value):
        tmp, _, data = workdir
        path = self._config(tmp, **{section: {**TINY_CONFIG[section], field: value}})
        assert main(["train", "--config", str(path), "--data", str(data),
                     "--out", str(tmp / "x.json")]) == 1
        _assert_one_line_error(capsys, "config error", field)
        assert not (tmp / "x.json").exists()

    def test_negative_steps_flag_is_rejected(self, workdir, capsys):
        tmp, config, data = workdir
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp / "x.json"), "--steps", "-1"]) == 1
        _assert_one_line_error(capsys, "steps")
        assert not (tmp / "x.json").exists()


class TestLabelRange:
    @pytest.fixture
    def trained(self, workdir):
        tmp, config, data = workdir
        out = tmp / "model.json"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out), "--steps", "1"]) == 0
        bad = tmp / "bad_labels.jsonl"
        bad.write_text('{"text": "alpha beta", "label": 0}\n{"text": "gamma", "label": 7}\n')
        return out, bad

    def test_eval_rejects_label_outside_checkpoint_range(self, trained, capsys):
        out, bad = trained
        capsys.readouterr()
        assert main(["eval", "--model", str(out), "--data", str(bad)]) == 2
        _assert_one_line_error(capsys, "data error", "[0, 4)")

    def test_analyze_rejects_label_outside_checkpoint_range(self, trained, capsys, tmp_path):
        out, bad = trained
        capsys.readouterr()
        assert main(["analyze", "--model", str(out), "--data", str(bad),
                     "--out", str(tmp_path / "a")]) == 2
        _assert_one_line_error(capsys, "data error", "[0, 4)")
