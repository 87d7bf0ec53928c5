"""Properties: a config or checkpoint header with one JSON value replaced, and
a data file or checkpoint with damaged bytes, never crash the CLI. `train`
and `eval` exit 0, 1, 2 or 3, with at most one line on stderr and no
traceback.

Replacement integers stay small so that no mutated shape allocates much, and
`train` runs two steps whatever the config says.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spartan.cli import main
from spartan.data import SyntheticTopicTask, generate_topic_dataset, write_jsonl
from spartan.numerics import make_rng

# a numpy warning on any CLI path fails the test instead of being captured
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONFIG = {
    "seed": 0,
    "num_labels": None,
    "backbone": {"d": 8, "layers": 1, "heads": 2, "ffn_dim": 8,
                 "vocab_hash_buckets": 32, "max_seq_len": 8, "pooling": "first"},
    "plugin": {"kind": "spartan", "num_parents": 4, "children_per_parent": 2, "top_k": 2},
    "train": {"learning_rate": 1e-3, "batch_size": 4, "steps": 2, "few_shot_steps": 2,
              "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8, "weight_decay": 0.0},
}

SCALARS = (st.none() | st.booleans() | st.integers(min_value=-3, max_value=40)
           | st.floats(min_value=-1e3, max_value=1e3) | st.text(max_size=6))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                        max_size=3),
    max_leaves=4)


def value_paths(value, path=()):
    """Every path into a JSON document, containers included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from value_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from value_paths(item, path + (i,))


def replaced(document, path, value):
    if not path:
        return value
    document = json.loads(json.dumps(document))
    *outer, last = path
    holder = document
    for key in outer:
        holder = holder[key]
    holder[last] = value
    return document


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Paths of the unmutated inputs: training data and a checkpoint trained on it."""
    tmp = tmp_path_factory.mktemp("fuzz")
    config, data, model = tmp / "config.json", tmp / "train.jsonl", tmp / "model.ckpt"
    config.write_text(json.dumps(CONFIG))
    task = SyntheticTopicTask(num_topics=2, examples_per_topic=4, words_per_example=4)
    write_jsonl(data, generate_topic_dataset(task, make_rng(0)))
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(model)]) == 0
    return data, model


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3), (code, err)
    assert len(err.strip().splitlines()) <= 1 and "Traceback" not in err, err


# a lone continuation byte, a truncated 2- and 3-byte sequence, an encoded
# surrogate, an overlong '/', and bytes UTF-8 never uses
INVALID_UTF8 = (b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xfe", b"\xff")


def damaged(raw: bytes, draw) -> bytes:
    """raw truncated, with bits flipped, or with invalid UTF-8 inserted."""
    how = draw.draw(st.sampled_from(["truncate", "flip", "insert"]), label="how")
    if how == "truncate":
        return raw[:draw.draw(st.integers(0, len(raw) - 1), label="keep")]
    if how == "insert":
        at = draw.draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + draw.draw(st.sampled_from(INVALID_UTF8), label="bytes") + raw[at:]
    out = bytearray(raw)
    flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 7))
    for at, bit in draw.draw(st.lists(flips, min_size=1, max_size=8), label="flips"):
        out[at] ^= 1 << bit
    return bytes(out)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["train", "eval"]), draw=st.data())
def test_one_replaced_value_never_crashes(originals, command, draw):
    data, model = originals
    # of a checkpoint only the header line is edited; its tensor bytes stay
    header, body = model.read_bytes().split(b"\n", 1)
    document, tail = (CONFIG, b"") if command == "train" else (json.loads(header), b"\n" + body)
    path = draw.draw(st.sampled_from(list(value_paths(document))), label="path")
    value = draw.draw(JSON_VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "input.json"
        mutated.write_bytes(json.dumps(replaced(document, path, value)).encode() + tail)
        if command == "train":
            # --steps keeps a run short whatever the file says; the file's
            # own train section is still checked
            argv = ["train", "--config", str(mutated), "--data", str(data),
                    "--out", str(Path(tmp) / "out.json"), "--steps", "2"]
        else:
            argv = ["eval", "--model", str(mutated), "--data", str(data)]
        code, err = run_cli(argv)
    assert_clean_exit(code, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["train", "eval"]), draw=st.data())
def test_damaged_bytes_never_crash(originals, command, draw):
    """train reads a damaged JSONL data file; eval a damaged checkpoint."""
    data, model = originals
    raw = damaged((data if command == "train" else model).read_bytes(), draw)
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / ("train.jsonl" if command == "train" else "model.ckpt")
        mutated.write_bytes(raw)
        if command == "train":
            argv = ["train", "--data", str(mutated), "--config", str(data.parent / "config.json"),
                    "--out", str(Path(tmp) / "out.json"), "--steps", "2"]
        else:
            argv = ["eval", "--model", str(mutated), "--data", str(data)]
        code, err = run_cli(argv)
    assert_clean_exit(code, err)
