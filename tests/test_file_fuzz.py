"""Mutated input files through the CLI: the restore CSV, the checkpoint, the
dataset sidecar and the --config file.

Each test starts from a valid file, drops a key, cell or row, swaps a value
for one of another type (NaN and huge numbers included), truncates the bytes
or overwrites one byte, and runs the command in-process; each JSON reader
also gets one document nested too deep to parse.  Every case must
exit 0 or 2, print at most one `error:` line (exactly one on exit 2), and
raise no exception out of `main`.  On exit 0 the output holds no NaN or inf;
on exit 2 there is no output file.
"""

import contextlib
import copy
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgflow import MlpDenoiser, make_gaussian_pairs, save_checkpoint, save_dataset
from rgflow.cli import main

FUZZ = settings(max_examples=100, deadline=None)

JSON_JUNK = st.sampled_from([
    None, True, False, 0, -1, 3, 2.5, "x", "", "gaussian", [], [1, 2], {}, {"a": 1},
    float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10**400,
])
CSV_JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "1e308", "-1e308",
                            "1_0", " 1", "0x10", "1,2", '"'])


def _children(node):
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    return []


@st.composite
def mutated(draw, doc, junk, dump):
    """The bytes of `doc`, as `dump` writes it, after one mutation.

    A drop or a swap picks its target by a walk from the root that enters
    one of the root's children and then goes deeper with even odds, so that
    the top-level fields, which the readers check one by one, are hit as
    often as the cells of large arrays.  One in ten replaces the whole
    document."""
    kind = draw(st.sampled_from(["drop", "swap", "truncate", "byte"]))
    if kind in ("drop", "swap"):
        if draw(st.integers(0, 9)) == 0 or not _children(doc):
            return dump(None if kind == "drop" else draw(junk))
        doc = copy.deepcopy(doc)
        parent, key = doc, draw(st.sampled_from(_children(doc)))
        while _children(parent[key]) and draw(st.booleans()):
            parent, key = parent[key], draw(st.sampled_from(_children(parent[key])))
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = draw(junk)
        return dump(doc)
    raw = dump(doc)
    at = draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    return raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]


def _json(doc) -> bytes:
    return b"" if doc is None else json.dumps(doc).encode()


def _csv(rows) -> bytes:
    if rows is None:
        return b""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows if isinstance(rows, list) else [[rows]])
    return buf.getvalue().encode()


def _check_run(argv, out) -> int:
    """Run `main`; it must exit 0 with finite output, or 2 with exactly one
    error line and no output file.  Returns the exit code."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2), (code, err.getvalue())
    assert len(errors) == (1 if code == 2 else 0), err.getvalue()
    if code == 2:
        assert not out.exists()
    else:
        written = out.read_bytes().lower()
        assert b"nan" not in written and b"inf" not in written
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small valid checkpoint, restore input, dataset with sidecar, and
    train config, with their parsed forms."""
    work = tmp_path_factory.mktemp("fuzz")
    net = MlpDenoiser(dim=2, hidden=2, emb_dim=2)
    save_checkpoint(work / "ck.json", net, rho=0.5)
    save_dataset(make_gaussian_pairs(0.5, 6, seed=1, dim=2), work / "data.csv")
    rows = [["x1_1", "x1_2"], ["0.5", "-0.25"], ["1.5", "0"], ["-2", "0.125"]]
    config = {"data": "scurve", "jitter": 0.05, "strength": 1.0, "noise": 0.25,
              "gaussian_rho": 0.5, "sigma_d": 1.0, "time_sampler": "elliptical",
              "lr": 1e-3, "weight_decay": 0.01, "ema_decay": 0.9,
              "adaptive_weighting": True, "seed": 3}
    (work / "input.csv").write_bytes(_csv(rows))
    return {
        "work": work,
        "checkpoint": json.loads((work / "ck.json").read_text()),
        "sidecar": json.loads((work / "data.meta.json").read_text()),
        "rows": rows,
        "config": config,
    }


# Each test draws its mutation from the module fixture's valid form, so the
# strategies are built inside the test from `data`.


@FUZZ
@given(data=st.data())
def test_restore_input(files, data):
    work = files["work"]
    bad = work / "bad_input.csv"
    bad.write_bytes(data.draw(mutated(files["rows"], CSV_JUNK, _csv)))
    _check_run(["restore", "--model", work / "ck.json", "--input", bad,
                "--mode", "disi-g", "--steps", "3", "--out", work / "out.csv"],
               work / "out.csv")


@FUZZ
@given(data=st.data())
def test_checkpoint(files, data):
    work = files["work"]
    bad = work / "bad_ck.json"
    bad.write_bytes(data.draw(mutated(files["checkpoint"], JSON_JUNK, _json)))
    _check_run(["restore", "--model", bad, "--input", work / "input.csv",
                "--mode", "disi-g", "--steps", "3", "--out", work / "out.csv"],
               work / "out.csv")


@FUZZ
@given(data=st.data())
def test_sidecar(files, data):
    work = files["work"]
    bad = work / "bad_data.csv"
    bad.write_bytes((work / "data.csv").read_bytes())
    bad.with_suffix(".meta.json").write_bytes(
        data.draw(mutated(files["sidecar"], JSON_JUNK, _json)))
    _check_run(["sweep", "--data", bad, "--oracle", "gaussian", "--deltas", "0,0.3",
                "--etas", "0", "--nfes", "1,2", "--out", work / "out.csv"],
               work / "out.csv")


@FUZZ
@given(data=st.data())
def test_train_config(files, data):
    """Sizes come from flags, which win over the file, so that no mutation
    can ask for a long run or a large allocation."""
    work = files["work"]
    bad = work / "bad_config.json"
    bad.write_bytes(data.draw(mutated(files["config"], JSON_JUNK, _json)))
    _check_run(["train", "--config", bad, "--n", "20", "--steps", "2", "--batch", "4",
                "--hidden", "2", "--emb-dim", "2", "--dim", "2", "--out", work / "ck_out.json"],
               work / "ck_out.json")


# A 100 000-deep array: past the JSON parser's recursion limit.
DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("reader", ["checkpoint", "simulate-sidecar", "sweep-sidecar", "config"])
def test_deeply_nested_document_rejected(files, reader):
    """Each JSON reader rejects a document nested too deep to parse like
    any other that is not JSON: exit 2, one error line, no output file."""
    work = files["work"]
    out = work / "out.csv"
    bad = work / "deep.json"
    bad.write_bytes(DEEP)
    data = work / "deep_data.csv"
    data.write_bytes((work / "data.csv").read_bytes())
    data.with_suffix(".meta.json").write_bytes(DEEP)
    argv = {
        "checkpoint": ["restore", "--model", bad, "--input", work / "input.csv",
                       "--mode", "disi-g", "--steps", "3"],
        "simulate-sidecar": ["simulate", "--traj", "elliptical", "--delta", "0.3",
                             "--pairs", data, "--steps", "4"],
        "sweep-sidecar": ["sweep", "--data", data, "--oracle", "gaussian", "--deltas", "0",
                          "--nfes", "1"],
        "config": ["train", "--config", bad, "--n", "20", "--steps", "2", "--hidden", "2",
                   "--emb-dim", "2"],
    }[reader]
    assert _check_run([*argv, "--out", out], out) == 2
