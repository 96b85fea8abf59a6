"""CLI surfaces: flags, file formats, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rgflow
from rgflow.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def assert_rejected(capsys, out, *argv):
    """The command exits 2 with one `error:` line, which it returns, and
    writes no output."""
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()
    return err[0]


MALFORMED_DATASETS = pytest.mark.parametrize(
    "text",
    [
        "",
        "x0_1,x1_1\n",
        "x0_1,x1_1\n0.5,0.1\n0.25\n",
        "x0_1,x1_1\n0.5,abc\n",
        "x0_1,x1_1\n0.5,nan\n0.25,0.1\n",
    ],
    ids=["empty", "header-only", "ragged", "non-numeric", "non-finite"],
)


def malformed_dataset(tmp_path, text):
    """A dataset CSV with `text` and a valid sidecar, so only the CSV is bad."""
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    (tmp_path / "bad.meta.json").write_text(
        json.dumps({"kind": "gaussian", "params": {}, "seed": 0,
                    "sigma_d": 1.0, "rho_hat": 0.5})
    )
    return bad


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    ck = tmp_path_factory.mktemp("data") / "ck.json"
    code = run(
        "train", "--data", "gaussian", "--gaussian-rho", "0.5", "--dim", "2",
        "--n", "400", "--steps", "200", "--hidden", "16", "--emb-dim", "8",
        "--seed", "1", "--out", ck, "--save-data", path,
    )
    assert code == 0
    return path, ck


class TestScheduleDump:
    def test_columns_and_rows(self, tmp_path):
        out = tmp_path / "sched.csv"
        assert run("schedule-dump", "--rho", "0.5", "--grid", "6", "--out", out) == 0
        header, rows = read_csv(out)
        assert header == ["r", "g", "alpha", "beta", "lambda", "gamma", "dalpha", "dbeta"]
        assert len(rows) == 36


class TestTraj:
    def test_elliptical_grid(self, tmp_path):
        out = tmp_path / "tr.csv"
        assert run(
            "traj", "--kind", "elliptical", "--delta", "pi/8",
            "--rho", "0.5", "--steps", "4", "--out", out,
        ) == 0
        header, rows = read_csv(out)
        assert header == ["t", "r", "g"]
        assert len(rows) == 5
        assert float(rows[0][2]) == 0.0 and float(rows[-1][2]) == 0.0

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run("traj", "--kind", "bezier", "--delta", "0.3", "--steps", "9",
                "--out", out)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, named", [
        (["--kind", "elliptical", "--p", "3"], "the elliptical path has no parameter p"),
        (["--kind", "regression", "--delta", "0.3"],
         "the regression path has no parameter delta"),
    ], ids=["elliptical-p", "regression-delta"])
    def test_parameter_the_kind_lacks_rejected(self, tmp_path, capsys, flags, named):
        err = assert_rejected(capsys, tmp_path / "x.csv", "traj", *flags, "--steps", "5")
        assert err == f"error: {named}"

    @pytest.mark.parametrize("p", ["nan", "inf", "0"])
    def test_vpath_p_outside_range_rejected(self, tmp_path, capsys, p):
        err = assert_rejected(capsys, tmp_path / "x.csv", "traj", "--kind", "vpath",
                              "--steps", "3", "--p", p)
        assert err == f"error: p must be finite and > 0, got {float(p)}"


@pytest.mark.parametrize("command", ["traj", "simulate", "bench"])
@pytest.mark.parametrize("p", ["1.5", "3"])
def test_p_read_only_where_the_path_lifts(toy_dataset, tmp_path, capsys, command, p):
    """traj, simulate and bench draw the whole path, and p shapes only a
    path that leaves g = 0: a vpath at --delta 0 rejects --p with one
    error line, and one at --delta 0.3 takes it."""
    data, _ = toy_dataset
    rest = {"traj": ("traj", "--kind", "vpath", "--steps", "5"),
            "simulate": ("simulate", "--traj", "vpath", "--pairs", data, "--steps", "5"),
            "bench": ("bench", "--traj", "vpath", "--euler-steps", "50",
                      "--sampler-steps", "5", "--trials", "3")}[command]
    err = assert_rejected(capsys, tmp_path / "x.csv", *rest, "--delta", "0", "--p", p)
    assert err == "error: --p is not read by a vpath path at delta 0"
    assert run(*rest, "--delta", "0.3", "--p", p, "--out", tmp_path / "y.csv") == 0
    assert (tmp_path / "y.csv").exists()


class TestAngleArguments:
    @pytest.mark.parametrize("command, flag, value", [
        ("traj", "--delta", "pi/0"),
        ("sweep", "--deltas", "0,pi/0"),
        ("sweep", "--etas", "pi/0"),
    ], ids=["traj-delta", "sweep-deltas", "sweep-etas"])
    def test_zero_divisor_rejected(self, toy_dataset, tmp_path, capsys, command, flag, value):
        """'pi/0' is an invalid angle: argparse exits 2 naming the argument,
        and no output is written."""
        data, _ = toy_dataset
        rest = {"traj": ("--kind", "elliptical", "--steps", "3"),
                "sweep": ("--data", data, "--oracle", "gaussian")}[command]
        out = tmp_path / "x.csv"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(command, *rest, flag, value, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"rgflow {command}: error: argument {flag}: invalid ")
        assert not out.exists()


class TestSimulate:
    def test_states_along_path(self, toy_dataset, tmp_path):
        data, _ = toy_dataset
        out = tmp_path / "sim.csv"
        assert run(
            "simulate", "--traj", "elliptical", "--delta", "pi/4",
            "--pairs", data, "--steps", "6", "--seed", "3", "--out", out,
        ) == 0
        header, rows = read_csv(out)
        assert header == ["t", "r", "g", "x_1", "x_2"]
        assert len(rows) == 7

    @MALFORMED_DATASETS
    def test_malformed_pairs_rejected(self, tmp_path, capsys, text):
        bad = malformed_dataset(tmp_path, text)
        assert_rejected(capsys, tmp_path / "x.csv", "simulate", "--traj", "elliptical",
                        "--delta", "pi/4", "--pairs", bad, "--steps", "2")


class TestTrainCli:
    def test_checkpoint_and_trace(self, tmp_path):
        ck = tmp_path / "ck.json"
        trace = tmp_path / "loss.csv"
        assert run(
            "train", "--data", "scurve", "--n", "200", "--steps", "50",
            "--hidden", "8", "--emb-dim", "4", "--seed", "0",
            "--out", ck, "--trace", trace,
        ) == 0
        doc = json.loads(ck.read_text())
        assert doc["version"] == 1 and "ema_weights" in doc
        header, rows = read_csv(trace)
        assert header == ["step", "loss"] and len(rows) == 50

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"data": "gaussian", "dim": 1, "n": 100,
                                    "steps": 30, "hidden": 8, "emb_dim": 4}))
        ck = tmp_path / "ck.json"
        trace = tmp_path / "tr.csv"
        assert run("train", "--config", conf, "--steps", "10",
                   "--out", ck, "--trace", trace) == 0
        _, rows = read_csv(trace)
        assert len(rows) == 10  # flag wins over the config file

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"stepz": 10}))
        assert run("train", "--config", conf, "--out", tmp_path / "x.json") == 2

    @pytest.mark.parametrize("hidden", ["0", "-4"])
    def test_hidden_below_one_rejected(self, tmp_path, capsys, hidden):
        assert_rejected(capsys, tmp_path / "ck.json", "train", "--n", "50",
                        "--steps", "5", "--hidden", hidden)

    @pytest.mark.parametrize("flags, field", [
        (("--lr", "nan"), "learning_rate"),
        (("--lr", "inf"), "learning_rate"),
        (("--lr", "-1"), "learning_rate"),
        (("--weight-decay", "nan"), "weight_decay"),
        (("--weight-decay", "inf"), "weight_decay"),
        (("--weight-decay", "-1"), "weight_decay"),
        (("--jitter", "nan"), "jitter"),
        (("--jitter", "inf"), "jitter"),
        (("--strength", "nan"), "strength"),
        (("--noise", "nan"), "noise"),
        (("--noise=-inf",), "noise"),
        (("--sigma-d", "nan"), "sigma_d"),
        (("--sigma-d", "inf"), "sigma_d"),
        (("--sigma-d", "0"), "sigma_d"),
        (("--data", "gaussian", "--sigma-d", "nan"), "sigma_d"),
        (("--data", "gaussian", "--gaussian-rho", "nan"), "rho"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_bad_setting_rejected_by_name(self, tmp_path, capsys, flags, field):
        """A non-finite or out-of-range setting exits 2 with one error line
        that names it, before any training."""
        out = tmp_path / "ck.json"
        capsys.readouterr()
        assert run("train", "--n", "50", "--steps", "2", "--hidden", "4",
                   "--emb-dim", "2", *flags, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} must ")
        assert not out.exists()


class TestTrainOtherDataKind:
    """A setting that only the other data kind reads, as a flag or as a
    --config key, exits 2 with one error line naming it, before any data is
    drawn; a flag names the flag even when the file also sets the key."""

    @pytest.mark.parametrize("data, flag, value", [
        ("gaussian", "--jitter", "0.3"), ("gaussian", "--strength", "2"),
        ("gaussian", "--noise", "5"), ("scurve", "--gaussian-rho", "0.9"),
        ("scurve", "--dim", "5"),
    ])
    def test_flag_rejected(self, tmp_path, capsys, data, flag, value):
        err = assert_rejected(capsys, tmp_path / "ck.json", "train", "--data", data,
                              "--n", "50", "--steps", "2", flag, value)
        assert err == f"error: {flag} is not read on {data} data"

    @pytest.mark.parametrize("conf, key", [
        ({"data": "gaussian", "jitter": 0.3}, "jitter"),
        ({"data": "gaussian", "noise": None}, "noise"),
        ({"data": "gaussian", "strength": "x"}, "strength"),
        ({"gaussian_rho": 0.9}, "gaussian_rho"),
        ({"data": "scurve", "dim": 5}, "dim"),
    ])
    def test_config_key_rejected(self, tmp_path, capsys, conf, key):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"n": 50, "steps": 2, **conf}))
        err = assert_rejected(capsys, tmp_path / "ck.json", "train", "--config", path)
        data = conf.get("data", "scurve")
        assert err == f"error: config key {key!r} is not read on {data} data"

    def test_flag_named_before_config_key(self, tmp_path, capsys):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"n": 50, "steps": 2, "dim": 3}))
        err = assert_rejected(capsys, tmp_path / "ck.json", "train", "--config", path,
                              "--dim", "3")
        assert err == "error: --dim is not read on scurve data"

    def test_data_kind_from_the_file_decides(self, tmp_path, capsys):
        """The kind the run draws, from a flag over the file, sets which
        settings it reads."""
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"n": 50, "steps": 2, "data": "gaussian", "dim": 1}))
        assert run("train", "--config", path, "--out", tmp_path / "a.json") == 0
        err = assert_rejected(capsys, tmp_path / "b.json", "train", "--config", path,
                              "--data", "scurve")
        assert err == "error: config key 'dim' is not read on scurve data"


class TestTrainHugeSettings:
    """A finite setting so large that float64 overflows exits 2 with one
    error line that names its cause, and prints no numpy warning."""

    @pytest.mark.parametrize("conf, cause", [
        ({"strength": 1e308}, "strength=1e+308"),
        ({"jitter": 1e200}, "jitter=1e+200"),
        ({"noise": 1e308}, "noise=1e+308"),
        ({"sigma_d": 1e160}, "sigma_d=1e+160"),
        ({"data": "gaussian", "sigma_d": 1e308}, "sigma_d=1e+308"),
        ({"lr": 1e308}, "loss became nan"),
        ({"weight_decay": 1e200}, "loss became nan"),
        # Only the one update overflows, so the run's last check finds it.
        ({"lr": 1e308, "steps": 1}, "after step 0"),
    ], ids=["strength", "jitter", "noise", "sigma_d", "gaussian-sigma_d", "lr",
            "weight_decay", "lr-last-update"])
    def test_rejected_by_one_line_naming_the_cause(self, tmp_path, capsys, conf, cause):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"n": 20, "steps": 2, "hidden": 4, "emb_dim": 2, **conf}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = assert_rejected(capsys, tmp_path / "ck.json", "train", "--config", path)
        assert caught == []
        assert cause in err and "Warning" not in err


class TestTrainConfigTypes:
    """Every value a --config file sets must have its field's JSON type:
    int fields take only integers, float fields integers or reals,
    adaptive_weighting only true/false, string fields only strings, and the
    file must hold one JSON object.  Anything else exits 2 with one error
    line, never a traceback or a silently converted value."""

    SMALL = {"n": 50, "steps": 2, "hidden": 4, "emb_dim": 2}

    @pytest.mark.parametrize("text", [
        json.dumps({**SMALL, "hidden": 1.5}),
        json.dumps({**SMALL, "hidden": 2.0}),
        json.dumps({**SMALL, "steps": True}),
        json.dumps({**SMALL, "n": None}),
        json.dumps({**SMALL, "adaptive_weighting": "false"}),
        json.dumps({**SMALL, "adaptive_weighting": 0}),
        json.dumps({**SMALL, "ema_decay": "x"}),
        json.dumps({**SMALL, "lr": [1e-3]}),
        json.dumps({**SMALL, "lr": 10**400}),
        json.dumps({**SMALL, "data": 3}),
        json.dumps({**SMALL, "time_sampler": None}),
        "{not json",
        "",
        "[1, 2]",
        "7",
    ], ids=["int-float", "int-integral-float", "int-bool", "int-null", "bool-string",
            "bool-int", "float-string", "float-list", "float-overflow", "str-int",
            "str-null", "not-json", "empty", "list", "number"])
    def test_bad_value_rejected(self, tmp_path, capsys, text):
        conf = tmp_path / "conf.json"
        conf.write_text(text)
        assert_rejected(capsys, tmp_path / "ck.json", "train", "--config", conf)

    def test_list_is_not_read_as_keys(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text("[1, 2]")
        assert run("train", "--config", conf, "--out", tmp_path / "ck.json") == 2
        assert "JSON object" in capsys.readouterr().err

    def test_binary_file_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_bytes(b"\xff\xfe\x00{")
        assert_rejected(capsys, tmp_path / "ck.json", "train", "--config", conf)

    def test_values_of_their_type_are_used(self, tmp_path, monkeypatch):
        """An integer in a float field is read as that number, a JSON false
        turns adaptive weighting off, and a flag still wins over the file."""
        import rgflow.training

        seen = []
        real = rgflow.training.train

        def spy(ds, cfg):
            seen.append(cfg)
            return real(ds, cfg)

        monkeypatch.setattr(rgflow.training, "train", spy)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({**self.SMALL, "lr": 1, "adaptive_weighting": False,
                                    "ema_decay": 0.5, "seed": 4}))
        assert run("train", "--config", conf, "--out", tmp_path / "a.json") == 0
        assert run("train", "--config", conf, "--adaptive-weighting", "1",
                   "--out", tmp_path / "b.json") == 0
        first, second = seen
        assert first.learning_rate == 1.0 and type(first.learning_rate) is float
        assert first.adaptive_weighting is False and second.adaptive_weighting is True
        assert (first.hidden, first.n_steps, first.ema_decay, first.seed) == (4, 2, 0.5, 4)


class TestRestoreCli:
    def test_modes_and_determinism(self, toy_dataset, tmp_path):
        data, ck = toy_dataset
        out_r = tmp_path / "r.csv"
        assert run("restore", "--model", ck, "--input", data,
                   "--mode", "disi-r", "--out", out_r) == 0
        header, rows = read_csv(out_r)
        assert header == ["x_1", "x_2"] and len(rows) == 400

        out_g1 = tmp_path / "g1.csv"
        out_g2 = tmp_path / "g2.csv"
        for out in (out_g1, out_g2):
            assert run("restore", "--model", ck, "--input", data,
                       "--mode", "disi-g", "--seed", "5", "--out", out) == 0
        assert out_g1.read_bytes() == out_g2.read_bytes()

    @pytest.mark.parametrize("mode, flags, expanded", [
        ("disi-r", [], ["--traj", "regression", "--steps", "1"]),
        ("disi-r", ["--traj", "regression", "--steps", "1"],
         ["--traj", "regression", "--steps", "1"]),
        ("disi-g", [], ["--traj", "elliptical", "--delta", "pi/8", "--steps", "10"]),
        ("disi-g", ["--steps", "15", "--eta", "0.5"],
         ["--traj", "elliptical", "--delta", "pi/8", "--steps", "15", "--eta", "0.5"]),
        ("disi-g", ["--traj", "elliptical", "--delta", "0.3"],
         ["--traj", "elliptical", "--delta", "0.3", "--steps", "10"]),
    ], ids=["r", "r-consistent", "g", "g-steps-eta", "g-delta"])
    def test_mode_equals_its_flags(self, toy_dataset, tmp_path, mode, flags, expanded):
        """A preset, with flags that agree with it, writes the bytes of the
        flags it stands for.  disi-r draws no noise, so it takes no --seed."""
        data, ck = toy_dataset
        seed = ["--seed", "4"] if mode == "disi-g" else []
        common = ["restore", "--model", ck, "--input", data, *seed]
        assert run(*common, "--mode", mode, *flags, "--out", tmp_path / "m.csv") == 0
        assert run(*common, *expanded, "--out", tmp_path / "f.csv") == 0
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()

    @pytest.mark.parametrize("mode, flags", [
        ("disi-r", ["--steps", "5"]),
        ("disi-r", ["--traj", "elliptical"]),
        ("disi-g", ["--traj", "linear"]),
        ("disi-g", ["--traj", "regression", "--steps", "1"]),
    ], ids=["r-steps", "r-traj", "g-traj", "g-regression"])
    def test_mode_contradicted_by_flag_rejected(self, toy_dataset, tmp_path, capsys, mode,
                                                flags):
        data, ck = toy_dataset
        err = assert_rejected(capsys, tmp_path / "x.csv", "restore", "--model", ck,
                              "--input", data, "--mode", mode, *flags)
        assert f"{flags[0]} {flags[1]} contradicts --mode {mode}" in err

    def test_gaussian_oracle_restore(self, toy_dataset, tmp_path):
        data, _ = toy_dataset
        out = tmp_path / "o.csv"
        assert run("restore", "--oracle", "gaussian", "--rho", "0.5",
                   "--input", data, "--traj", "regression", "--steps", "1",
                   "--out", out) == 0
        _, rows = read_csv(out)
        assert len(rows) == 400

    def test_byte_order_mark_keeps_every_column(self, tmp_path):
        """A UTF-8 byte-order mark before an x1_1,x1_2 header still reads two
        x1_ columns, so the output is that of the same file without it."""
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"x1_1,x1_2\n0.5,-1.25\n2.0,0.75\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for path in (plain, bom):
            outs.append(tmp_path / f"out_{path.name}")
            assert run("restore", "--oracle", "gaussian", "--rho", "0.5", "--mode", "disi-r",
                       "--input", path, "--out", outs[-1]) == 0
        assert read_csv(outs[0])[0] == ["x_1", "x_2"]
        assert outs[1].read_bytes() == outs[0].read_bytes()

    def test_invalid_single_step_config(self, toy_dataset, tmp_path):
        data, ck = toy_dataset
        code = run("restore", "--model", ck, "--input", data,
                   "--traj", "elliptical", "--delta", "pi/4", "--steps", "1",
                   "--eta", "0", "--out", tmp_path / "x.csv")
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x1_1,x1_2\n",
            "x1_1,x1_2\n0.5,abc\n",
            "x1_1,x1_2\n0.5,nan\n0.25,inf\n",
        ],
        ids=["empty", "header-only", "non-numeric", "non-finite"],
    )
    def test_malformed_input_rejected(self, toy_dataset, tmp_path, capsys, text):
        _, ck = toy_dataset
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert_rejected(capsys, tmp_path / "x.csv", "restore", "--model", ck,
                        "--input", bad)

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
    def test_output_is_restore_batch_on_the_whole_input(self, toy_dataset, tmp_path, rows):
        """The output is restore_batch's on the whole input, byte for byte,
        at row counts on both sides of the bound step's block edges, where a
        lone row's gemv would round otherwise.  Three inputs are run, with
        seeds on both sides of 2**32, where the stream seeding changes."""
        from rgflow import Elliptical, GvpSchedule, SamplerConfig, load_checkpoint, restore_batch
        from rgflow.toydata import write_csv

        _, ck = toy_dataset
        ckpt = load_checkpoint(ck)
        net = ckpt.denoiser()
        sched = GvpSchedule(rho=ckpt.rho, sigma_d=net.sigma_d)
        points, want, out = tmp_path / "in.csv", tmp_path / "want.csv", tmp_path / "out.csv"
        for k, seed in enumerate([5, 2**32 - 1, 2**32]):
            cfg = SamplerConfig(Elliptical(phi=sched.phi, delta=np.pi / 8), n_steps=15,
                                eta=0.5, seed=seed)
            x1 = np.random.default_rng([rows, k]).normal(size=(rows, 2))
            write_csv(points, ["x_1", "x_2"], x1)
            write_csv(want, ["x_1", "x_2"], restore_batch(sched, net, x1, cfg))
            assert run("restore", "--model", ck, "--input", points, "--mode", "disi-g",
                       "--steps", "15", "--eta", "0.5", "--seed", seed, "--out", out) == 0
            assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("flags, named", [
        (["--mode", "disi-r", "--delta", "0.3"], "the regression path has no parameter delta"),
        (["--mode", "disi-r", "--p", "3"], "the regression path has no parameter p"),
        (["--mode", "disi-r", "--eta", "0.7"],
         "--eta is not read by a 1-step regression run at delta 0"),
        (["--mode", "disi-r", "--boot-epsilon", "0.2"],
         "--boot-epsilon is not read by a 1-step regression run at delta 0"),
        (["--mode", "disi-g", "--p", "3"], "the elliptical path has no parameter p"),
        # delta = 0 takes the regression segment, as --traj regression does;
        # one step from g = 0 reads no delta either, and --delta comes first.
        (["--traj", "elliptical", "--delta", "0", "--steps", "1", "--eta", "0.5"],
         "--delta is not read by a 1-step elliptical run at delta 0"),
        (["--mode", "disi-g", "--delta", "0", "--eta", "0.7"],
         "--eta is not read by a 10-step elliptical run at delta 0"),
        (["--traj", "linear", "--delta", "0", "--boot-epsilon", "0.2"],
         "--boot-epsilon is not read by a 10-step linear run at delta 0"),
        # A linear path starts above g = 0, and one step from g = 0 runs
        # to the clean end, whatever the delta: neither visits a boot point.
        (["--traj", "linear", "--delta", "0.5", "--steps", "4", "--boot-epsilon", "0.3"],
         "--boot-epsilon is not read by a 4-step linear run at delta 0.5"),
        (["--traj", "elliptical", "--delta", "0.3", "--steps", "1", "--eta", "1",
          "--boot-epsilon", "0.2"], "--delta is not read by a 1-step elliptical run at delta 0.3"),
        # Nor do these runs draw noise.
        (["--mode", "disi-r", "--seed", "5"],
         "--seed is not read by a 1-step regression run at delta 0"),
        (["--traj", "elliptical", "--delta", "0", "--steps", "3", "--seed", "5"],
         "--seed is not read by a 3-step elliptical run at delta 0"),
        (["--traj", "elliptical", "--delta", "0.3", "--steps", "1", "--eta", "1", "--seed", "5"],
         "--delta is not read by a 1-step elliptical run at delta 0.3"),
        # One step from g = 0 reads neither the path's delta nor its p, and
        # a path that stays on g = 0 reads no p.
        (["--traj", "bezier", "--delta", "0.3", "--steps", "1", "--eta", "1"],
         "--delta is not read by a 1-step bezier run at delta 0.3"),
        (["--traj", "vpath", "--steps", "1", "--p", "3"],
         "--p is not read by a 1-step vpath run at delta 0"),
        (["--traj", "vpath", "--delta", "0", "--steps", "5", "--p", "3"],
         "--p is not read by a 5-step vpath run at delta 0"),
        (["--mode", "disi-r", "--boot-epsilon", "0.2", "--seed", "5"],
         "--boot-epsilon is not read by a 1-step regression run at delta 0"),
    ], ids=["r-delta", "r-p", "r-eta", "r-boot-epsilon", "g-p", "delta0-eta",
            "g-delta0-eta", "linear-delta0-boot-epsilon", "linear-boot-epsilon",
            "one-boot-step-boot-epsilon", "r-seed", "delta0-seed", "one-boot-step-seed",
            "one-step-delta", "one-step-p", "delta0-p", "first-in-parser-order"])
    def test_flag_the_path_does_not_read_rejected(self, toy_dataset, tmp_path, capsys, flags,
                                                  named):
        data, ck = toy_dataset
        err = assert_rejected(capsys, tmp_path / "x.csv", "restore", "--model", ck,
                              "--input", data, *flags)
        assert err == f"error: {named}"

    def test_preset_default_the_run_does_not_read_not_rejected(self, toy_dataset, tmp_path):
        """disi-g's default --delta is not read on one step from g = 0, but
        only a flag that was given is rejected: the run takes its one boot
        step, which is disi-r's regression step, bit for bit."""
        data, ck = toy_dataset
        common = ["restore", "--model", ck, "--input", data]
        assert run(*common, "--mode", "disi-g", "--steps", "1", "--eta", "1",
                   "--out", tmp_path / "g.csv") == 0
        assert run(*common, "--mode", "disi-r", "--out", tmp_path / "r.csv") == 0
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()

    @pytest.mark.parametrize("command, flags, named", [
        ("restore", ["--model", "CK", "--rho", "0.3"],
         "--rho is not read with --model"),
        ("restore", ["--model", "CK", "--sigma-d", "5"],
         "--sigma-d is not read with --model"),
        ("restore", ["--model", "CK", "--oracle", "gaussian", "--rho", "0.2"],
         "--oracle is not read with --model"),
        ("restore", ["--oracle", "gaussian", "--rho", "0.5", "--no-ema"],
         "--no-ema is not read without --model"),
        ("sweep", ["--model", "CK", "--oracle", "cheat"],
         "--oracle is not read with --model"),
        ("sweep", ["--model", "CK", "--rho", "0.3"], "--rho is not read with --model"),
        ("sweep", ["--oracle", "gaussian", "--no-ema"], "--no-ema is not read without --model"),
    ], ids=["restore-model-rho", "restore-model-sigma-d", "restore-model-oracle",
            "restore-oracle-no-ema", "sweep-model-oracle", "sweep-model-rho",
            "sweep-oracle-no-ema"])
    def test_predictor_flag_the_run_does_not_read_rejected(self, toy_dataset, tmp_path, capsys,
                                                           command, flags, named):
        """A flag for a denoiser the run does not use exits 2 with one error
        line and writes nothing, before any restoration."""
        data, ck = toy_dataset
        source = ["--input", data] if command == "restore" else ["--data", data]
        flags = [ck if f == "CK" else f for f in flags]
        err = assert_rejected(capsys, tmp_path / "x.csv", command, *source, *flags,
                              *(["--nfes", "1"] if command == "sweep" else []))
        assert err == f"error: {named}"

    def test_misshaped_raw_weights_rejected(self, toy_dataset, tmp_path, capsys):
        data, ck = toy_dataset
        doc = json.loads(ck.read_text())
        doc["weights"]["W2"] = doc["weights"]["W2"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert run("restore", "--model", bad, "--no-ema", "--input", data,
                   "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "W2" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["disi-r", "disi-g"])
    def test_overflowing_weights_rejected(self, toy_dataset, tmp_path, capsys, mode):
        """W3 = 1e308 is finite, so the checkpoint loads, but predictions
        overflow to inf: the run exits 2 with one error line, no numpy
        warning and no output file."""
        data, ck = toy_dataset
        doc = json.loads(ck.read_text())
        for key in ("weights", "ema_weights"):
            doc[key]["W3"] = [[1e308] * len(row) for row in doc[key]["W3"]]
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_rejected(capsys, tmp_path / "x.csv", "restore", "--model", bad,
                            "--input", data, "--mode", mode)
        assert caught == []

    def test_error_line_counts_the_whole_input(self, toy_dataset, tmp_path, capsys):
        """A 600-row input whose every prediction overflows is reported by
        one line that counts all 600 rows, not those of one block."""
        from rgflow.toydata import write_csv

        _, ck = toy_dataset
        doc = json.loads(ck.read_text())
        for key in ("weights", "ema_weights"):
            doc[key]["W3"] = [[1e308] * len(row) for row in doc[key]["W3"]]
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        points = tmp_path / "in.csv"
        write_csv(points, ["x_1", "x_2"], np.random.default_rng(6).normal(size=(600, 2)))
        err = assert_rejected(capsys, tmp_path / "x.csv", "restore", "--model", bad,
                              "--input", points, "--mode", "disi-g")
        assert err == "error: restoration produced non-finite values in 600 of 600 rows"

    def test_zero_hidden_checkpoint_rejected(self, toy_dataset, tmp_path, capsys):
        data, ck = toy_dataset
        doc = json.loads(ck.read_text())
        doc["widths"][1:3] = [0, 0]
        for key in ("weights", "ema_weights"):
            w = doc[key]
            w["W1"] = [[] for _ in w["W1"]]
            w["b1"], w["W2"], w["b2"], w["W3"] = [], [], [], []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert run("restore", "--model", bad, "--input", data, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: hidden must be >= 1")
        assert not out.exists()

    def test_missing_input_is_io_error(self, toy_dataset, tmp_path):
        _, ck = toy_dataset
        assert run("restore", "--model", ck, "--input", tmp_path / "nope.csv",
                   "--out", tmp_path / "x.csv") == 3


class TestSweepCli:
    def test_structure(self, toy_dataset, tmp_path):
        data, _ = toy_dataset
        out = tmp_path / "sweep.csv"
        assert run(
            "sweep", "--data", data, "--oracle", "cheat",
            "--deltas", "0,pi/8,pi/4", "--etas", "0,1", "--nfes", "1,2,5",
            "--seed", "2", "--out", out,
        ) == 0
        header, rows = read_csv(out)
        assert header == ["delta", "eta", "nfe", "mse", "energy_distance"]
        cells = {(r[0], r[1], r[2]): r[3] for r in rows}
        # regression rows appear once with eta = NA
        assert ("0", "NA", "1") in cells
        # NFE=1 with eta<1 on a noisy path is NA
        na_cell = [r for r in rows if r[1] == "0" and r[2] == "1" and r[0] != "0"]
        assert na_cell and all(r[3] == "NA" for r in na_cell)
        # NFE=2 collapse: identical mse across deltas at eta=0
        nfe2 = {r[0] for r in rows if r[1] == "0" and r[2] == "2"}
        vals = {r[3] for r in rows if r[1] == "0" and r[2] == "2"}
        assert len(nfe2) == 2 and len(vals) == 1

    def test_gaussian_oracle_sweep(self, toy_dataset, tmp_path):
        data, _ = toy_dataset
        out = tmp_path / "sweep2.csv"
        assert run("sweep", "--data", data, "--oracle", "gaussian",
                   "--deltas", "0,pi/8", "--etas", "0", "--nfes", "2,5",
                   "--out", out) == 0
        _, rows = read_csv(out)
        assert all(r[3] != "NA" for r in rows)

    @pytest.mark.parametrize("flags, err", [
        (["--etas", "2"], "eta must lie in [0, 1], got 2.0"),
        (["--etas", "nan"], "eta must lie in [0, 1], got nan"),
        (["--nfes", "0"], "n_steps must be >= 1, got 0"),
        (["--nfes", "5,-1"], "n_steps must be >= 1, got -1"),
        (["--deltas", "pi/8,2"], "delta must lie in [0, pi/2], got 2.0"),
        (["--deltas", ","], "a sweep needs at least one delta, one eta and one NFE"),
        (["--etas", ","], "a sweep needs at least one delta, one eta and one NFE"),
        (["--nfes", ","], "a sweep needs at least one delta, one eta and one NFE"),
    ], ids=["eta-2", "eta-nan", "nfe-0", "nfe-minus-1", "delta-2", "no-deltas", "no-etas",
            "no-nfes"])
    def test_grid_value_restore_rejects(self, toy_dataset, tmp_path, capsys, flags, err):
        """A grid value outside the sampler's domain, or an empty axis, exits
        2 with restore's error line and writes no CSV, not NA cells."""
        data, _ = toy_dataset
        assert assert_rejected(capsys, tmp_path / "x.csv", "sweep", "--data", data,
                               "--oracle", "gaussian", *flags) == f"error: {err}"

    @pytest.mark.parametrize("flags, err", [
        (["--etas", "0.5"], "--etas is not read by any cell this sweep runs"),
        (["--boot-epsilon", "0.01"], "--boot-epsilon is not read by any cell this sweep runs"),
        (["--seed", "3"], "--seed is not read by any cell this sweep runs"),
        # The grid values are checked first.
        (["--etas", "0.5", "--nfes", "0"], "n_steps must be >= 1, got 0"),
        (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ], ids=["etas", "boot-epsilon", "seed", "nfe-0-etas", "seed-minus-1"])
    def test_flag_no_cell_reads_at_delta_0_rejected(self, toy_dataset, tmp_path, capsys,
                                                    flags, err):
        """At delta = 0 every cell runs the regression segment, which reads
        no eta or boot offset and draws no noise; without those flags the
        sweep runs."""
        data, _ = toy_dataset
        sweep = ["sweep", "--data", data, "--oracle", "gaussian", "--deltas", "0"]
        assert assert_rejected(capsys, tmp_path / "x.csv", *sweep, *flags) == f"error: {err}"
        assert run(*sweep, "--nfes", "1,2", "--out", tmp_path / "ok.csv") == 0

    @pytest.mark.parametrize("flags, err", [
        (["--seed", "3"], "--seed is not read by any cell this sweep runs"),
        (["--boot-epsilon", "0.01"], "--boot-epsilon is not read by any cell this sweep runs"),
        # The only eta a lifted one-step cell runs is 1; the others are NA.
        (["--etas", "0,0.5"], "--etas is not read by any cell this sweep runs"),
    ], ids=["seed", "boot-epsilon", "etas-all-na"])
    def test_flag_no_one_step_cell_reads_rejected(self, toy_dataset, tmp_path, capsys, flags,
                                                  err):
        """At NFE 1 each lifted cell takes one boot step to the clean end,
        which visits no boot point and draws no noise, and an NA cell runs
        nothing; the cell at eta 1 reads its eta."""
        data, _ = toy_dataset
        sweep = ["sweep", "--data", data, "--oracle", "gaussian", "--deltas", "pi/8",
                 "--nfes", "1"]
        etas = [] if flags[0] == "--etas" else ["--etas", "1"]
        assert assert_rejected(capsys, tmp_path / "x.csv", *sweep, *etas, *flags) == f"error: {err}"
        assert run(*sweep, "--etas", "0,1", "--out", tmp_path / "ok.csv") == 0

    def test_model_runs_on_restores_schedule(self, toy_dataset, tmp_path):
        """On a held-out set whose rho_hat is not the checkpoint's rho, the
        delta-0, NFE-1 cell's MSE is that of `restore --mode disi-r`, bit
        for bit: both run the net on the checkpoint's schedule."""
        _, ck = toy_dataset
        held = tmp_path / "held.csv"
        rgflow.save_dataset(rgflow.make_gaussian_pairs(0.3, 300, seed=9, dim=2), held)
        assert rgflow.load_dataset(held).rho_hat != rgflow.load_checkpoint(ck).rho
        assert run("sweep", "--data", held, "--model", ck, "--deltas", "0", "--nfes", "1",
                   "--out", tmp_path / "sweep.csv") == 0
        assert run("restore", "--model", ck, "--input", held, "--mode", "disi-r",
                   "--out", tmp_path / "r.csv") == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        restored = np.array(read_csv(tmp_path / "r.csv")[1], dtype=float)
        assert float(rows[0][3]) == rgflow.mse(restored, rgflow.load_dataset(held).x0)

    @MALFORMED_DATASETS
    def test_malformed_data_rejected(self, tmp_path, capsys, text):
        bad = malformed_dataset(tmp_path, text)
        assert_rejected(capsys, tmp_path / "x.csv", "sweep", "--data", bad,
                        "--oracle", "gaussian", "--deltas", "0,pi/8", "--etas", "0",
                        "--nfes", "2")


class TestSidecarAndCheckpointTypes:
    """A dataset sidecar or a checkpoint whose fields lack their JSON type
    exits 2 with one error line that names the field, never a traceback."""

    SIDECAR = {"kind": "gaussian", "params": {}, "seed": 0, "sigma_d": 1.0, "rho_hat": 0.5}

    @pytest.mark.parametrize("text, field", [
        ("{not json", "not JSON"),
        ("[1, 2]", "JSON object"),
        (json.dumps({k: v for k, v in SIDECAR.items() if k != "rho_hat"}), "rho_hat"),
        (json.dumps({**SIDECAR, "rho_hat": "x"}), "rho_hat"),
        (json.dumps({**SIDECAR, "sigma_d": None}), "sigma_d"),
        (json.dumps({**SIDECAR, "params": 5}), "params"),
    ], ids=["not-json", "list", "no-rho_hat", "rho_hat-string", "sigma_d-null",
            "params-number"])
    def test_bad_sidecar_rejected(self, toy_dataset, tmp_path, capsys, text, field):
        data, _ = toy_dataset
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data.read_bytes())
        (tmp_path / "bad.meta.json").write_text(text)
        err = assert_rejected(capsys, tmp_path / "x.csv", "sweep", "--data", bad,
                              "--oracle", "gaussian", "--deltas", "0", "--etas", "0",
                              "--nfes", "1")
        assert field in err

    @pytest.mark.parametrize("field, value", [
        ("rho_hat", 5), ("rho_hat", 1.0), ("rho_hat", -1), ("rho_hat", float("nan")),
        ("sigma_d", 0), ("sigma_d", -1.5), ("sigma_d", float("inf")),
    ], ids=["rho_hat-5", "rho_hat-1", "rho_hat-minus-1", "rho_hat-nan",
            "sigma_d-0", "sigma_d-negative", "sigma_d-inf"])
    @pytest.mark.parametrize("command", [
        ("simulate", "--traj", "elliptical", "--delta", "pi/4", "--steps", "2", "--pairs"),
        ("sweep", "--oracle", "gaussian", "--deltas", "0", "--etas", "0", "--nfes", "1",
         "--data"),
    ], ids=["simulate", "sweep"])
    def test_sidecar_out_of_range_rejected(self, toy_dataset, tmp_path, capsys, command,
                                           field, value):
        """A sidecar value outside its range is rejected where the sidecar is
        read, by a line that names the sidecar and the field."""
        data, _ = toy_dataset
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data.read_bytes())
        meta = tmp_path / "bad.meta.json"
        meta.write_text(json.dumps({**self.SIDECAR, field: value}))
        err = assert_rejected(capsys, tmp_path / "x.csv", *command, bad)
        assert f"sidecar {meta} '{field}': " in err

    def test_saved_sidecars_load(self, tmp_path):
        """Sidecars as save_dataset writes them load, a null seed and an
        empty provenance included."""
        x = np.arange(8.0).reshape(4, 2)
        for ds in (rgflow.ToyDataset(x, x[::-1], sigma_d=1.0, rho_hat=-0.5),
                   rgflow.make_gaussian_pairs(0.5, 10, seed=1)):
            path = tmp_path / "d.csv"
            rgflow.save_dataset(ds, path)
            back = rgflow.load_dataset(path)
            assert (back.sigma_d, back.rho_hat) == (ds.sigma_d, ds.rho_hat)
            assert back.provenance["seed"] == ds.provenance.get("seed")

    @pytest.mark.parametrize("key, value", [
        ("rho", "x"),
        ("sigma_d", "x"),
        ("dims", "2"),
        ("dims", True),
        ("emb_dim", 8.0),
        ("widths", "abc"),
        ("widths", [68]),
        ("weights", 5),
        ("version", True),
        ("version", 1.0),
    ], ids=["rho-string", "sigma_d-string", "dims-string", "dims-bool",
            "emb_dim-float", "widths-string", "widths-short", "weights-number",
            "version-bool", "version-float"])
    def test_bad_checkpoint_field_rejected(self, toy_dataset, tmp_path, capsys, key, value):
        data, ck = toy_dataset
        doc = json.loads(ck.read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        err = assert_rejected(capsys, tmp_path / "x.csv", "restore", "--model", bad,
                              "--input", data, "--mode", "disi-r")
        assert f"'{key}'" in err

    @pytest.mark.parametrize("key, value", [
        ("sigma_d", -1.0), ("sigma_d", 0), ("sigma_d", float("inf")),
        ("rho", 1.5), ("rho", -1.0), ("rho", float("nan")),
    ], ids=["sigma_d-negative", "sigma_d-0", "sigma_d-inf", "rho-1.5", "rho-minus-1",
            "rho-nan"])
    @pytest.mark.parametrize("command", [
        ("sweep", "--deltas", "pi/8", "--etas", "0", "--nfes", "10", "--data"),
        ("restore", "--mode", "disi-g", "--input"),
    ], ids=["sweep", "restore"])
    def test_checkpoint_field_out_of_range_rejected(self, toy_dataset, tmp_path, capsys,
                                                    command, key, value):
        """A checkpoint sigma_d <= 0 or rho outside (-1, 1) is rejected on
        load, without a warning, by one line that names the checkpoint and
        the field: both commands run on the checkpoint's schedule."""
        data, ck = toy_dataset
        doc = json.loads(ck.read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = assert_rejected(capsys, tmp_path / "x.csv", *command, data, "--model", bad)
        assert f"checkpoint {bad} '{key}': " in err


class TestSeedRejected:
    """A negative seed exits 2 with one error line before any draw, in
    every command that takes one (numpy would raise ValueError mid-run)."""

    @pytest.mark.parametrize("mode", ["disi-r", "disi-g"])
    def test_restore(self, toy_dataset, tmp_path, capsys, mode):
        data, ck = toy_dataset
        assert_rejected(capsys, tmp_path / "x.csv", "restore", "--model", ck,
                        "--input", data, "--mode", mode, "--seed", "-1")

    def test_train(self, tmp_path, capsys):
        assert_rejected(capsys, tmp_path / "ck.json", "train", "--n", "50",
                        "--steps", "5", "--seed", "-1")

    def test_train_config_file(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 50, "steps": 5, "seed": -3}))
        assert_rejected(capsys, tmp_path / "ck.json", "train", "--config", conf)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_train_config_file_non_integer(self, tmp_path, capsys, seed):
        """A --config seed that is a float or a bool is rejected, not
        truncated or read as 1."""
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 50, "steps": 5, "seed": seed}))
        assert_rejected(capsys, tmp_path / "ck.json", "train", "--config", conf)

    def test_sweep(self, toy_dataset, tmp_path, capsys):
        data, _ = toy_dataset
        assert_rejected(capsys, tmp_path / "x.csv", "sweep", "--data", data,
                        "--oracle", "gaussian", "--deltas", "0,pi/8", "--etas", "0",
                        "--nfes", "2", "--seed", "-1")

    def test_bench(self, tmp_path, capsys):
        assert_rejected(capsys, tmp_path / "x.csv", "bench", "--rho", "0.5",
                        "--sampler-steps", "10", "--trials", "4", "--seed", "-1")

    def test_simulate(self, toy_dataset, tmp_path, capsys):
        data, _ = toy_dataset
        assert_rejected(capsys, tmp_path / "x.csv", "simulate", "--traj", "elliptical",
                        "--delta", "pi/4", "--pairs", data, "--steps", "2", "--seed", "-1")


class TestBenchCli:
    def test_convergence_table(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(
            "bench", "--rho", "0.5", "--delta", "pi/4",
            "--euler-steps", "2000", "--sampler-steps", "10,50",
            "--trials", "16", "--out", out,
        ) == 0
        header, rows = read_csv(out)
        assert header == ["sampler_steps", "euler_steps", "mean_abs_gap", "max_abs_gap"]
        assert [r[0] for r in rows] == ["10", "50"]
        assert all(float(r[2]) < 0.02 for r in rows)

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, tmp_path, capsys, trials):
        err = assert_rejected(capsys, tmp_path / "x.csv", "bench", "--euler-steps", "50",
                              "--sampler-steps", "5", "--trials", trials)
        assert err == f"error: --trials must be >= 1, got {trials}"

    @pytest.mark.parametrize("steps, named", [
        (",", "bench needs at least one --sampler-steps value"),
        ("0,10", "n_steps must be >= 1, got 0"),
    ], ids=["empty", "zero"])
    def test_bad_sampler_steps_rejected_before_euler(self, tmp_path, capsys, monkeypatch,
                                                     steps, named):
        def unreached(*args, **kwargs):
            raise AssertionError("the Euler reference ran")

        monkeypatch.setattr(rgflow.dynamics, "euler_integrate", unreached)
        err = assert_rejected(capsys, tmp_path / "x.csv", "bench", "--euler-steps", "50",
                              "--sampler-steps", steps, "--trials", "3")
        assert err == f"error: {named}"

    @pytest.mark.parametrize("g_floor", ["nan", "inf", "2", "0"])
    def test_g_floor_outside_range_rejected(self, tmp_path, capsys, g_floor):
        err = assert_rejected(capsys, tmp_path / "x.csv", "bench", "--euler-steps", "50",
                              "--sampler-steps", "5", "--trials", "3", "--g-floor", g_floor)
        assert err.startswith("error: g_floor must lie in (0, pi/2)")


class TestVerifyCli:
    def test_filtered_run_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run("verify", "--only", "kappa", "--json", report) == 0
        out = capsys.readouterr().out
        assert "PASS kappa-limits" in out
        doc = json.loads(report.read_text())
        assert doc["all_pass"] is True
        assert doc["checks"][0]["check_name"] == "kappa-limits"
        assert {"check_name", "pass", "measured", "tolerance"} <= set(
            doc["checks"][0]
        )

    def test_unmatched_filter_is_config_error(self):
        assert run("verify", "--only", "zzz") == 2


class TestVerifyMutation:
    def test_corrupting_kappa_sign_fails_kappa_and_manifold_checks(self, monkeypatch):
        """Flipping the noise coefficient's sign where it is computed, for
        kappa and the steps alike, must trip exactly the kappa-limit and
        manifold checks while boundary checks stay green."""
        import rgflow.sampler as sampler_mod
        import rgflow.verify as verify_mod

        true_ks_kappa = sampler_mod._ks_kappa

        def flipped(eta, g1, g2):
            ks, kap = true_ks_kappa(eta, g1, g2)
            return ks, -kap

        monkeypatch.setattr(sampler_mod, "_ks_kappa", flipped)
        results = {r.name: r.passed for r in verify_mod.run_checks(only="kappa")}
        results.update(
            {r.name: r.passed for r in verify_mod.run_checks(only="manifold")}
        )
        results.update(
            {r.name: r.passed for r in verify_mod.run_checks(only="boundary")}
        )
        assert results["kappa-limits"] is False
        assert results["manifold-invariance"] is False
        assert results["boundary-exactness"] is True


class TestHelp:
    def test_every_subcommand_has_help(self, capsys):
        for cmd in ("schedule-dump", "traj", "simulate", "bench", "train",
                    "restore", "sweep", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "--" in capsys.readouterr().out

    def test_option_strings_are_unchanged(self):
        """Each subcommand takes exactly the options it always has, however
        its parser declares them; train's flags are its --config keys."""
        import argparse

        from rgflow.cli import build_parser

        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        options = {name: sorted(o for a in p._actions for o in a.option_strings if o != "-h")
                   for name, p in subs.choices.items()}
        assert options == {name: sorted(f"--{o}" for o in names.split()) for name, names in {
            "schedule-dump": "grid help out rho sigma-d",
            "traj": "delta help kind out p rho steps",
            "simulate": "delta help out p pairs rho seed steps traj",
            "bench": "delta euler-steps g-floor help out p rho sampler-steps seed traj trials",
            "train": "adaptive-weighting batch config data dim ema-decay emb-dim gaussian-rho "
                     "help hidden jitter lr n noise out save-data seed sigma-d steps strength "
                     "time-sampler trace weight-decay",
            "restore": "boot-epsilon delta eta help input mode model no-ema oracle out p rho "
                       "seed sigma-d steps traj",
            "sweep": "boot-epsilon data deltas etas help model nfes no-ema oracle out rho seed",
            "verify": "help json only",
        }.items()}


def _fresh(code: str, **env: str) -> str:
    """The standard output of `code` run in a fresh interpreter, with `env`
    added to the environment; the interpreter must exit 0."""
    src = os.path.dirname(os.path.dirname(rgflow.__file__))
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running `code`."""
    out = _fresh(code + "\nimport sys; print(*sys.modules)")
    return set(out.splitlines()[-1].split())


def _cli_run(*argv, status: int = 0) -> str:
    """Code that runs `rgflow *argv` in-process and requires exit `status`."""
    return f"import rgflow.cli; assert rgflow.cli.main({[str(a) for a in argv]!r}) == {status}"


# The names `rgflow` exported when it imported every submodule eagerly, less
# path_continuity_order and mlp_backward, which are gone.
PARENT_EXPORTS = """
    AdamW AdaptiveWeight CheatDenoiser Checkpoint CoeffDerivs CoeffSet ConfigError
    DimensionMismatch DomainError Elliptical EllipticalSpecialist EmptyDataset
    GaussianOracle GvpSchedule InsufficientData Linear LinearSpecialist LogitNormalSampler
    MlpDenoiser NonFiniteLoss NonFiniteOutput QuadBezier Regression RegressionSpecialist
    RgflowError SamplerConfig SingularStart SingularTime TimeGrid ToyDataset TrainConfig
    TrainResult Trajectory UniformSampler VPath VelocityPair boot_step degrade
    empirical_variance energy_distance estimate_rho euler_integrate forward_state
    hybrid_step interpolate kappa load_checkpoint load_dataset make_gaussian_pairs
    make_scurve make_scurve_dataset make_time_sampler make_trajectory mse
    regression_step restore restore_batch run_sweep sample_noise
    save_checkpoint save_dataset standardize time_embed train velocities velocity_r
""".split()


class TestImport:
    def test_cli_import_skips_scipy(self):
        """scipy's special-function ufuncs load on the first MLP forward pass
        and scipy.spatial on the first energy distance, so loading the CLI
        (every `rgflow` process) loads no scipy module at all."""
        loaded = _modules_after("import rgflow.cli")
        assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}

    def test_scipy_special_loads_only_for_an_mlp_pass(self, toy_dataset, tmp_path):
        """Commands that run no MLP forward pass, and inputs rejected before
        one, exit without loading any of scipy.special; a model restore and
        a training run (elliptical and logit-normal times) load its compiled
        _special_ufuncs module and neither scipy nor scipy.special."""
        _, ck = toy_dataset
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("x_1,x_2\n0.5,-0.25\n")
        bad.write_text("x_1,x_2\n0.5\n")
        out, trained = tmp_path / "out.csv", tmp_path / "ck.json"
        without = [
            _cli_run("restore", "--model", ck, "--input", bad, "--out", out, status=2),
            _cli_run("restore", "--oracle", "gaussian", "--rho", "0.5", "--input", good,
                     "--out", out),
            _cli_run("bench", "--euler-steps", "20", "--sampler-steps", "5", "--trials", "3",
                     "--out", out),
            _cli_run("train", "--n", "20", "--steps", "2", "--lr", "nan",
                     "--out", trained, status=2),
        ]
        for code in without:
            assert not {m for m in _modules_after(code) if m.startswith("scipy.special")}, code
        with_pass = [
            _cli_run("restore", "--model", ck, "--input", good, "--out", out),
            *(_cli_run("train", "--n", "20", "--steps", "2", "--hidden", "4", "--emb-dim", "2",
                       "--time-sampler", sampler, "--out", trained)
              for sampler in ("elliptical", "lognorm1")),
        ]
        for code in with_pass:
            loaded = _modules_after(code)
            assert "scipy.special._special_ufuncs" in loaded, code
            assert not {"scipy", "scipy.special"} & loaded, code

    def test_cli_import_skips_verify(self):
        """`rgflow.verify` is imported by the verify subcommand alone, so the
        other subcommands do not load it."""
        assert "rgflow.verify" not in _modules_after("import rgflow.cli")

    def test_package_import_loads_no_submodule(self):
        assert {m for m in _modules_after("import rgflow") if m.startswith("rgflow")} == {"rgflow"}

    def test_cli_import_skips_what_commands_import(self):
        loaded = _modules_after("import rgflow.cli")
        for name in ("training", "sampler", "process", "dynamics", "sweep"):
            assert f"rgflow.{name}" not in loaded

    def test_restore_and_train_load_only_their_modules(self, tmp_path):
        points = tmp_path / "in.csv"
        points.write_text("x_1,x_2\n0.5,-0.25\n")
        restored = _modules_after(_cli_run(
            "restore", "--oracle", "gaussian", "--rho", "0.5", "--input", points,
            "--mode", "disi-r", "--out", tmp_path / "out.csv"))
        assert "rgflow.sampler" in restored
        for name in ("training", "process", "dynamics", "sweep", "verify"):
            assert f"rgflow.{name}" not in restored
        trained = _modules_after(_cli_run(
            "train", "--n", "20", "--steps", "2", "--hidden", "4", "--emb-dim", "2",
            "--out", tmp_path / "ck.json"))
        assert "rgflow.training" in trained and "rgflow.sampler" not in trained

    def test_submodules_resolve_after_bare_import(self):
        code = ("import rgflow; assert rgflow.sweep.run_sweep is rgflow.run_sweep; "
                "assert rgflow.cli.main and rgflow.verify.run_checks")
        assert {"rgflow.sweep", "rgflow.cli", "rgflow.verify"} <= _modules_after(code)


def _finding_ufuncs(found: str) -> str:
    """Code that makes PathFinder.find_spec return `found`, an expression in
    its arguments `name` and `path` and the original `find_spec`, for
    scipy.special._special_ufuncs while scipy.special is unloaded: that is,
    for denoiser._special's own lookup, not the package's import."""
    return ("import importlib.machinery, sys\n"
            "find_spec = importlib.machinery.PathFinder.find_spec\n"
            "def wrapped(name, path=None, target=None):\n"
            "    if name == 'scipy.special._special_ufuncs' and 'scipy.special' not in sys.modules:\n"
            f"        return {found}\n"
            "    return find_spec(name, path, target)\n"
            "importlib.machinery.PathFinder.find_spec = wrapped\n")


class TestScipyUfuncs:
    """denoiser._special loads scipy.special._special_ufuncs from its file,
    and must hand out the package's own ufuncs in every case."""

    def test_package_imported_later_shares_the_ufuncs(self):
        _fresh("import sys, rgflow.denoiser as d\n"
               "ndtr, expit = d._ndtr(), d._special().expit\n"
               "assert not {'scipy', 'scipy.special'} & set(sys.modules)\n"
               "assert sys.modules['scipy.special._special_ufuncs'] is d._special()\n"
               "import scipy, scipy.special\n"
               "assert scipy.special.__file__.endswith('__init__.py')\n"
               "assert scipy.special.ndtr is ndtr and scipy.special.expit is expit\n"
               "assert scipy.special is sys.modules['scipy.special'] and scipy.special.erf(0.5)\n")

    def test_sweep_output_does_not_depend_on_the_package_loaded_first(self, toy_dataset,
                                                                      tmp_path):
        """`sweep --model` runs an MLP pass and then scipy.spatial's energy
        distance, which loads the real scipy.special after the light load."""
        data, ck = toy_dataset
        outs = []
        for first in ("", "import scipy.special\n"):
            out = tmp_path / f"sweep{len(outs)}.csv"
            _fresh(first + _cli_run("sweep", "--data", data, "--model", ck, "--deltas", "0,pi/8",
                                    "--etas", "0,0.5", "--nfes", "2,5", "--seed", "3",
                                    "--out", out)
                   + "\nimport sys, rgflow.denoiser as d\n"
                   "assert sys.modules['scipy.special'].ndtr is d._ndtr()\n")
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and outs[0].count(b"\n") > 1

    def test_failed_light_import_falls_back_to_the_package(self):
        """With _special_ufuncs not found, _special is the scipy.special
        package and _ndtr its ndtr."""
        _fresh(_finding_ufuncs("None")
               + "import rgflow.denoiser as d\n"
               "special, ndtr = d._special(), d._ndtr()\n"
               "import scipy.special\n"
               "assert special is scipy.special and ndtr is scipy.special.ndtr\n")

    def test_module_without_ndtr_falls_back_to_the_package(self, tmp_path):
        """A _special_ufuncs that lacks ndtr, or has ndtr and expit but lacks
        erf (as an older scipy's may), is not used, nor left in sys.modules:
        _special is the package, whose own submodule loads."""
        for name, stand_in in (("no_ndtr", "expit = None\n"),
                               ("no_erf", "ndtr = expit = None\n")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "_special_ufuncs.py").write_text(stand_in)
            _fresh(_finding_ufuncs(f"find_spec(name, [{str(tmp_path / name)!r}])")
                   + "import rgflow.denoiser as d\n"
                   "special, ndtr, erf = d._special(), d._ndtr(), d._erf()\n"
                   "import scipy.special\n"
                   "assert special is scipy.special and ndtr is scipy.special.ndtr\n"
                   "assert erf is scipy.special.erf\n"
                   "assert sys.modules['scipy.special._special_ufuncs'].ndtr is ndtr\n"
                   "assert sys.modules['scipy.special._special_ufuncs'].erf is erf\n")

    def test_no_stand_in_when_the_package_is_loaded(self):
        """With scipy.special already imported, _special looks up no file and
        returns the package's own _special_ufuncs."""
        _fresh("import importlib.machinery, sys, scipy.special\n"
               "find_spec = importlib.machinery.PathFinder.find_spec\n"
               "def refuse(name, path=None, target=None):\n"
               "    assert not name.startswith('scipy'), name\n"
               "    return find_spec(name, path, target)\n"
               "importlib.machinery.PathFinder.find_spec = refuse\n"
               "import rgflow.denoiser as d\n"
               "assert d._special() is sys.modules['scipy.special._special_ufuncs']\n"
               "assert d._ndtr() is scipy.special.ndtr\n"
               "assert d._special().expit is scipy.special.expit\n")

    def test_first_load_on_worker_threads(self, toy_dataset):
        """Four threads, released at once by a barrier with a short switch
        interval, each make their first _special() call and restore their row
        block of an 800-row input: every one gets the one _special_ufuncs
        module, no scipy package loads, and the joined rows are the bytes of
        a one-thread run."""
        _, ck = toy_dataset
        _fresh("import sys, threading\n"
               "import numpy as np\n"
               "import rgflow.denoiser as d\n"
               "from rgflow import Elliptical, GvpSchedule, SamplerConfig, restore_batch\n"
               f"ckpt = d.load_checkpoint({str(ck)!r})\n"
               "net = ckpt.denoiser()\n"
               "sched = GvpSchedule(rho=ckpt.rho, sigma_d=net.sigma_d)\n"
               "cfg = SamplerConfig(Elliptical(phi=sched.phi, delta=np.pi / 8), n_steps=15,\n"
               "                    eta=0.5, seed=7)\n"
               "x1 = np.random.default_rng(4).normal(size=(800, 2))\n"
               "blocks = d._row_blocks(len(x1))\n"
               "assert len(blocks) == 4 and d._special.cache_info().currsize == 0\n"
               "barrier = threading.Barrier(len(blocks))\n"
               "special, parts = [None] * len(blocks), [None] * len(blocks)\n"
               "def work(i, s):\n"
               "    barrier.wait(60)\n"
               "    special[i] = d._special()\n"
               "    parts[i] = restore_batch(sched, net, x1[s], cfg, item_offset=s.start)\n"
               "sys.setswitchinterval(1e-6)\n"
               "threads = [threading.Thread(target=work, args=(i, s))\n"
               "           for i, s in enumerate(blocks)]\n"
               "for t in threads:\n"
               "    t.start()\n"
               "for t in threads:\n"
               "    t.join(120)\n"
               "assert not any(t.is_alive() for t in threads)\n"
               "module = sys.modules['scipy.special._special_ufuncs']\n"
               "assert all(m is module for m in special) and d._special() is module\n"
               "assert not {'scipy', 'scipy.special'} & set(sys.modules)\n"
               "whole = restore_batch(sched, net, x1, cfg)\n"
               "assert np.concatenate(parts).tobytes() == whole.tobytes()\n")


class TestExports:
    def test_every_parent_name_is_its_modules_object(self):
        assert sorted(rgflow.__all__) == sorted(PARENT_EXPORTS)
        assert len(set(PARENT_EXPORTS)) == 66
        for name in rgflow.__all__:
            value = getattr(rgflow, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert name in dir(rgflow)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rgflow.no_such_name
        with pytest.raises(ImportError):
            from rgflow import no_such_name  # noqa: F401
