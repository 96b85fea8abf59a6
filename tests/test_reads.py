"""Plan.reads: the settings a run reads.  A setting outside it leaves the
output unchanged, `rgflow restore` rejects exactly the given flags outside
it, and the one lifted sweep cell at NFE 1 equals the regression row."""

import contextlib
import dataclasses
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rgflow import (
    CheatDenoiser,
    ConfigError,
    GaussianOracle,
    GvpSchedule,
    MlpDenoiser,
    SamplerConfig,
    make_gaussian_pairs,
    make_trajectory,
    restore_batch,
    sampler,
)
from rgflow.cli import main
from rgflow.sweep import run_cells, sweep_cells
from rgflow.toydata import write_csv
from rgflow.trajectory import TRAJECTORY_KINDS

HALF_PI = math.pi / 2.0
SETTINGS = ("delta", "p", "eta", "boot_epsilon", "seed")
# The value of each setting that is not given: the path's and SamplerConfig's defaults.
DEFAULTS = {"delta": 0.0, "p": 1.0, "eta": 0.0, "boot_epsilon": 1e-3, "seed": 0}


def _mlp():
    """A small MLP with a nonzero output layer, so its predictions vary."""
    net = MlpDenoiser(dim=2, hidden=8, emb_dim=4, sigma_d=1.0)
    net.reinit(np.random.default_rng(17))
    net.params["W3"][:] = np.random.default_rng(18).normal(0.0, 0.3, size=(8, 2))
    return net


SCHED = GvpSchedule(0.5, 1.0)
DENOISERS = (GaussianOracle(rho=0.5), _mlp())
X1 = np.random.default_rng(5).normal(size=(3, 2))

values = {
    "delta": st.one_of(st.sampled_from([0.0, math.pi / 8, HALF_PI]), st.floats(0.0, HALF_PI)),
    "p": st.floats(0.25, 4.0),
    "eta": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    "boot_epsilon": st.floats(1e-4, 0.2),
    "seed": st.integers(0, 2**32 - 1),
}
run_settings = st.fixed_dictionaries(values)


def _path_fields(kind):
    return {f.name for f in dataclasses.fields(TRAJECTORY_KINDS[kind])} & {"delta", "p"}


def _config(kind, n_steps, s):
    """The configuration of `kind` and n_steps with the settings `s`."""
    traj = make_trajectory(kind, SCHED.phi, **{k: s[k] for k in _path_fields(kind)})
    return SamplerConfig(traj, n_steps, s["eta"], s["boot_epsilon"], s["seed"])


def _one_step_lift_below_eta_1(cfg):
    """The only configuration the plan rejects here: one step from g = 0 up
    a lifted path, at eta < 1."""
    traj = cfg.trajectory
    return traj.lifts and traj.starts_noiseless and cfg.n_steps == 1 and cfg.eta != 1.0


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(TRAJECTORY_KINDS)), n_steps=st.integers(1, 4),
       base=run_settings, other=run_settings)
# A linear path at delta 0 starts at g = 0, yet its start moves with delta.
@example(kind="linear", n_steps=1, base={**DEFAULTS, "eta": 0.5},
         other={**DEFAULTS, "delta": 0.3, "p": 2.0, "eta": 1.0, "seed": 1})
def test_a_setting_the_plan_does_not_read_changes_no_output(kind, n_steps, base, other):
    """Each setting outside the plan's reads, moved alone to another value,
    leaves restore_batch's output unchanged bit for bit on the oracle and on
    an MLP, unless the move makes the one configuration the plan rejects."""
    cfg = _config(kind, n_steps, base)
    assume(not _one_step_lift_below_eta_1(cfg))
    reads = sampler.plan(SCHED, cfg).reads
    assert reads <= set(SETTINGS)
    outputs = [restore_batch(SCHED, den, X1, cfg).tobytes() for den in DENOISERS]
    for name in (set(SETTINGS) - reads) & (_path_fields(kind) | {"eta", "boot_epsilon", "seed"}):
        moved = _config(kind, n_steps, {**base, name: other[name]})
        if _one_step_lift_below_eta_1(moved):
            with pytest.raises(ConfigError):
                sampler.plan(SCHED, moved)
            continue
        moved_outputs = [restore_batch(SCHED, den, X1, moved).tobytes() for den in DENOISERS]
        assert moved_outputs == outputs, name


@pytest.fixture(scope="module")
def points_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("reads") / "in.csv"
    write_csv(path, ["x_1", "x_2"], X1)
    return path


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(TRAJECTORY_KINDS)), n_steps=st.integers(1, 4),
       s=run_settings, given_flags=st.sets(st.sampled_from(SETTINGS)))
def test_restore_rejects_exactly_the_given_flags_the_run_does_not_read(
        points_csv, kind, n_steps, s, given_flags):
    """`rgflow restore` exits 0 where every given sampler flag is read;
    otherwise it exits 2 naming the first unread one in parser order, and
    writes nothing.  A setting that is not given takes its default."""
    given_flags = [k for k in SETTINGS if k in given_flags and k in
                   _path_fields(kind) | {"eta", "boot_epsilon", "seed"}]
    cfg = _config(kind, n_steps, {**DEFAULTS, **{k: s[k] for k in given_flags}})
    try:
        reads = sampler.plan(SCHED, cfg).reads
    except ConfigError:
        reads = None
    argv = ["restore", "--oracle", "gaussian", "--rho", "0.5", "--input", str(points_csv),
            "--traj", kind, "--steps", str(n_steps)]
    for k in given_flags:
        argv += ["--" + k.replace("_", "-"), repr(s[k])]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", out])
        written = os.path.exists(out)
    unread = [k for k in given_flags if reads is not None and k not in reads]
    if reads is None or unread:
        assert code == 2 and not written
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        if unread:
            flag = "--" + unread[0].replace("_", "-")
            assert lines[0].startswith(f"error: {flag} is not read ")
        else:
            assert "is not read" not in lines[0]
    else:
        assert code == 0 and written and err.getvalue() == ""


@pytest.mark.parametrize("oracle", ["gaussian", "cheat"])
def test_lifted_one_step_cell_equals_the_regression_row(oracle):
    """At NFE 1 a lifted cell runs at eta 1 only, as one boot step from
    (phi, 0) to the clean end: the regression row's update.  So its MSE and
    energy distance equal the delta = 0 row's bit for bit, at every delta."""
    ds = make_gaussian_pairs(0.5, 64, seed=77, dim=2)
    den = GaussianOracle(rho=0.5) if oracle == "gaussian" else CheatDenoiser(ds.x0)
    cells = sweep_cells(SCHED, (0.0, math.pi / 8, math.pi / 4, HALF_PI), (0.0, 1.0), (1,),
                        seed=13)
    rows = run_cells(SCHED, den, ds.x0, ds.x1, cells)
    run = [(r["mse"], r["energy_distance"]) for r in rows if r["mse"] != "NA"]
    assert [r["eta"] for r in rows if r["mse"] != "NA"] == ["NA", 1.0, 1.0, 1.0]
    assert len(set(run)) == 1
