"""Fixed-seed outputs of an rgflow tree, to check that a change keeps them bit for bit.

    python scripts/equivalence.py dump <src> <out.pkl> [--quick]
    python scripts/equivalence.py compare <a.pkl> <b.pkl>

`dump` imports rgflow from <src>/src, so dump each tree in its own process.
It pickles entry name -> (dtype, shape, bytes) of a result, or the
"<Error>: <message>" of a rejection: the schedule's coefficient grid;
restore and restore_batch over the GRID (QUICK with --quick) and every path
kind, with an MLP of random weights; each perfbench mode restored twice,
one-point and over 258 rows, through that MLP as load_checkpoint returns it,
and one-point and over one and two rows through a loaded MLP of perfbench's
size (hidden 128, emb 32, whose products take other BLAS kernels); the
checkpoint and sidecar fields load_checkpoint and load_dataset reject;
predict and bound steps; the step functions; training runs (loss trace,
final, EMA and weight-net parameters, and the caller's generator state) and
AdamW steps on a fixed vector;
datasets (generated, saved and loaded back, with and without their sidecar)
and their Monte-Carlo variance; rejected calls; and the bytes of the files
that `rgflow` subcommands write, run in process through rgflow.cli.main.
`compare` prints the entries that differ, or that one dump lacks, and their
count.
"""

import contextlib
import io
import json
import math
import os
import pickle
import sys
import tempfile
from pathlib import Path

# One BLAS thread before numpy loads, so that dumps made with different CPU
# counts agree: a threaded gemm over a 1500-row batch rounds otherwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# A chunk of training steps at batch 16 holds 64 steps (1024 rows), so the
# train_steps straddle a chunk's end, and a 1500-row batch outgrows a chunk.
SAMPLERS = ("elliptical", "linear", "regression", "uniform", "lognorm1", "lognorm2")
GRID = {"etas": (0.0, 0.5, 1.0), "n_steps": (1, 2, 10, 15), "rows": (1, 257, 258, 2000),
        "sigma_ds": (1.0, 0.7), "samplers": SAMPLERS, "train_steps": (1, 63, 65, 300)}
QUICK = {"etas": (0.0, 0.5), "n_steps": (1, 10), "rows": (1, 258), "sigma_ds": (1.0, 0.7),
         "samplers": ("elliptical", "lognorm2"), "train_steps": (1, 65)}


def _value(fn):
    try:
        a = np.asarray(fn())
        return a.dtype.str, a.shape, a.tobytes()
    except Exception as exc:  # a rejection is an output too
        return f"{type(exc).__name__}: {exc}"


def _mlp(rg, sigma_d: float, seed: int = 7, hidden: int = 32, emb_dim: int = 8):
    """An MLP with random weights in every layer, so its outputs vary."""
    net = rg.MlpDenoiser(dim=2, hidden=hidden, emb_dim=emb_dim, sigma_d=sigma_d, params={})
    rng = np.random.default_rng(seed)
    net.reinit(rng)
    for key in ("W3", "b1", "b3"):
        net.params[key] = rng.normal(0.0, 0.3, size=net.params[key].shape)
    return net


def dump(src, out=None, quick: bool = False) -> dict:
    """The entries of the tree at `src`; pickled to `out` when given."""
    sys.path.insert(0, str(Path(src).resolve() / "src"))
    import rgflow as rg
    from rgflow.schedule import schedule_grid
    from rgflow.trajectory import TRAJECTORY_KINDS, make_trajectory

    grid = QUICK if quick else GRID
    x1 = np.random.default_rng(11).normal(size=(max(grid["rows"]), 2))
    vecs = np.random.default_rng(13).normal(size=(4, 5, 2))
    entries = {}

    def put(name, fn):
        entries[name] = _value(fn)

    for sd in grid["sigma_ds"]:
        sched, net = rg.GvpSchedule(rho=0.6, sigma_d=sd), _mlp(rg, sd)
        for rho in (-0.9, 0.0, 0.6, 0.99):
            put(f"schedule_grid rho={rho} sd={sd}",
                lambda: schedule_grid(rg.GvpSchedule(rho=rho, sigma_d=sd), 9))
        for kind in TRAJECTORY_KINDS:
            params = {} if kind == "regression" else {"delta": math.pi / 8}
            traj = make_trajectory(kind, sched.phi, **params)
            for eta in grid["etas"]:
                for n in grid["n_steps"]:
                    cfg = rg.SamplerConfig(trajectory=traj, n_steps=n, eta=eta, seed=3)
                    tag = f"sd={sd} {kind} eta={eta} n={n}"
                    put(f"restore {tag}", lambda: rg.restore(sched, net, x1[0], cfg))
                    for rows in grid["rows"]:
                        put(f"restore_batch {tag} rows={rows}",
                            lambda: rg.restore_batch(sched, net, x1[:rows], cfg, item_offset=5))
            oracle = rg.GaussianOracle(rho=0.6, sigma_d=sd)
            cfg = rg.SamplerConfig(trajectory=traj, n_steps=10, eta=0.5, seed=4)
            put(f"oracle sd={sd} {kind}", lambda: rg.restore_batch(sched, oracle, x1[:16], cfg))
        times = [(0.3, 0.1), (1.2, 0.0), (0.0, 1.5)]
        for rows in grid["rows"]:
            x, y = x1[:rows][::-1] * 0.5, x1[:rows]
            step = net.bind(y, times)
            for i, (r, g) in enumerate(times):
                put(f"step sd={sd} rows={rows} i={i}", lambda: step(x, i))
                put(f"predict sd={sd} rows={rows} i={i}", lambda: net.predict(x, y, r, g))
        put(f"predict 1-D sd={sd}", lambda: net.predict(x1[1], x1[0], 0.3, 0.1))
        for eta in (0.0, 1e-150, 0.3, 0.5, 1.0):
            for frm, to in (((0.1, 0.2), (0.3, 0.5)), ((0.2, 1.0), (0.0, 0.4)),
                            ((0.4, 0.0), (0.3, 0.3))):
                put(f"kappa sd={sd} eta={eta} {frm}->{to}", lambda: rg.kappa(eta, frm[1], to[1]))
                put(f"hybrid_step sd={sd} eta={eta} {frm}->{to}",
                    lambda: rg.hybrid_step(sched, *vecs[:3], frm, to, eta, vecs[3]))
        put(f"boot_step sd={sd}",
            lambda: rg.boot_step(sched, *vecs[:3], (0.1, 0.0), (0.2, 0.3), vecs[3]))
        put(f"regression_step sd={sd}", lambda: rg.regression_step(sched, *vecs[:3], 0.1, 0.4))

    # From seed 2**96 on, default_rng(seed) is no longer default_rng([seed, 0]).
    put("restore seed=2**96", lambda: rg.restore(sched, net, x1[0], rg.SamplerConfig(
        make_trajectory("elliptical", sched.phi, delta=0.4), 4, 0.5, seed=2**96)))
    # A target g2 near the smallest doubles just below eta = 1, where k^(s-1) overflows.
    put("kappa eta=1-2**-53 g1=1 g2=2.225073858507203e-309",
        lambda: rg.kappa(1.0 - 2.0**-53, 1.0, 2.225073858507203e-309))
    _loaded_entries(rg, put, grid, x1)
    _train_entries(rg, put, grid)
    _adamw_entry(rg, put)
    _dataset_entries(rg, put)
    _cli_entries(entries)

    def hybrid(x0hat, to, eta):
        return rg.hybrid_step(sched, vecs[0], x0hat, vecs[2], (0.1, 0.2), to, eta, vecs[3])

    ell = rg.SamplerConfig(make_trajectory("elliptical", sched.phi, delta=0.4), 4, 0.5)
    for name, fn in {
        "kappa eta>1": lambda: rg.kappa(1.5, 0.2, 0.3),
        "kappa g1=0": lambda: rg.kappa(0.5, 0.0, 0.3),
        "kappa g1>pi/2": lambda: rg.kappa(0.5, 2.0, 0.3),
        "kappa g1<0 eta=1": lambda: rg.kappa(1.0, -0.3, 0.3),
        "kappa g1 in slack eta=1": lambda: rg.kappa(1.0, -1e-13, 0.3),
        "hybrid g2<0 eta=0.5": lambda: hybrid(vecs[1], (0.0, -0.3), 0.5),
        "hybrid g2<0 eta=0": lambda: hybrid(vecs[1], (0.0, -0.3), 0.0),
        "hybrid shapes": lambda: hybrid(vecs[1][:2], (0.3, 0.5), 0.5),
        "restore nan": lambda: rg.restore(sched, net, [np.nan, 0.0], ell),
        "restore width": lambda: rg.restore(sched, net, np.zeros(3), ell),
        "restore 2-D": lambda: rg.restore(sched, net, x1[:1], ell),
        "batch offset": lambda: rg.restore_batch(sched, net, x1[:3], ell, item_offset=-1),
        "step shape": lambda: net.bind(x1[:3], [(0.3, 0.1)])(x1[:2], 0),
        "predict times": lambda: net.predict(x1[:3], x1[:3], np.zeros(4), 0.1),
        "one step from g=0": lambda: rg.restore(sched, net, x1[0], rg.SamplerConfig(
            ell.trajectory, 1, 0.5)),
    }.items():
        put(f"reject {name}", fn)
    # Paths narrower and wider than the schedule.
    for kind in ("elliptical", "regression"):
        for phi in (sched.phi / 2, 1.5 * sched.phi):
            params = {} if kind == "regression" else {"delta": 0.4}
            traj = make_trajectory(kind, phi, **params)
            cfg = rg.SamplerConfig(traj, 4, 0.5)
            tag = f"{kind} phi={phi}"
            put(f"reject restore {tag}", lambda: rg.restore(sched, net, x1[0], cfg))
            put(f"reject restore_batch {tag}", lambda: rg.restore_batch(sched, net, x1[:3], cfg))
            put(f"reject euler_integrate {tag}",
                lambda: rg.euler_integrate(sched, traj, net, x1[:3], x1[3:6], 4))
    if out is not None:
        Path(out).write_bytes(pickle.dumps(entries))
    return entries


def _loaded_entries(rg, put, grid, x1) -> None:
    """Each perfbench mode restored twice, one-point and over 258 rows,
    through a loaded checkpoint of _mlp, whose bind reuses the first
    calls' first-layer rows, and one-point and over one and two rows
    (the vector and the batch GELU kernels) through a loaded _mlp of
    perfbench's size, hidden 128 and emb 32; the rho of
    checkpoints whose sigma_d or rho is out of range, or load_checkpoint's rejection of them; and
    load_dataset's rejection of sidecars whose sigma_d or rho_hat is."""
    from rgflow.trajectory import Elliptical, Regression

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # so that the rejections name a relative path
        try:
            for sd in grid["sigma_ds"]:
                sched = rg.GvpSchedule(rho=0.6, sigma_d=sd)
                lifted = Elliptical(phi=sched.phi, delta=math.pi / 8)
                # The hidden-32 checkpoint is written last, for the rejections below.
                for size, hidden, emb_dim, batches in (("hidden=128 ", 128, 32, (1, 2)),
                                                       ("", 32, 8, (258,))):
                    mlp = _mlp(rg, sd, hidden=hidden, emb_dim=emb_dim)
                    rg.save_checkpoint("ck.json", mlp, rho=0.6)
                    net = rg.load_checkpoint("ck.json").denoiser()
                    for mode, traj, n, eta in (("disi-r", Regression(phi=sched.phi), 1, 0.0),
                                               ("disi-g", lifted, 10, 0.0),
                                               ("eta05", lifted, 15, 0.5)):
                        cfg = rg.SamplerConfig(trajectory=traj, n_steps=n, eta=eta, seed=3)
                        for call in (1, 2):
                            tag = f"loaded {size}sd={sd} {mode} call={call}"
                            put(f"restore {tag}", lambda: rg.restore(sched, net, x1[0], cfg))
                            for rows in batches:
                                put(f"restore_batch {tag} rows={rows}",
                                    lambda: rg.restore_batch(sched, net, x1[:rows], cfg))
            doc = json.loads(Path("ck.json").read_text())
            for key, value in (("sigma_d", -1.0), ("sigma_d", 0.0), ("rho", 1.5)):
                Path("bad.json").write_text(json.dumps({**doc, key: value}))
                put(f"reject checkpoint {key}={value}", lambda: rg.load_checkpoint("bad.json").rho)
            rg.save_dataset(rg.make_gaussian_pairs(0.6, 20, seed=3), "data.csv")
            meta = json.loads(Path("data.meta.json").read_text())
            for key, value in (("sigma_d", 0.0), ("sigma_d", -1.0), ("sigma_d", math.inf),
                               ("rho_hat", 1.0), ("rho_hat", -1.0), ("rho_hat", math.nan)):
                Path("data.meta.json").write_text(json.dumps({**meta, key: value}))
                put(f"reject sidecar {key}={value}", lambda: rg.load_dataset("data.csv").rho_hat)
        finally:
            os.chdir(home)


def _train_entries(rg, put, grid) -> None:
    """Training runs at hidden 16 over every sampler, adaptive weighting on
    and off, both sigma_ds, dims 1 and 2, the grid's step counts and a batch
    larger than a chunk; one at the perfbench `train` settings; and a run
    whose loss turns non-finite."""

    def run(tag, ds, **kw):
        cfg = rg.TrainConfig(**{"seed": 5, "hidden": 16, "emb_dim": 8, "ema_decay": 0.9, **kw})
        rng = np.random.default_rng(21)
        res = rg.train(ds, cfg, rng=rng)
        for part, net in (("params", res.denoiser), ("ema", res.ema_denoiser),
                          ("weight_net", res.weight_net)):
            put(f"train {tag} {part}",
                lambda: np.concatenate([p.ravel() for p in net.params.values()]))
        put(f"train {tag} trace", lambda: res.loss_trace)
        put(f"train {tag} rng", lambda: repr(rng.bit_generator.state))

    def pairs(sd, dim):
        return rg.make_gaussian_pairs(0.6, 400, sigma_d=sd, seed=3, dim=dim)

    for name in grid["samplers"]:
        for adaptive in (True, False):
            for sd in grid["sigma_ds"]:
                run(f"{name} adaptive={adaptive} sd={sd}", pairs(sd, 2), n_steps=65,
                    time_sampler=rg.make_time_sampler(name), adaptive_weighting=adaptive)
    for n in grid["train_steps"]:
        run(f"steps={n}", pairs(1.0, 2), n_steps=n)
    run("dim=1", pairs(0.7, 1), n_steps=65, time_sampler=rg.make_time_sampler("lognorm2"))
    run("batch=1500", pairs(1.0, 2), n_steps=3, batch_size=1500)
    scurve = rg.make_scurve_dataset(2000, jitter=0.05, strength=1.0, noise=0.25, seed=1)
    run("perfbench", scurve, n_steps=50, seed=1, hidden=128, emb_dim=32, ema_decay=0.9999)

    def blow_up():
        with np.errstate(all="ignore"):
            return rg.train(pairs(1.0, 2), rg.TrainConfig(
                n_steps=20, learning_rate=1e18, seed=0, hidden=8, emb_dim=4))

    put("reject train non-finite loss", blow_up)


def _adamw_entry(rg, put) -> None:
    """A fixed vector after 60 AdamW steps at the default settings, so that
    the optimizer's rounding is pinned apart from the training runs."""
    rng = np.random.default_rng(17)
    params = rng.normal(size=1000)
    opt = rg.AdamW()
    for _ in range(60):
        opt.step(params, rng.normal(size=params.size))
    put("adamw", lambda: params)
    for name, kw in (("lr nan", {"lr": math.nan}), ("beta1=1", {"betas": (1.0, 0.999)}),
                     ("eps=0", {"eps": 0.0}), ("weight_decay<0", {"weight_decay": -1.0})):
        put(f"reject adamw {name}", lambda: rg.AdamW(**kw))


def _dataset_entries(rg, put) -> None:
    """Both generators' matrices and rho_hat; the CSV and sidecar bytes that
    save_dataset writes; load_dataset with the sidecar and without it (which
    estimates rho_hat and sigma_d from the data); and empirical_variance."""

    def matrices(tag, ds):
        put(f"{tag} x0", lambda: ds.x0)
        put(f"{tag} x1", lambda: ds.x1)
        put(f"{tag} rho_hat", lambda: ds.rho_hat)
        put(f"{tag} sigma_d", lambda: ds.sigma_d)

    made = {
        "scurve": rg.make_scurve_dataset(500, jitter=0.05, strength=1.0, noise=0.25,
                                         sigma_d=0.7, seed=1),
        "gaussian dim=1": rg.make_gaussian_pairs(0.6, 300, seed=3, dim=1),
        "gaussian dim=3": rg.make_gaussian_pairs(-0.4, 300, sigma_d=1.3, seed=4, dim=3),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, ds in made.items():
            matrices(f"dataset {name}", ds)
            path = Path(tmp) / "data.csv"
            rg.save_dataset(ds, path)
            put(f"dataset {name} csv bytes", path.read_bytes)
            put(f"dataset {name} sidecar bytes", path.with_suffix(".meta.json").read_bytes)
            matrices(f"dataset {name} loaded", rg.load_dataset(path))
            path.with_suffix(".meta.json").unlink()
            matrices(f"dataset {name} loaded bare", rg.load_dataset(path))
            sched = rg.GvpSchedule(rho=0.6, sigma_d=ds.sigma_d)
            put(f"dataset {name} empirical_variance", lambda: rg.empirical_variance(
                sched, ds, 0.2, 0.5, 9000, np.random.default_rng(8)))


# name -> (rgflow arguments, the files the run writes).  Paths are relative to
# the scratch directory the runs share, so that no entry holds a temporary
# path; later runs read the checkpoint and the data set that `train` writes.
CLI_RUNS = {
    "train": (["train", "--config", "conf.json", "--trace", "trace.csv",
               "--save-data", "data.csv", "--out", "ck.json"],
              ["ck.json", "trace.csv", "data.csv", "data.meta.json"]),
    "train gaussian flags": (["train", "--data", "gaussian", "--dim", "3", "--n", "200",
                              "--steps", "20", "--hidden", "8", "--emb-dim", "4",
                              "--adaptive-weighting", "0", "--time-sampler", "lognorm2",
                              "--out", "ck3.json"], ["ck3.json"]),
    "restore disi-r": (["restore", "--model", "ck.json", "--input", "data.csv",
                        "--mode", "disi-r", "--out", "r.csv"], ["r.csv"]),
    "restore disi-r consistent flags": (["restore", "--model", "ck.json", "--input", "data.csv",
                                         "--mode", "disi-r", "--traj", "regression",
                                         "--steps", "1", "--out", "r1.csv"], ["r1.csv"]),
    "restore disi-g": (["restore", "--model", "ck.json", "--input", "data.csv",
                        "--mode", "disi-g", "--seed", "5", "--out", "g.csv"], ["g.csv"]),
    "restore disi-g eta": (["restore", "--model", "ck.json", "--input", "data.csv",
                            "--mode", "disi-g", "--traj", "elliptical", "--steps", "15",
                            "--eta", "0.5", "--no-ema", "--out", "ge.csv"], ["ge.csv"]),
    "restore defaults": (["restore", "--model", "ck.json", "--input", "data.csv",
                          "--out", "d.csv"], ["d.csv"]),
    # A linear path starts above g = 0, so it visits no boot point and reads
    # no --boot-epsilon: the run without it writes the same bytes.
    "restore knobs": (["restore", "--model", "ck.json", "--input", "data.csv",
                       "--traj", "linear", "--delta", "pi/8", "--eta", "1",
                       "--boot-epsilon", "0.01", "--seed", "7", "--out", "k.csv"], []),
    "restore knobs linear": (["restore", "--model", "ck.json", "--input", "data.csv",
                              "--traj", "linear", "--delta", "pi/8", "--eta", "1",
                              "--seed", "7", "--out", "kl.csv"], ["kl.csv"]),
    "restore oracle": (["restore", "--oracle", "gaussian", "--rho", "0.5", "--sigma-d", "0.8",
                        "--input", "data.csv", "--mode", "disi-g", "--out", "o.csv"], ["o.csv"]),
    "schedule-dump": (["schedule-dump", "--rho", "0.6", "--sigma-d", "0.7", "--grid", "9",
                       "--out", "sched.csv"], ["sched.csv"]),
    "traj": (["traj", "--kind", "vpath", "--delta", "pi/8", "--p", "2", "--rho", "0.5",
              "--steps", "20", "--out", "traj.csv"], ["traj.csv"]),
    "simulate": (["simulate", "--traj", "elliptical", "--delta", "pi/4", "--pairs", "data.csv",
                  "--steps", "20", "--seed", "3", "--out", "sim.csv"], ["sim.csv"]),
    "bench": (["bench", "--euler-steps", "300", "--sampler-steps", "5,10", "--trials", "20",
               "--out", "bench.csv"], ["bench.csv"]),
    "sweep": (["sweep", "--data", "data.csv", "--model", "ck.json", "--deltas", "0,pi/8",
               "--etas", "0,1", "--nfes", "1,2,5", "--out", "sweep.csv"], ["sweep.csv"]),
    "sweep oracle": (["sweep", "--data", "data.csv", "--oracle", "gaussian", "--deltas", "pi/4",
                      "--etas", "0.5", "--nfes", "3", "--boot-epsilon", "0.01",
                      "--out", "sweep_o.csv"], ["sweep_o.csv"]),
    "reject config type": (["train", "--config", "bad_type.json", "--out", "x.json"], []),
    "reject config key": (["train", "--config", "bad_key.json", "--out", "x.json"], []),
    "reject config sampler": (["train", "--config", "bad_sampler.json", "--out", "x.json"], []),
    "reject config other kind": (["train", "--config", "bad_kind.json", "--out", "x.json"], []),
    # Data settings that the drawn data kind would not read.
    **{f"reject train {' '.join(flags)}": (["train", "--n", "50", "--steps", "2", *flags,
                                           "--out", "x.json"], [])
       for flags in (["--data", "gaussian", "--jitter", "0.3"],
                     ["--data", "gaussian", "--noise", "5"],
                     ["--data", "scurve", "--gaussian-rho", "0.9"], ["--dim", "5"])},
    "reject restore source": (["restore", "--input", "data.csv", "--out", "x.csv"], []),
    # Every prediction overflows, so the error line counts all 600 rows.
    "reject restore overflow 600 rows": (["restore", "--model", "huge.json", "--input",
                                          "points.csv", "--mode", "disi-g", "--out", "x.csv"],
                                         []),
    # Path settings that the run would not read.
    **{f"reject restore {mode} {flag}": (["restore", "--model", "ck.json", "--input", "data.csv",
                                          "--mode", mode, flag, value, "--out", "x.csv"], [])
       for mode, flag, value in (("disi-r", "--delta", "0.3"), ("disi-r", "--eta", "0.7"),
                                 ("disi-r", "--p", "3"), ("disi-r", "--boot-epsilon", "0.2"),
                                 ("disi-g", "--p", "3"))},
    # At delta = 0 a path takes the regression segment, which reads no eta or boot offset.
    **{f"reject restore {name} delta=0 {flags[-2]}": (
        ["restore", "--model", "ck.json", "--input", "data.csv", *flags, "--out", "x.csv"], [])
       for name, flags in (
           ("elliptical", ["--traj", "elliptical", "--delta", "0", "--steps", "1", "--eta", "0.5"]),
           ("disi-g", ["--mode", "disi-g", "--delta", "0", "--eta", "0.7"]),
           ("linear", ["--traj", "linear", "--delta", "0", "--boot-epsilon", "0.2"]))},
    # A run without a boot point reads no boot offset, and one that draws no noise no seed.
    **{f"reject restore {' '.join(flags)}": (
        ["restore", "--model", "ck.json", "--input", "data.csv", *flags, "--out", "x.csv"], [])
       for flags in (["--mode", "disi-r", "--seed", "5"],
                     ["--traj", "elliptical", "--delta", "0", "--steps", "3", "--seed", "5"],
                     ["--traj", "elliptical", "--delta", "0.3", "--steps", "1", "--eta", "1",
                      "--seed", "5"],
                     ["--traj", "elliptical", "--delta", "0.3", "--steps", "1", "--eta", "1",
                      "--boot-epsilon", "0.2"],
                     ["--traj", "linear", "--delta", "0.5", "--steps", "4",
                      "--boot-epsilon", "0.3"])},
    # One step from g = 0 reads no delta or p, and a path on g = 0 no p.
    **{f"reject restore oracle {' '.join(flags)}": (
        ["restore", "--oracle", "gaussian", "--rho", "0.5", "--input", "data.csv", *flags,
         "--out", "x.csv"], [])
       for flags in (["--traj", "elliptical", "--steps", "1", "--eta", "1", "--delta", "0.3"],
                     ["--traj", "elliptical", "--steps", "1", "--eta", "1", "--delta", "1.2"],
                     ["--traj", "vpath", "--delta", "0.4", "--p", "3", "--steps", "1",
                      "--eta", "1"],
                     ["--traj", "vpath", "--delta", "0", "--steps", "5", "--p", "3"],
                     ["--traj", "vpath", "--delta", "0", "--steps", "5", "--p", "1.5"])},
    # A preset's default is never rejected, though this one-step run does not read it.
    "restore disi-g one step": (["restore", "--model", "ck.json", "--input", "data.csv",
                                 "--mode", "disi-g", "--steps", "1", "--eta", "1",
                                 "--out", "g1.csv"], ["g1.csv"]),
    # Predictor flags that the run would not read.
    **{f"reject restore {' '.join(flags)}": (
        ["restore", "--input", "data.csv", *flags, "--out", "x.csv"], [])
       for flags in (["--model", "ck.json", "--rho", "0.3"],
                     ["--model", "ck.json", "--sigma-d", "5"],
                     ["--model", "ck.json", "--oracle", "gaussian", "--rho", "0.2"],
                     ["--oracle", "gaussian", "--rho", "0.5", "--no-ema"])},
    **{f"reject sweep {' '.join(flags)}": (
        ["sweep", "--data", "data.csv", *flags, "--deltas", "0", "--etas", "0", "--nfes", "1",
         "--out", "x.csv"], [])
       for flags in (["--model", "ck.json", "--oracle", "cheat"],
                     ["--model", "ck.json", "--rho", "0.3"],
                     ["--oracle", "gaussian", "--no-ema"])},
    # A sweep whose every delta is 0 runs only the regression segment.
    **{f"reject sweep delta=0 {flag}": (
        ["sweep", "--data", "data.csv", "--oracle", "gaussian", "--deltas", "0", "--nfes", "1,2",
         flag, value, "--out", "x.csv"], [])
       for flag, value in (("--etas", "0.5"), ("--boot-epsilon", "0.01"), ("--seed", "3"))},
    # At NFE 1 no cell that runs visits a boot point or draws noise, and an NA cell runs nothing.
    **{f"reject sweep nfe=1 {' '.join(flags)}": (
        ["sweep", "--data", "data.csv", "--oracle", "gaussian", "--deltas", "pi/8", "--nfes", "1",
         *flags, "--out", "x.csv"], [])
       for flags in (["--etas", "1", "--seed", "3"], ["--etas", "1", "--seed", "4"],
                     ["--etas", "1", "--boot-epsilon", "0.01"], ["--etas", "0"])},
    # The checkpoint sets rho and sigma_d, so --rho is not read.
    "sweep model rho": (["sweep", "--data", "data.csv", "--model", "ck.json", "--rho", "0.3",
                         "--deltas", "pi/8", "--etas", "0", "--nfes", "2",
                         "--out", "sweep_r.csv"], []),
    # On a held-out set, whose rho_hat is not the checkpoint's rho.
    "sweep model held-out": (["sweep", "--data", "held.csv", "--model", "ck.json",
                              "--deltas", "0,pi/8", "--etas", "0,1", "--nfes", "1,2",
                              "--out", "sweep_h.csv"], ["sweep_h.csv"]),
    # A UTF-8 byte-order mark before the header hides no x1_ column.
    "restore oracle bom": (["restore", "--oracle", "gaussian", "--rho", "0.5", "--mode", "disi-r",
                            "--input", "bom.csv", "--out", "bom_r.csv"], ["bom_r.csv"]),
    "sweep delta=0": (["sweep", "--data", "data.csv", "--oracle", "gaussian", "--deltas", "0",
                       "--nfes", "1,2", "--out", "sweep_0.csv"], ["sweep_0.csv"]),
    "reject traj elliptical --p": (["traj", "--kind", "elliptical", "--p", "3", "--steps", "5",
                                    "--out", "x.csv"], []),
    "reject traj regression --delta": (["traj", "--kind", "regression", "--delta", "0.3",
                                        "--steps", "5", "--out", "x.csv"], []),
    "reject traj vpath --p nan": (["traj", "--kind", "vpath", "--steps", "3", "--p", "nan",
                                   "--out", "x.csv"], []),
    # At delta = 0 a path stays on g = 0, which p does not shape.
    **{f"reject {argv[0]} vpath delta=0 --p": (
        [*argv, "--delta", "0", "--p", "3", "--out", "x.csv"], [])
       for argv in (["traj", "--kind", "vpath", "--steps", "5"],
                    ["simulate", "--traj", "vpath", "--pairs", "data.csv"],
                    ["bench", "--traj", "vpath", "--euler-steps", "50", "--trials", "3"])},
    **{f"reject bench {flag} {value}": (["bench", "--euler-steps", "50", "--trials", "3",
                                         flag, value, "--out", "x.csv"], [])
       for flag, value in (("--sampler-steps", ","), ("--sampler-steps", "0,10"),
                           ("--g-floor", "nan"), ("--g-floor", "inf"), ("--g-floor", "2"),
                           ("--oracle", "gaussian"))},
}
CLI_CONFIGS = {
    "conf.json": {"n": 300, "steps": 70, "hidden": 16, "emb_dim": 8, "lr": 1e-3,
                  "ema_decay": 0.9, "seed": 2, "strength": 0.8},
    "bad_type.json": {"n": 50, "hidden": 1.5},
    "bad_key.json": {"n": 50, "hiden": 4},
    "bad_sampler.json": {"time_sampler": "cosine", "batch": "x"},
    "bad_kind.json": {"data": "gaussian", "n": 50, "steps": 2, "jitter": 0.3},
}


def _cli_entries(entries: dict) -> None:
    """Each of CLI_RUNS, in order, in one scratch directory: the bytes of
    each file it writes, and its exit code (argparse's, for an option it
    rejects), stdout and stderr."""
    from rgflow import MlpDenoiser, make_scurve_dataset, save_checkpoint, save_dataset
    from rgflow.cli import main
    from rgflow.toydata import write_csv

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in CLI_CONFIGS.items():
                Path(name).write_text(json.dumps(doc))
            # Its second hidden layer is GELU(1) everywhere, and its output
            # 8 * GELU(1) * 1e308 overflows.
            huge = MlpDenoiser(dim=2, hidden=8, emb_dim=4)
            huge.params.update(W2=np.zeros((8, 8)), b2=np.ones(8), W3=np.full((8, 2), 1e308))
            save_checkpoint("huge.json", huge, rho=0.5)
            write_csv("points.csv", ["x_1", "x_2"], np.random.default_rng(6).normal(size=(600, 2)))
            Path("bom.csv").write_bytes(b"\xef\xbb\xbfx1_1,x1_2\n0.5,-1.25\n2.0,0.75\n")
            # Drawn as conf.json's training set, from another seed.
            save_dataset(make_scurve_dataset(300, jitter=0.05, strength=0.8, noise=0.25, seed=9),
                         "held.csv")
            for name, (argv, files) in CLI_RUNS.items():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                entries[f"cli {name}"] = f"exit {code}\n{out.getvalue()}{err.getvalue()}"
                for file in files:
                    entries[f"cli {name} {file}"] = Path(file).read_bytes()
        finally:
            os.chdir(home)


def compare(a: dict, b: dict) -> list[str]:
    """Names of the entries that differ between dumps a and b."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["dump"] and len(argv) in (3, 4) and argv[3:] in ([], ["--quick"]):
        print(f"{len(dump(argv[1], argv[2], quick=len(argv) == 4))} entries")
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        a, b = (pickle.loads(Path(p).read_bytes()) for p in argv[1:])
        names = compare(a, b)
        for name in names:
            print(f"differs: {name}")
        print(f"{len(names)} of {len(a.keys() | b.keys())} entries differ")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
