"""Command-line front end.

Subcommands: schedule-dump, traj, simulate, bench, train, restore, sweep,
verify.  All numeric CSV output uses 17-significant-digit decimals so reruns
with the same --seed are byte-identical.  Exit codes: 0 success, 1 check
failure, 2 usage/config error, 3 I/O error.  No environment variable is
read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

# Each handler imports the sampler, training, process, dynamics, sweep and
# verify modules it runs, so a command loads only its own.  Nothing here loads
# scipy: denoiser._special loads scipy.special._special_ufuncs from its file on
# the first MLP pass, and toydata scipy.spatial on the first energy distance.
from .denoiser import CheatDenoiser, GaussianOracle, load_checkpoint, save_checkpoint
from .errors import ConfigError, RgflowError, check_seed, json_field, read_json_object
from .schedule import _HALF_PI, GvpSchedule, schedule_grid
from .toydata import (
    load_dataset,
    make_gaussian_pairs,
    make_scurve_dataset,
    read_matrix,
    save_dataset,
    write_csv,
)
from .trajectory import TRAJECTORY_KINDS, make_trajectory


def _given(**settings) -> dict:
    """The settings that were given, so that the others keep the callee's defaults."""
    return {k: v for k, v in settings.items() if v is not None}


def _path(kind: str, phi: float, args):
    """make_trajectory with the --delta and --p that were given, for a
    command that draws the whole path: p shapes only a path that lifts off
    g = 0, so --p is rejected on one that does not."""
    traj = make_trajectory(kind, phi, **_given(delta=args.delta, p=args.p))
    if args.p is not None and not traj.lifts:
        raise ConfigError(f"--p is not read by a {kind} path at delta {traj.delta:g}")
    return traj


def _angle(text: str) -> float:
    """Parse a float, or the symbolic forms 'pi' and 'pi/N' for nonzero N."""
    expr = text.replace(" ", "")
    try:
        if expr == "pi":
            return math.pi
        if expr.startswith("pi/"):
            return math.pi / float(expr[3:])
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {text!r}; use a float, 'pi' or 'pi/N'") from None


def _angle_list(text: str) -> list[float]:
    return [_angle(tok) for tok in text.split(",") if tok]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


# -- subcommand handlers ---------------------------------------------------------


def _cmd_schedule_dump(args) -> int:
    sched = GvpSchedule(rho=args.rho, sigma_d=args.sigma_d)
    table = schedule_grid(sched, args.grid)
    header = ["r", "g", "alpha", "beta", "lambda", "gamma", "dalpha", "dbeta"]
    write_csv(args.out, header, table)
    return 0


def _cmd_traj(args) -> int:
    sched = GvpSchedule(rho=args.rho, sigma_d=1.0)
    traj = _path(args.kind, sched.phi, args)
    grid = traj.discretize(args.steps)
    write_csv(args.out, ["t", "r", "g"], zip(grid.t, grid.r, grid.g))
    return 0


def _cmd_simulate(args) -> int:
    from .process import forward_state

    ds = load_dataset(args.pairs)
    rho = args.rho if args.rho is not None else ds.rho_hat
    sched = GvpSchedule(rho=rho, sigma_d=ds.sigma_d)
    traj = _path(args.traj, sched.phi, args)
    grid = traj.discretize(args.steps)
    rng = np.random.default_rng(check_seed(args.seed))
    dim = ds.dim
    rows = []
    for t, r, g in zip(grid.t, grid.r, grid.g):
        i = int(rng.integers(0, len(ds)))
        z = rng.normal(0.0, ds.sigma_d, size=dim)
        x = forward_state(sched, ds.x0[i], ds.x1[i], z, float(r), float(g))
        rows.append([t, r, g, *x])
    header = ["t", "r", "g"] + [f"x_{i + 1}" for i in range(dim)]
    write_csv(args.out, header, rows)
    return 0


def _cmd_bench(args) -> int:
    from .dynamics import euler_integrate
    from .sampler import SamplerConfig, _restore_fixed

    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    sched = GvpSchedule(rho=args.rho, sigma_d=1.0)
    den = GaussianOracle(rho=args.rho)
    traj = _path(args.traj, sched.phi, args)
    if not args.sampler_steps:
        raise ConfigError("bench needs at least one --sampler-steps value")
    # Every configuration is built before the Euler reference runs, so a bad
    # step count is rejected at once.
    cfgs = [SamplerConfig(trajectory=traj, n_steps=n, eta=0.0) for n in args.sampler_steps]
    rng = np.random.default_rng(check_seed(args.seed))
    x1 = rng.normal(0.0, 1.0, size=args.trials)
    zeros = np.zeros(args.trials)
    euler_end = euler_integrate(
        sched, traj, den, x1, zeros, args.euler_steps, **_given(g_floor=args.g_floor)
    )
    rows = []
    for n, cfg in zip(args.sampler_steps, cfgs):
        analytic = _restore_fixed(sched, den, x1, cfg, zeros)
        gap = np.abs(analytic - euler_end)
        rows.append([n, args.euler_steps, float(gap.mean()), float(gap.max())])
    header = ["sampler_steps", "euler_steps", "mean_abs_gap", "max_abs_gap"]
    write_csv(args.out, header, rows)
    return 0


# Each `train` setting, keyed by its flag's dest, which is also its --config
# key: the data kind that alone reads it (None: every run does), the keyword
# it sets (a TrainConfig field, that data kind's generator's keyword, or None
# for a setting read by name), its JSON type (a bool flag takes 0 or 1) and
# its default (None: the keyword is not passed, so its owner's default holds).
_TRAIN_SETTINGS = {
    "data": (None, None, str, "scurve"), "n": (None, None, int, 2000),
    "jitter": ("scurve", "jitter", float, None), "strength": ("scurve", "strength", float, None),
    "noise": ("scurve", "noise", float, None),
    "gaussian_rho": ("gaussian", "rho", float, 0.5), "dim": ("gaussian", "dim", int, 2),
    "sigma_d": (None, None, float, 1.0),
    "time_sampler": (None, "time_sampler", str, None), "batch": (None, "batch_size", int, None),
    "steps": (None, "n_steps", int, None), "lr": (None, "learning_rate", float, None),
    "weight_decay": (None, "weight_decay", float, None),
    "ema_decay": (None, "ema_decay", float, None),
    "adaptive_weighting": (None, "adaptive_weighting", bool, None),
    "hidden": (None, "hidden", int, None), "emb_dim": (None, "emb_dim", int, None),
    "seed": (None, "seed", int, None),
}
_DATA_KINDS = {"scurve": make_scurve_dataset, "gaussian": make_gaussian_pairs}
# What argparse shows or checks of a `train` flag beyond its type.
_TRAIN_FLAGS = {"data": {"choices": list(_DATA_KINDS)}, "n": {"help": "dataset size"},
                "time_sampler": {"help": "elliptical|linear|regression|uniform|lognorm1|lognorm2"}}


def _cmd_train(args) -> int:
    from .training import TrainConfig, make_time_sampler, train

    conf: dict = {}
    if args.config is not None:
        conf = read_json_object(args.config, f"config {args.config}", ConfigError)
        unknown = conf.keys() - _TRAIN_SETTINGS.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(key):
        """The flag (typed by argparse), else the config file's value, which
        must have the key's JSON type, else the key's default."""
        *_, kind, default = _TRAIN_SETTINGS[key]
        if (flag := getattr(args, key)) is not None:
            return flag
        return json_field(conf, key, kind, "config", ConfigError) if key in conf else default

    # Each field is converted as it is read, so that the first bad one is
    # named; kind(value) makes --adaptive-weighting's 0 or 1 a bool.
    fields = {}
    for key, (reader, field, kind, _) in _TRAIN_SETTINGS.items():
        if reader is None and field and (value := pick(key)) is not None:
            fields[field] = make_time_sampler(value) if key == "time_sampler" else kind(value)
    # Built first, so that a bad seed is rejected before the data set is drawn.
    cfg = TrainConfig(**fields)
    data, n, settings = pick("data"), pick("n"), {"sigma_d": pick("sigma_d")}
    if data not in _DATA_KINDS:
        raise ConfigError(f"unknown --data {data!r}; expected scurve or gaussian")
    for key, (reader, field, _, _) in _TRAIN_SETTINGS.items():
        if reader == data:
            if (value := pick(key)) is not None:
                settings[field] = value
        elif reader is not None and getattr(args, key) is not None:
            raise ConfigError(f"--{key.replace('_', '-')} is not read on {data} data")
        elif reader is not None and key in conf:
            raise ConfigError(f"config key {key!r} is not read on {data} data")
    try:
        # Raised at the first overflow, so that a huge setting is named here
        # and not by a later check that its NaN or inf trips.
        with np.errstate(all="raise", under="ignore"):
            ds = _DATA_KINDS[data](n=n, seed=cfg.seed, **settings)
    except FloatingPointError:
        shown = ", ".join(f"{k}={v}" for k, v in settings.items())
        raise ConfigError(f"the {data} data set overflows float64 at {shown}") from None
    # A non-finite loss surfaces as train's NonFiniteLoss, the one error line,
    # rather than as numpy warnings.
    with np.errstate(all="ignore"):
        result = train(ds, cfg)
    save_checkpoint(
        args.out, result.denoiser, rho=ds.rho_hat,
        ema_params=result.ema_denoiser.params,
    )
    if args.trace is not None:
        write_csv(args.trace, ["step", "loss"], enumerate(result.loss_trace))
    if args.save_data is not None:
        save_dataset(ds, args.save_data)
    print(f"trained {cfg.n_steps} steps; rho_hat={ds.rho_hat:.6f}; wrote {args.out}")
    return 0


def _load_degraded(path) -> np.ndarray:
    """Read degraded points: x1_* columns of a dataset CSV, or a bare matrix
    with or without a header, with the checks of read_matrix."""
    header, data = read_matrix(path)
    x1_cols = [i for i, name in enumerate(header) if name.startswith("x1_")]
    if x1_cols:
        return data[:, x1_cols]
    return data  # bare matrix of degraded points


# restore --mode: (the flags it fixes, the defaults it gives).  Flags left
# unset take the defaults of the path's class and of SamplerConfig.
_PRESETS = {
    None: ({}, {"traj": "elliptical"}),
    "disi-r": ({"traj": "regression", "steps": 1}, {}),
    "disi-g": ({"traj": "elliptical"}, {"delta": math.pi / 8.0}),
}


def _predictor(args, data=None):
    """(denoiser, schedule) of --model, else of --oracle.  A checkpoint sets
    rho and sigma_d.  An oracle takes --rho and --sigma-d (restore), or, with
    the data set `data` (sweep), --rho else its rho_hat, and its sigma_d."""
    rho, sigma_d = args.rho, vars(args).get("sigma_d")
    if args.model is not None:
        for flag, value in {"--oracle": args.oracle, "--rho": rho, "--sigma-d": sigma_d}.items():
            if value is not None:
                raise ConfigError(f"{flag} is not read with --model")
        ck = load_checkpoint(args.model)
        den = ck.denoiser(use_ema=not args.no_ema)
        return den, GvpSchedule(rho=ck.rho, sigma_d=den.sigma_d)
    if args.no_ema:
        raise ConfigError("--no-ema is not read without --model")
    if args.oracle is None:
        raise ConfigError(f"{args.command} needs --model or --oracle "
                          + ("gaussian" if data is None else "gaussian|cheat"))
    if data is not None:
        rho, sigma_d = data.rho_hat if rho is None else rho, data.sigma_d
    elif rho is None:
        raise ConfigError("--oracle gaussian needs --rho")
    if args.oracle == "cheat":
        return CheatDenoiser(data.x0), GvpSchedule(rho=rho, sigma_d=sigma_d)
    den = GaussianOracle(rho=rho, **_given(sigma_d=sigma_d))
    return den, den.sched


def _cmd_restore(args) -> int:
    from .sampler import SamplerConfig, plan, restore_batch

    # The sampler settings given, in parser order, before the preset fills in
    # its defaults, which are never rejected.
    settings = [key for key in ("delta", "p", "eta", "boot_epsilon", "seed")
                if getattr(args, key) is not None]
    fixed, defaults = _PRESETS[args.mode]
    for flag, value in fixed.items():
        if (given := getattr(args, flag)) not in (None, value):
            raise ConfigError(f"--{flag} {given} contradicts --mode {args.mode}, "
                              f"which runs --{flag} {value}")
    for flag, value in {**defaults, **fixed}.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)

    den, sched = _predictor(args)
    traj = make_trajectory(args.traj, sched.phi, **_given(delta=args.delta, p=args.p))
    cfg = SamplerConfig(trajectory=traj, **_given(
        n_steps=args.steps, eta=args.eta, boot_epsilon=args.boot_epsilon, seed=args.seed))
    if unread := [key for key in settings if key not in plan(sched, cfg).reads]:
        raise ConfigError(f"--{unread[0].replace('_', '-')} is not read by a {cfg.n_steps}-step "
                          f"{args.traj} run at delta {getattr(traj, 'delta', 0.0):g}")
    x1 = _load_degraded(args.input)
    # An overflow surfaces as restore_batch's NonFiniteOutput, the one error
    # line, rather than as numpy warnings.
    with np.errstate(all="ignore"):
        out = restore_batch(sched, den, x1, cfg)
    header = [f"x_{i + 1}" for i in range(out.shape[1])]
    write_csv(args.out, header, out.tolist())
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import SWEEP_FIELDS, cell_plan, run_cells, sweep_cells

    ds = load_dataset(args.data)
    den, sched = _predictor(args, ds)
    etas = [0.0, 0.2, 0.5, 1.0] if args.etas is None else args.etas
    cells = sweep_cells(sched, args.deltas, etas, args.nfes,
                        **_given(seed=args.seed, boot_epsilon=args.boot_epsilon))
    # An NA cell runs nothing, so it reads nothing.
    plans = [cell_plan(sched, cfg) for _, cfg in cells]
    reads = set().union(*(p.reads for p in plans if p is not None))
    for key, setting in (("etas", "eta"), ("boot_epsilon", "boot_epsilon"), ("seed", "seed")):
        if getattr(args, key) is not None and setting not in reads:
            raise ConfigError(f"--{key.replace('_', '-')} is not read by any cell this sweep runs")
    rows = run_cells(sched, den, ds.x0, ds.x1, cells)
    write_csv(args.out, SWEEP_FIELDS, ([row[k] for k in SWEEP_FIELDS] for row in rows))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(only=args.only)
    if not results:
        raise ConfigError(f"--only {args.only!r} matched no checks")
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} ({res.runtime_s:.2f}s): {res.measured}")
    report = {
        "checks": [r.as_dict() for r in results],
        "all_pass": all(r.passed for r in results),
    }
    if args.json is not None:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"all_pass": report["all_pass"]}))
    return 0 if report["all_pass"] else 1


# -- parser ----------------------------------------------------------------------


def _path_flags(p, flag: str, kinds=TRAJECTORY_KINDS, delta=None, **options) -> None:
    """Declare a path's kind flag (one of `kinds`, with `options`) and the
    --delta and --p that _path reads."""
    p.add_argument(flag, choices=list(kinds), **options)
    p.add_argument("--delta", type=_angle, default=delta)
    p.add_argument("--p", type=float)


def _predictor_flags(p, oracles: list[str]) -> None:
    """Declare the --model, --no-ema, --oracle and --rho that _predictor reads."""
    p.add_argument("--model", help="checkpoint JSON")
    p.add_argument("--no-ema", action="store_true",
                   help="use raw weights instead of the EMA weights")
    p.add_argument("--oracle", choices=oracles)
    p.add_argument("--rho", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgflow",
        description=(
            "Two-time interpolant restoration toolkit: coefficient schedules, "
            "inference trajectories, the analytic hybrid sampler, and a toy "
            "training pipeline."
        ),
        epilog="Angles accept floats or 'pi'/'pi/N'.  No environment variable is read.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule-dump", help="tabulate schedule coefficients to CSV")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--sigma-d", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_schedule_dump)

    p = sub.add_parser("traj", help="emit (t, r, g) rows for a trajectory")
    _path_flags(p, "--kind", required=True)
    p.add_argument("--rho", type=float, default=0.0, help="sets phi = arccos(rho)/2")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_traj)

    p = sub.add_parser("simulate", help="sample forward states along a trajectory")
    _path_flags(p, "--traj", required=True)
    p.add_argument("--pairs", required=True, help="dataset CSV (x0_*, x1_* columns)")
    p.add_argument("--rho", type=float, help="override sidecar rho_hat")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("bench", help="analytic sampler vs Euler convergence table")
    p.add_argument("--rho", type=float, default=0.5)
    _path_flags(p, "--traj", [k for k in TRAJECTORY_KINDS if k != "regression"],
                math.pi / 4.0, default="elliptical")
    p.add_argument("--euler-steps", type=int, default=10_000)
    p.add_argument("--sampler-steps", type=_int_list, default=[10, 20, 50, 100])
    p.add_argument("--g-floor", type=float)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("train", help="train the toy MLP denoiser")
    p.add_argument("--config", help="JSON config; flags override")
    for key, (*_, kind, _) in _TRAIN_SETTINGS.items():
        typed = {"type": int, "choices": [0, 1]} if kind is bool else {"type": kind}
        p.add_argument("--" + key.replace("_", "-"), **typed, **_TRAIN_FLAGS.get(key, {}))
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--trace", help="loss trace CSV path")
    p.add_argument("--save-data", help="also write the generated dataset CSV here")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("restore", help="restore degraded points")
    _predictor_flags(p, ["gaussian"])
    p.add_argument("--sigma-d", type=float)
    p.add_argument("--input", required=True, help="CSV of degraded points")
    p.add_argument("--mode", choices=["disi-r", "disi-g"],
                   help="presets: disi-r = regression/1 step; "
                        "disi-g = elliptical/10 steps with booting")
    _path_flags(p, "--traj")
    p.add_argument("--steps", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--boot-epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_restore)

    p = sub.add_parser("sweep", help="(delta, eta, NFE) grid with MSE/energy distance")
    p.add_argument("--data", required=True, help="paired dataset CSV")
    _predictor_flags(p, ["gaussian", "cheat"])
    p.add_argument("--deltas", type=_angle_list, default=[0.0, math.pi / 8, math.pi / 4, _HALF_PI])
    p.add_argument("--etas", type=_angle_list)
    p.add_argument("--nfes", type=_int_list, default=[1, 2, 5, 15, 50])
    p.add_argument("--boot-epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", help="substring filter on check names")
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RgflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
