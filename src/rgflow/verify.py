"""Self-verification checks: acceptance criteria plus module invariants.

Each check is a zero-argument callable returning a CheckResult; the registry
drives both the `verify` CLI subcommand and the acceptance test suite, so
there is a single source of truth for every tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .denoiser import (
    CheatDenoiser,
    GaussianOracle,
    MlpDenoiser,
    save_checkpoint,
    load_checkpoint,
)
from .dynamics import euler_integrate
from .process import empirical_variance, interpolate
from .sampler import SamplerConfig, _restore_fixed, hybrid_step, kappa, restore, restore_batch
from .schedule import _HALF_PI, GvpSchedule
from .sweep import run_sweep
from .toydata import energy_distance, make_gaussian_pairs, make_scurve_dataset, mse
from .training import (
    AdaptiveWeight,
    EllipticalSpecialist,
    LinearSpecialist,
    LogitNormalSampler,
    RegressionSpecialist,
    TrainConfig,
    UniformSampler,
    _objective,
    train,
)
from .trajectory import Elliptical, Linear, QuadBezier, Regression, VPath


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    tolerance: str
    runtime_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "check_name": self.name,
            "pass": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "runtime_s": round(self.runtime_s, 3),
        }


def _result(name, passed, measured, tolerance) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), measured=measured, tolerance=tolerance)


# -- criterion 1 ---------------------------------------------------------------


def check_gvp_variance() -> CheckResult:
    """Per-coordinate Var(x(r,g)) stays within 2% of sigma_d^2."""
    worst = 0.0
    for rho in (0.0, 0.5, 0.9):
        ds = make_gaussian_pairs(rho, 100_000, seed=17)
        sched = GvpSchedule(rho=rho, sigma_d=1.0)
        rng = np.random.default_rng(23)
        for r_frac in (-0.5, 0.0, 0.5):
            for g in (0.2, 0.7, 1.2):
                v = empirical_variance(
                    sched, ds, r_frac * sched.phi, g, 100_000, rng
                )
                worst = max(worst, abs(v - 1.0))
    return _result(
        "gvp-variance", worst <= 0.02, f"max |var-1| = {worst:.4f}", "<= 0.02"
    )


# -- criterion 2 ---------------------------------------------------------------


def check_boundary_exactness() -> CheckResult:
    """Coefficients and states at (+-phi, 0) hit their boundary values."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        rho = rng.uniform(-0.99, 0.99)
        sched = GvpSchedule(rho=rho, sigma_d=1.0)
        lo = sched.coeffs(-sched.phi, 0.0)
        hi = sched.coeffs(sched.phi, 0.0)
        worst = max(
            worst,
            abs(lo.alpha - 1.0),
            abs(lo.beta),
            abs(lo.lam - 1.0),
            abs(lo.gamma),
            abs(hi.alpha),
            abs(hi.beta - 1.0),
        )
        x0, x1 = rng.normal(size=3), rng.normal(size=3)
        za, zb = rng.normal(size=3), rng.normal(size=3)
        s_a = interpolate(sched, x0, x1, za, -sched.phi, 0.0)
        s_b = interpolate(sched, x0, x1, zb, -sched.phi, 0.0)
        if not np.array_equal(s_a, s_b):
            worst = max(worst, 1.0)  # noise leaked through gamma(0)
        worst = max(worst, float(np.max(np.abs(s_a - x0))))
        s_c = interpolate(sched, x0, x1, za, sched.phi, 0.0)
        worst = max(worst, float(np.max(np.abs(s_c - x1))))
    return _result(
        "boundary-exactness", worst <= 1e-12, f"max deviation = {worst:.2e}", "<= 1e-12"
    )


# -- criterion 3 ---------------------------------------------------------------


def check_regression_identity() -> CheckResult:
    """One-step regression restoration returns the denoiser output."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for rho in (-0.6, 0.0, 0.5, 0.9):
        sched = GvpSchedule(rho=rho, sigma_d=1.0)
        x1 = rng.normal(size=4)
        for den in (
            CheatDenoiser(rng.normal(size=4)),
            GaussianOracle(rho=rho),
        ):
            cfg = SamplerConfig(trajectory=Regression(phi=sched.phi), n_steps=1)
            out = restore(sched, den, x1, cfg)
            pred = den.predict(x1, x1, sched.phi, 0.0)
            rel = np.max(np.abs(out - pred)) / max(1.0, float(np.max(np.abs(pred))))
            worst = max(worst, float(rel))
    return _result(
        "regression-identity",
        worst <= 1e-15,
        f"max relative gap = {worst:.2e}",
        "<= 1e-15 relative",
    )


# -- criterion 4 ---------------------------------------------------------------


def _random_path(rng, phi):
    kind = rng.integers(0, 4)
    delta = rng.uniform(0.1, _HALF_PI)
    if kind == 0:
        return Elliptical(phi=phi, delta=delta)
    if kind == 1:
        return Linear(phi=phi, delta=delta)
    if kind == 2:
        return VPath(phi=phi, delta=delta, p=rng.uniform(1.0, 3.0))
    return QuadBezier(phi=phi, delta=delta)


def check_manifold_invariance() -> CheckResult:
    """The deterministic hybrid step maps exact forward states to exact
    forward states with the same latent; at eta=1 the same holds when the
    injected noise equals the latent."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        rho = rng.uniform(-0.9, 0.9)
        sched = GvpSchedule(rho=rho, sigma_d=1.0)
        traj = _random_path(rng, sched.phi)
        lo, hi = sorted((traj.t_start, traj.t_end))
        for _attempt in range(100):
            t1, t2 = rng.uniform(lo, hi, size=2)
            r1, g1 = traj.point(t1)
            r2, g2 = traj.point(t2)
            if g1 > 1e-3:
                break
        x0, x1 = rng.normal(size=2), rng.normal(size=2)
        z_lat = rng.normal(size=2)
        x_prev = interpolate(sched, x0, x1, z_lat, r1, g1)
        want = interpolate(sched, x0, x1, z_lat, r2, g2)
        got0 = hybrid_step(sched, x_prev, x0, x1, (r1, g1), (r2, g2), 0.0, np.zeros(2))
        got1 = hybrid_step(sched, x_prev, x0, x1, (r1, g1), (r2, g2), 1.0, z_lat)
        worst = max(
            worst,
            float(np.max(np.abs(got0 - want))),
            float(np.max(np.abs(got1 - want))),
        )
    return _result(
        "manifold-invariance", worst <= 1e-10, f"max gap = {worst:.2e}", "<= 1e-10"
    )


# -- criterion 5 ---------------------------------------------------------------


def check_kappa_limits() -> CheckResult:
    """kappa limits: exact at eta in {0, 1}, small near eta = 0."""
    gs = np.linspace(0.02, _HALF_PI, 25)
    exact_ok = True
    worst_small = 0.0
    for g1 in gs:
        for g2 in gs:
            if kappa(1.0, g1, g2) != math.sin(g2) - math.sin(g1):
                exact_ok = False
            if kappa(0.0, g1, g2) != 0.0:
                exact_ok = False
            worst_small = max(worst_small, abs(kappa(1e-4, g1, g2)))
    passed = exact_ok and worst_small < 1e-3
    return _result(
        "kappa-limits",
        passed,
        f"eta-limit exact: {exact_ok}; max |kappa(1e-4)| = {worst_small:.2e}",
        "exact at eta in {0,1}; |kappa(1e-4)| < 1e-3",
    )


# -- criterion 6 ---------------------------------------------------------------


def check_sampler_euler_agreement() -> CheckResult:
    """Analytic sampler (N=100) and Euler (N=1e4) land together.

    Both integrate the same flow from 100 random degraded inputs with all
    stochastic draws zeroed, so the gap is pure integrator error.
    """
    sched = GvpSchedule(rho=0.5, sigma_d=1.0)
    den = GaussianOracle(rho=0.5)
    traj = Elliptical(phi=sched.phi, delta=math.pi / 4.0)
    rng = np.random.default_rng(41)
    x1 = rng.normal(0.0, 1.0, size=100)
    zeros = np.zeros(100)
    cfg = SamplerConfig(trajectory=traj, n_steps=100, eta=0.0)
    analytic = _restore_fixed(sched, den, x1, cfg, zeros)
    euler = euler_integrate(sched, traj, den, x1, zeros, 10_000)
    gap = float(np.mean(np.abs(analytic - euler)))
    return _result(
        "sampler-euler-agreement", gap <= 1e-3, f"mean endpoint gap = {gap:.2e}", "<= 1e-3"
    )


# -- criterion 7 ---------------------------------------------------------------


def check_gaussian_conditional_law() -> CheckResult:
    """Restoration endpoints follow the exact conditional law N(rho*x1, (1-rho^2)).

    The endpoint is affine in the boot noise, so the amplification B is
    extracted exactly from two deterministic runs; the 2e4-chain Monte-Carlo
    run must land in the pinned mean band and agree with B^2 within 4 SE.
    """
    rho = 0.5
    sched = GvpSchedule(rho=rho, sigma_d=1.0)
    den = GaussianOracle(rho=rho)
    traj = Elliptical(phi=sched.phi, delta=_HALF_PI)
    cfg = SamplerConfig(trajectory=traj, n_steps=100, eta=0.0, seed=0)

    one = np.ones(1)
    base = _restore_fixed(sched, den, one, cfg, np.zeros(1))
    lifted = _restore_fixed(sched, den, one, cfg, one)
    b2 = float((lifted[0] - base[0]) ** 2)

    n = 20_000
    out = restore(sched, den, np.ones(n), cfg)
    mean, var = float(out.mean()), float(out.var())
    se = 0.75 * math.sqrt(2.0 / n)
    passed = (
        abs(mean - 0.5) <= 0.02 and 0.70 <= b2 <= 0.80 and abs(var - b2) <= 4.0 * se
    )
    return _result(
        "gaussian-conditional-law",
        passed,
        f"mean = {mean:.4f}, var = {var:.4f}, exact amplification B^2 = {b2:.4f}",
        "mean in 0.5 +- 0.02; B^2 in [0.70, 0.80]; |var - B^2| <= 4 SE",
    )


# -- criterion 8 ---------------------------------------------------------------


def check_gradient_correctness() -> CheckResult:
    """The gradients of the loss `train` descends (training._objective) match
    central finite differences of that loss in every parameter of both nets,
    with adaptive weighting on and off, at sigma_d 1 and 0.7."""
    rng = np.random.default_rng(53)
    h = 1e-5
    worst = 0.0
    for trial in range(10):
        sd = (1.0, 0.7)[trial % 2]
        net = MlpDenoiser(dim=2, hidden=12, emb_dim=8, sigma_d=sd, params={})
        net.reinit(rng)
        w_net = AdaptiveWeight(emb_dim=4, hidden=6, rng=rng) if trial % 4 < 2 else None
        nets = [net] if w_net is None else [net, w_net]
        # Random weights in every layer: the zero-init biases and output
        # layers are for training starts, while the gradient field must be
        # correct everywhere.
        for each in nets:
            each.params = {k: rng.normal(0.0, 0.4, size=p.shape) for k, p in each.params.items()}
        r, g = rng.uniform(-1.0, 1.0, size=3), rng.uniform(0.0, _HALF_PI, size=3)
        feats = net.features(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), r, g)
        w_feats = None if w_net is None else w_net.features(r, g)
        x0 = rng.normal(size=(3, 2))
        gradients = _objective(net, w_net, feats, w_feats, x0)[1]
        # zip stops at the denoiser's gradients when there is no weight net.
        for each, grads in zip(nets, gradients()):
            for key, g_analytic in grads.items():
                p = each.params[key]
                for idx in np.ndindex(p.shape):
                    orig = p[idx]
                    p[idx] = orig + h
                    up = _objective(net, w_net, feats, w_feats, x0)[0]
                    p[idx] = orig - h
                    dn = _objective(net, w_net, feats, w_feats, x0)[0]
                    p[idx] = orig
                    fd = (up - dn) / (2.0 * h)
                    denom = max(abs(g_analytic[idx]), abs(fd), 1e-3)
                    worst = max(worst, abs(g_analytic[idx] - fd) / denom)
    return _result(
        "gradient-check", worst < 1e-4, f"max relative error = {worst:.2e}", "< 1e-4"
    )


# -- criterion 9 ---------------------------------------------------------------


def check_training_progress() -> CheckResult:
    """20k-step S-curve training beats the identity baseline on both the
    fidelity (one-step MSE) and distribution (energy distance) axes.

    The degradation (shear 1.0, noise 0.25, rho_hat ~ 0.63) is strong enough
    that the degraded cloud is distributionally distinct from the clean one,
    so the energy-distance comparison is meaningful.
    """
    ds = make_scurve_dataset(2000, jitter=0.05, strength=1.0, noise=0.25, seed=1)
    holdout = make_scurve_dataset(2000, jitter=0.05, strength=1.0, noise=0.25, seed=101)
    cfg = TrainConfig(n_steps=20_000, seed=3)
    result = train(ds, cfg)
    sched = GvpSchedule(rho=ds.rho_hat, sigma_d=ds.sigma_d)
    net = result.ema_denoiser

    head = float(result.loss_trace[:100].mean())
    tail = float(result.loss_trace[-100:].mean())

    x0, x1 = holdout.x0, holdout.x1
    reg_cfg = SamplerConfig(trajectory=Regression(phi=sched.phi), n_steps=1, seed=5)
    restored_r = restore_batch(sched, net, x1, reg_cfg)
    mse_model = mse(restored_r, x0)
    mse_identity = mse(x1, x0)

    gen_traj = Elliptical(phi=sched.phi, delta=math.pi / 8.0)
    gen_cfg = SamplerConfig(trajectory=gen_traj, n_steps=15, eta=0.0, seed=5)
    restored_g = restore_batch(sched, net, x1, gen_cfg)
    ed_model = energy_distance(restored_g, x0)
    ed_identity = energy_distance(x1, x0)

    passed = tail < 0.5 * head and mse_model < mse_identity and ed_model < ed_identity
    return _result(
        "training-progress",
        passed,
        (
            f"loss {head:.3f} -> {tail:.3f}; one-step MSE {mse_model:.4f} vs identity "
            f"{mse_identity:.4f}; energy dist {ed_model:.4f} vs {ed_identity:.4f}"
        ),
        "tail < 0.5*head; MSE < identity; energy distance < identity",
    )


# -- criterion 10 ----------------------------------------------------------------


def check_sweep_structure() -> CheckResult:
    """The (delta, eta, NFE) sweep reproduces the expected grid structure."""
    rho = 0.5
    sched = GvpSchedule(rho=rho, sigma_d=1.0)
    ds = make_gaussian_pairs(rho, 64, seed=77, dim=2)
    x0, x1 = ds.x0, ds.x1
    den = CheatDenoiser(x0)
    deltas = (0.0, math.pi / 8.0, math.pi / 4.0, _HALF_PI)
    etas = (0.0, 0.2, 0.5, 1.0)
    nfes = (1, 2, 5, 15, 50)
    rows = run_sweep(sched, den, x0, x1, deltas, etas, nfes, seed=13)

    problems = []

    # (a) NFE=2 collapse across delta, shared noise streams.
    outputs = {}
    for delta in deltas[1:]:
        for eta in etas:
            cfg = SamplerConfig(
                trajectory=Elliptical(phi=sched.phi, delta=delta), n_steps=2,
                eta=eta, seed=13,
            )
            outputs[(delta, eta)] = restore_batch(sched, den, x1, cfg)
    for eta in (0.0, 0.2, 0.5):
        ref = outputs[(deltas[1], eta)]
        for delta in deltas[2:]:
            gap = float(np.max(np.abs(outputs[(delta, eta)] - ref)))
            if gap > 1e-12:
                problems.append(f"eta={eta} NFE=2 outputs differ across delta by {gap:.2e}")
    ref = outputs[(deltas[1], 1.0)]
    for delta in deltas[2:]:
        gap = float(np.max(np.abs(outputs[(delta, 1.0)] - ref)))
        if gap > 1e-2:
            problems.append(f"eta=1 NFE=2 outputs differ across delta by {gap:.2e}")

    by_cell = {(row["delta"], row["eta"], row["nfe"]): row for row in rows}
    # (b) the regression row appears once per NFE with eta marked NA.
    for nfe in nfes:
        cell = by_cell.get((0.0, "NA", nfe))
        if cell is None or cell["mse"] == "NA":
            problems.append(f"missing regression row at NFE={nfe}")
    if any(row["delta"] == 0.0 and row["eta"] != "NA" for row in rows):
        problems.append("regression rows should carry eta=NA only")

    # (c) NA cells exactly at (delta>0, NFE=1, eta<1).
    for row in rows:
        should_be_na = row["delta"] != 0.0 and row["nfe"] == 1 and row["eta"] != 1.0
        is_na = row["mse"] == "NA"
        if row["eta"] == "NA":
            continue
        if should_be_na != is_na:
            problems.append(f"NA mismatch at {row}")

    # MSE cells at NFE=2 agree across delta for eta<1 (bitwise-equal outputs).
    for eta in (0.0, 0.2, 0.5):
        vals = {by_cell[(d, eta, 2)]["mse"] for d in deltas[1:]}
        if len(vals) != 1:
            problems.append(f"NFE=2 MSE cells differ across delta at eta={eta}: {vals}")

    measured = "; ".join(problems) if problems else "structure as expected"
    return _result(
        "sweep-structure",
        not problems,
        measured,
        "NFE=2 collapse, single NA-eta regression row, NA cells at (delta>0, NFE=1, eta<1)",
    )


# -- criterion 11 ----------------------------------------------------------------


def check_time_sampler_geometry() -> CheckResult:
    """Specialist draws satisfy their path equations; generalists stay in range."""
    rng = np.random.default_rng(99)
    phi = GvpSchedule(rho=0.3, sigma_d=1.0).phi
    n = 1_000_000

    ell = EllipticalSpecialist().sample_batch(phi, rng, n)
    mask = ell["delta"] > 0.0
    res_e = np.abs(
        (ell["r"][mask] / phi) ** 2 + (ell["g"][mask] / ell["delta"][mask]) ** 2 - 1.0
    ).max()

    lin = LinearSpecialist().sample_batch(phi, rng, n)
    mask = lin["delta"] > 0.0
    res_l = np.abs(
        lin["r"][mask] / (-phi) + lin["g"][mask] / (lin["delta"][mask] / 2.0) - 1.0
    ).max()

    violations = 0
    for sampler in (
        RegressionSpecialist(),
        UniformSampler(),
        LogitNormalSampler(0.0, 1.0, 0.0, 1.0),
        LogitNormalSampler(0.0, 1.0, -0.5, 1.0),
        EllipticalSpecialist(),
        LinearSpecialist(),
    ):
        draw = sampler.sample_batch(phi, rng, n)
        violations += int(np.sum(np.abs(draw["r"]) > phi))
        violations += int(np.sum((draw["g"] < 0.0) | (draw["g"] > _HALF_PI)))

    passed = res_e <= 1e-12 and res_l <= 1e-12 and violations == 0
    return _result(
        "time-sampler-geometry",
        passed,
        f"elliptical residual {res_e:.2e}, linear residual {res_l:.2e}, "
        f"range violations {violations}",
        "residuals <= 1e-12; zero violations",
    )


# -- module invariants -------------------------------------------------------------


def check_derivative_consistency() -> CheckResult:
    """Closed-form coefficient derivatives match central finite differences."""
    h = 1e-6
    worst = 0.0
    for rho in (-0.7, 0.0, 0.4, 0.9):
        sched = GvpSchedule(rho=rho, sigma_d=1.0)
        rs = np.linspace(-sched.phi + 2 * h, sched.phi - 2 * h, 20)
        gs = np.linspace(2 * h, _HALF_PI - 2 * h, 20)
        for r in rs:
            d = sched.coeff_derivs(r, 0.3)
            fd_a = (sched.alpha(r + h) - sched.alpha(r - h)) / (2 * h)
            fd_b = (sched.beta(r + h) - sched.beta(r - h)) / (2 * h)
            worst = max(worst, abs(d.dalpha - fd_a), abs(d.dbeta - fd_b))
        for g in gs:
            d = sched.coeff_derivs(0.0, g)
            fd_l = (math.cos(g + h) - math.cos(g - h)) / (2 * h)
            fd_g = (math.sin(g + h) - math.sin(g - h)) / (2 * h)
            worst = max(worst, abs(d.dlambda - fd_l), abs(d.dgamma - fd_g))
    return _result(
        "derivative-consistency", worst <= 1e-8, f"max gap = {worst:.2e}", "<= 1e-8"
    )


def check_trajectory_geometry() -> CheckResult:
    """Implicit path equations hold and endpoints are exact."""
    rng = np.random.default_rng(3)
    worst = 0.0
    endpoint_exact = True
    for _ in range(1000):
        phi = rng.uniform(0.1, _HALF_PI)
        delta = rng.uniform(1e-3, _HALF_PI)
        ell = Elliptical(phi=phi, delta=delta)
        t = rng.uniform(-_HALF_PI, _HALF_PI)
        r, g = ell.point(t)
        worst = max(worst, abs((r / phi) ** 2 + (g / delta) ** 2 - 1.0))
        lin = Linear(phi=phi, delta=delta)
        t = rng.uniform(0.0, 1.0)
        r, g = lin.point(t)
        worst = max(worst, abs(r / (-phi) + g / (delta / 2.0) - 1.0))
    for traj in (
        Elliptical(phi=0.5, delta=0.3),
        Linear(phi=0.5, delta=0.3),
        Regression(phi=0.5),
        VPath(phi=0.5, delta=0.3, p=1.5),
        QuadBezier(phi=0.5, delta=0.3),
    ):
        grid = traj.discretize(7)
        if (grid.r[0], grid.g[0]) != traj.start_rg:
            endpoint_exact = False
        if (grid.r[-1], grid.g[-1]) != (-traj.phi, 0.0):
            endpoint_exact = False
    bez = QuadBezier(phi=0.5, delta=0.4)
    r_mid, g_mid = bez.point(0.5)
    worst = max(worst, abs(g_mid - 0.2), abs(r_mid))
    passed = worst <= 1e-12 and endpoint_exact
    return _result(
        "trajectory-geometry",
        passed,
        f"max residual = {worst:.2e}; endpoints exact: {endpoint_exact}",
        "residuals <= 1e-12; endpoints bit-exact",
    )


def check_euler_convergence() -> CheckResult:
    """Euler endpoint error halves when the step count doubles."""
    sched = GvpSchedule(rho=0.5, sigma_d=1.0)
    den = GaussianOracle(rho=0.5)
    traj = Elliptical(phi=sched.phi, delta=math.pi / 4.0)
    rng = np.random.default_rng(8)
    x1 = rng.normal(0.0, 1.0, size=50)
    zeros = np.zeros(50)
    ref = euler_integrate(sched, traj, den, x1, zeros, 40_000)
    e1 = float(np.mean(np.abs(euler_integrate(sched, traj, den, x1, zeros, 1000) - ref)))
    e2 = float(np.mean(np.abs(euler_integrate(sched, traj, den, x1, zeros, 2000) - ref)))
    ratio = e1 / e2
    return _result(
        "euler-convergence",
        1.6 <= ratio <= 2.4,
        f"error ratio (N=1000 vs 2000) = {ratio:.2f}",
        "in [1.6, 2.4]",
    )


def check_restore_determinism() -> CheckResult:
    """Same seed gives identical output; batch equals per-item sequential runs."""
    sched = GvpSchedule(rho=0.4, sigma_d=1.0)
    den = GaussianOracle(rho=0.4)
    traj = Elliptical(phi=sched.phi, delta=0.5)
    cfg = SamplerConfig(trajectory=traj, n_steps=7, eta=0.3, seed=19)
    rng = np.random.default_rng(2)
    x1s = rng.normal(size=(5, 3))
    batch = restore_batch(sched, den, x1s, cfg)
    ok = True
    for i in range(5):
        single = restore(
            sched, den, x1s[i], cfg, rng=np.random.default_rng([cfg.seed, i])
        )
        ok = ok and np.array_equal(single, batch[i])
    again = restore_batch(sched, den, x1s, cfg)
    ok = ok and np.array_equal(batch, again)
    return _result(
        "restore-determinism", ok, "batch == sequential == rerun" if ok else "mismatch",
        "bitwise equality",
    )


def check_checkpoint_roundtrip() -> CheckResult:
    """write -> read -> write produces identical bytes."""
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(4)
    net = MlpDenoiser(dim=2, hidden=8, emb_dim=4, sigma_d=1.0, params={})
    net.reinit(rng)
    ema = {k: v + rng.normal(0.0, 0.01, size=v.shape) for k, v in net.params.items()}
    with tempfile.TemporaryDirectory() as tmp:
        p1 = Path(tmp) / "a.json"
        p2 = Path(tmp) / "b.json"
        save_checkpoint(p1, net, rho=0.7482, ema_params=ema)
        ck = load_checkpoint(p1)
        save_checkpoint(
            p2, ck.net, rho=ck.rho, ema_params=ck.ema_net.params
        )
        same = p1.read_bytes() == p2.read_bytes()
    return _result(
        "checkpoint-roundtrip", same, "bytes identical" if same else "bytes differ",
        "bit-exact round trip",
    )


CHECKS = [
    ("gvp-variance", check_gvp_variance),
    ("boundary-exactness", check_boundary_exactness),
    ("regression-identity", check_regression_identity),
    ("manifold-invariance", check_manifold_invariance),
    ("kappa-limits", check_kappa_limits),
    ("sampler-euler-agreement", check_sampler_euler_agreement),
    ("gaussian-conditional-law", check_gaussian_conditional_law),
    ("gradient-check", check_gradient_correctness),
    ("training-progress", check_training_progress),
    ("sweep-structure", check_sweep_structure),
    ("time-sampler-geometry", check_time_sampler_geometry),
    ("derivative-consistency", check_derivative_consistency),
    ("trajectory-geometry", check_trajectory_geometry),
    ("euler-convergence", check_euler_convergence),
    ("restore-determinism", check_restore_determinism),
    ("checkpoint-roundtrip", check_checkpoint_roundtrip),
]


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run all checks (or those whose name contains `only`), timed."""
    results = []
    for name, fn in CHECKS:
        if only is not None and only not in name:
            continue
        t0 = time.perf_counter()
        res = fn()
        results.append(replace(res, runtime_s=time.perf_counter() - t0))
    return results
