"""Analytic hybrid sampler and the restoration loop.

The per-step update from (r1, g1) to (r2, g2), with k = sin(g2)/sin(g1) and
s = sqrt(1 - eta^2), is

    x2 = k^s x1state + cos(g2) (alpha_r2 x0hat + beta_r2 x1)
         - k^s cos(g1) (alpha_r1 x0hat + beta_r1 x1) + kappa z,

    kappa = 1[eta != 0] * eta (sin g2 - k^s sin g1) / (1 - s).

It solves the linear part of the two-time flow exactly and freezes the
denoiser prediction across the step, so large steps stay accurate.  eta
interpolates from fully deterministic (eta = 0, kappa = 0) to fully
stochastic (eta = 1, k^s = 1, kappa = sin g2 - sin g1).

The update is undefined from g1 = 0, where k diverges, except at eta = 1:
there k^0 = 1 and kappa = sin g2 - sin g1 stay finite.  One loop runs every
noisy path, for exactly n_steps denoiser calls, over the start, a boot point
at t_start offset by boot_epsilon (paths that start at g = 0, i.e.
Elliptical, V-path and Bezier, with n_steps > 1), then a uniform grid.  The
step from g = 0 is that eta = 1 update (boot_step), every other step the
hybrid update at the configured eta, and a step draws noise only where its
kappa is nonzero.  So n_steps = 1 from g = 0 is one boot step to the clean
end (kappa = 0, no draw), and eta < 1 is rejected there.  Pure regression
paths use the noiseless update
x2 = x1state + (alpha_r2 - alpha_r1) x0hat + (beta_r2 - beta_r1) x1 instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteOutput, SingularStart
from .schedule import GvpSchedule
from .trajectory import Regression, Trajectory

_HALF_PI = math.pi / 2.0


def kappa(eta: float, g1: float, g2: float) -> float:
    """Noise coefficient of the hybrid step.

    Exactly 0 at eta = 0 and exactly sin(g2) - sin(g1) at eta = 1; computed
    through expm1 in between so the eta -> 0 limit is smooth.  Undefined from
    g1 <= 0 (SingularStart) except at eta = 1, where the k-ratio drops out.
    """
    if not (0.0 <= eta <= 1.0):
        raise ConfigError(f"eta must lie in [0, 1], got {eta}")
    s1, s2 = math.sin(g1), math.sin(g2)
    if eta == 1.0:
        return s2 - s1
    if g1 <= 0.0:
        raise SingularStart(f"kappa undefined from g1={g1} <= 0 unless eta = 1")
    if eta == 0.0:
        return 0.0
    if s2 == 0.0:
        # k = 0 and s > 0, so k^s sin(g1) = 0 and the numerator vanishes.
        return 0.0
    s = math.sqrt((1.0 - eta) * (1.0 + eta))
    one_minus_s = eta * eta / (1.0 + s)
    log_k = math.log(s2) - math.log(s1)
    if one_minus_s == 0.0:
        # eta^2 underflowed; the ratio below tends to log_k as 1 - s -> 0.
        return eta * s2 * log_k
    # eta * s2 * (1 - k^(s-1)) / (1-s), with 1 - e^x = -expm1(x).
    return eta * s2 * (-math.expm1(-one_minus_s * log_k)) / one_minus_s


def _k_pow_s(eta: float, g1: float, g2: float) -> float:
    """k^sqrt(1-eta^2) with the eta = 1 convention k^0 = 1 (also at k = 0)."""
    if eta == 1.0:
        return 1.0
    s1, s2 = math.sin(g1), math.sin(g2)
    if s2 == 0.0:
        return 0.0
    s = math.sqrt((1.0 - eta) * (1.0 + eta))
    return (s2 / s1) ** s


def _match(*arrays) -> tuple[np.ndarray, ...]:
    out = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
    first = out[0].shape
    for a in out[1:]:
        if a.shape != first:
            raise DimensionMismatch(f"shape mismatch: {[a.shape for a in out]}")
    return out


def hybrid_step(
    sched: GvpSchedule,
    x_prev,
    x0hat,
    x1,
    frm: tuple[float, float],
    to: tuple[float, float],
    eta: float,
    z,
) -> np.ndarray:
    """One hybrid update from (r1, g1) to (r2, g2); g1 > 0 unless eta = 1."""
    r1, g1 = frm
    r2, g2 = to
    # kappa first: it rejects eta outside [0, 1] and g1 <= 0 below eta = 1.
    kap = kappa(eta, g1, g2)
    x_prev, x0hat, x1, z = _match(x_prev, x0hat, x1, z)
    c1 = sched.coeffs(r1, g1)
    c2 = sched.coeffs(r2, g2)
    ks = _k_pow_s(eta, g1, g2)
    return (
        ks * x_prev
        + c2.lam * (c2.alpha * x0hat + c2.beta * x1)
        - ks * c1.lam * (c1.alpha * x0hat + c1.beta * x1)
        + kap * z
    )


def boot_step(
    sched: GvpSchedule,
    x_prev,
    x0hat,
    x1,
    frm: tuple[float, float],
    to: tuple[float, float],
    z,
) -> np.ndarray:
    """The booting step: the fully stochastic (eta = 1) hybrid update.

    At eta = 1 the k-ratio drops out (k^0 = 1) and the noise coefficient is
    sin(g2) - sin(g1), so the step stays defined from g1 = 0.
    """
    return hybrid_step(sched, x_prev, x0hat, x1, frm, to, 1.0, z)


def regression_step(
    sched: GvpSchedule, x_prev, x0hat, x1, r1: float, r2: float
) -> np.ndarray:
    """Noiseless update along g = 0."""
    x_prev, x0hat, x1 = _match(x_prev, x0hat, x1)
    a1, a2 = sched.alpha(r1), sched.alpha(r2)
    b1, b2 = sched.beta(r1), sched.beta(r2)
    return x_prev + (a2 - a1) * x0hat + (b2 - b1) * x1


@dataclass(frozen=True)
class SamplerConfig:
    """Inference knobs: path, step budget, stochasticity, boot offset, seed."""

    trajectory: Trajectory
    n_steps: int = 10
    eta: float = 0.0
    boot_epsilon: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if not (0.0 < self.boot_epsilon < _HALF_PI):
            raise ConfigError(
                f"boot_epsilon must lie in (0, pi/2), got {self.boot_epsilon}"
            )


def _list_source(noise: Iterable[np.ndarray]) -> Callable[[], np.ndarray]:
    items = [np.asarray(a, dtype=np.float64) for a in noise]
    it = iter(items)

    def draw() -> np.ndarray:
        z = next(it, None)
        if z is None:
            raise ConfigError(f"noise override exhausted at draw {len(items)}")
        return z

    return draw


def _is_regressive(traj: Trajectory) -> bool:
    return isinstance(traj, Regression) or getattr(traj, "delta", None) == 0.0


def _run_regression(sched, denoiser, x1, n_steps) -> np.ndarray:
    grid = Regression(phi=sched.phi).discretize(n_steps)
    x = np.array(x1, dtype=np.float64, copy=True)
    for i in range(len(grid) - 1):
        r_cur, r_nxt = float(grid.r[i]), float(grid.r[i + 1])
        x0hat = denoiser.predict(x, x1, r_cur, 0.0)
        x = regression_step(sched, x, x0hat, x1, r_cur, r_nxt)
    return x


def _points(cfg: SamplerConfig) -> list[tuple[float, float]]:
    """The n_steps + 1 (r, g) points a run visits: the path start, the boot
    point when the path starts at g = 0 and n_steps > 1, then the uniform
    grid over the rest of the budget."""
    traj = cfg.trajectory
    boot = traj.starts_noiseless and cfg.n_steps > 1
    if traj.starts_noiseless and not boot and cfg.eta != 1.0:
        raise ConfigError("a path starting at g=0 with n_steps=1 requires eta=1")
    grid = traj.discretize(cfg.n_steps - boot)
    points = [(float(r), float(g)) for r, g in zip(grid.r, grid.g)]
    if boot:
        direction = 1.0 if traj.t_end > traj.t_start else -1.0
        points.insert(1, traj.point(traj.t_start + direction * cfg.boot_epsilon))
    return points


def _run_noisy(sched, denoiser, x1, cfg, draw) -> np.ndarray:
    points = _points(cfg)
    r0, g0 = points[0]
    if g0 == 0.0:
        x = np.array(x1, dtype=np.float64, copy=True)
    else:
        c0 = sched.coeffs(r0, g0)
        x = c0.lam * c0.beta * x1 + c0.gamma * draw()
    for frm, to in zip(points[:-1], points[1:]):
        boot = frm[1] == 0.0
        x0hat = denoiser.predict(x, x1, *frm)
        kap = kappa(1.0 if boot else cfg.eta, frm[1], to[1])
        z = draw() if kap != 0.0 else np.zeros_like(x)
        if boot:
            x = boot_step(sched, x, x0hat, x1, frm, to, z)
        else:
            x = hybrid_step(sched, x, x0hat, x1, frm, to, cfg.eta, z)
    return x


def _finite(x: np.ndarray) -> np.ndarray:
    """Return a restoration result, or raise NonFiniteOutput if it holds NaN
    or inf."""
    if not np.isfinite(x).all():
        rows = np.atleast_2d(x)
        bad = int((~np.isfinite(rows)).any(axis=1).sum())
        raise NonFiniteOutput(
            f"restoration produced non-finite values in {bad} of {len(rows)} rows"
        )
    return x


def restore(
    sched: GvpSchedule,
    denoiser,
    x1,
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
    noise: Iterable[np.ndarray] | None = None,
) -> np.ndarray:
    """Run the restoration loop for one degraded point.

    Stochastic draws come from `rng` (defaulting to a generator seeded with
    cfg.seed) unless an explicit `noise` sequence is supplied; draws are
    consumed in step order: one for a start at g > 0, then one per step whose
    noise coefficient is nonzero.  So eta = 0 runs depend on at most one draw
    regardless of n_steps, and n_steps = 1 from g = 0 (one boot step to the
    clean end, kappa = 0) draws none.  Regression paths draw nothing and
    build no generator.  A result holding NaN or inf raises NonFiniteOutput.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    if _is_regressive(cfg.trajectory):
        return _finite(_run_regression(sched, denoiser, x1, cfg.n_steps))
    if noise is not None:
        draw = _list_source(noise)
    else:
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        draw = partial(rng.normal, 0.0, sched.sigma_d, x1.shape)
    return _finite(_run_noisy(sched, denoiser, x1, cfg, draw))


def restore_batch(
    sched: GvpSchedule,
    denoiser,
    x1_batch,
    cfg: SamplerConfig,
    item_offset: int = 0,
) -> np.ndarray:
    """Restore a batch of degraded points with per-item noise streams.

    Item i draws from default_rng([cfg.seed, item_offset + i]), exactly the
    stream a sequential restore(..., rng=default_rng([cfg.seed, i])) would
    consume, so the result is independent of batching, chunking, or
    scheduling order.  The generators are built on the first draw, so a run
    that draws nothing (a regression path, or one boot step with kappa = 0)
    builds none.  A result holding NaN or inf raises NonFiniteOutput.
    """
    x1_batch = np.atleast_2d(np.asarray(x1_batch, dtype=np.float64))
    if _is_regressive(cfg.trajectory):
        return _finite(_run_regression(sched, denoiser, x1_batch, cfg.n_steps))
    n_items, dim = x1_batch.shape
    rngs = []

    def draw() -> np.ndarray:
        if not rngs:
            rngs.extend(
                np.random.default_rng([cfg.seed, item_offset + i])
                for i in range(n_items)
            )
        return np.stack([r.normal(0.0, sched.sigma_d, size=dim) for r in rngs])

    return _finite(_run_noisy(sched, denoiser, x1_batch, cfg, draw))
