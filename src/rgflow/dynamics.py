"""Decoupled velocity fields and a baseline Euler integrator.

The state obeys dx = v_r dr + v_g dg with

    v_g = cot(g) x - csc(g) (alpha(r) x0hat + beta(r) x1)
    v_r = cos(g) (dalpha(r) x0hat + dbeta(r) x1).

v_g is formally singular at g = 0; the Euler reference integrator simply
drops the v_g contribution below a floor g_floor, where its dg-weighted
contribution vanishes on smooth paths.  Euler exists as a cross-validation
oracle for the analytic sampler, not as a user-facing restoration path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularTime
from .sampler import _begin, _bind, _check_phi, _match, _start
from .schedule import _HALF_PI, GvpSchedule
from .trajectory import Trajectory


@dataclass(frozen=True)
class VelocityPair:
    """The two vector fields evaluated at one state."""

    v_r: np.ndarray
    v_g: np.ndarray


def velocity_r(sched: GvpSchedule, x0hat, x1, r: float, g: float) -> np.ndarray:
    """The regression-axis velocity; well-defined for all g including 0."""
    x0hat, x1 = _match(x0hat, x1)
    d = sched.coeff_derivs(r, g)
    return math.cos(g) * (d.dalpha * x0hat + d.dbeta * x1)


def velocities(
    sched: GvpSchedule, x, x0hat, x1, r: float, g: float
) -> VelocityPair:
    """Both velocity fields; raises SingularTime when v_g is requested at g <= 0."""
    x, x0hat, x1 = _match(x, x0hat, x1)
    if g <= 0.0:
        raise SingularTime(f"v_g undefined at g={g} <= 0; use velocity_r there")
    c = sched.coeffs(r, g)
    cot = c.lam / c.gamma
    csc = 1.0 / c.gamma
    v_g = cot * x - csc * (c.alpha * x0hat + c.beta * x1)
    return VelocityPair(v_r=velocity_r(sched, x0hat, x1, r, g), v_g=v_g)


def euler_integrate(
    sched: GvpSchedule,
    traj: Trajectory,
    denoiser,
    x1,
    z,
    n_steps: int,
    g_floor: float = 1e-3,
) -> np.ndarray:
    """First-order reference integration of dx = v_r dr + v_g dg.

    The state starts as the sampler's does (sampler._start), at x1 on a path
    from g = 0, else at cos(g_start)*beta(r_start)*x1 + sin(g_start)*z, and
    is advanced with the denoiser's prediction substituted at each grid
    point; the denoiser is bound to x1 and the grid's times once.
    Steps whose source has g below g_floor, which lies in (0, pi/2), advance
    by v_r alone.  A path whose phi is not the schedule's, a g_floor outside
    that range (DomainError) and an n_steps that traj.discretize rejects are
    raised before any denoiser call.
    """
    x1, z = _match(x1, z)
    _check_phi(sched, traj)
    if not (0.0 < g_floor < _HALF_PI):
        raise DomainError(f"g_floor must lie in (0, pi/2), got {g_floor}")
    grid = traj.discretize(n_steps)
    x = _begin(_start(sched, traj.start_rg), x1, z)
    r, g = grid.r.tolist(), grid.g.tolist()
    predict, _ = _bind(denoiser, x1, tuple(zip(r[:-1], g[:-1])))
    for i in range(len(grid) - 1):
        r_cur, g_cur, r_nxt, g_nxt = r[i], g[i], r[i + 1], g[i + 1]
        x0hat = predict(x, i)
        if g_cur >= g_floor:
            v = velocities(sched, x, x0hat, x1, r_cur, g_cur)
            x = x + v.v_r * (r_nxt - r_cur) + v.v_g * (g_nxt - g_cur)
        else:
            x = x + velocity_r(sched, x0hat, x1, r_cur, g_cur) * (r_nxt - r_cur)
    return x
