"""Variance-preserving coefficient schedule over the two time axes.

The interpolated state is

    x(r, g) = lambda(g) * (alpha(r) * x0 + beta(r) * x1) + gamma(g) * z,

with a regression time r in [-phi, phi] mixing the data pair and a
generation time g in [0, pi/2] mixing in noise.  The coefficients

    alpha(r) = (cos r / sqrt(1+rho) - sin r / sqrt(1-rho)) / sqrt(2)
    beta(r)  = (cos r / sqrt(1+rho) + sin r / sqrt(1-rho)) / sqrt(2)
    lambda(g) = cos g,   gamma(g) = sin g

keep Var(x(r, g)) = sigma_d^2 for every (r, g) when x0, x1, z share the
standard deviation sigma_d and corr(x0, x1) = rho.  The half-range phi is
pinned by the boundary conditions alpha(-phi) = 1, beta(-phi) = 0 (and the
mirrored pair at +phi), which solve to phi = arccos(rho) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_HALF_PI = math.pi / 2.0

# Slack for pure float round-off when (r, g) is produced by a trajectory map;
# the domain check itself is strict (raise, never clamp).
_EDGE_TOL = 1e-12


def check_g(g: float) -> None:
    """Raise DomainError unless the generation time g is in [0, pi/2]."""
    if not (-_EDGE_TOL <= g <= _HALF_PI + _EDGE_TOL):
        raise DomainError(f"g={g} outside [0, pi/2]")


def check_sigma_d(sigma_d: float) -> float:
    """sigma_d as a float; DomainError unless it is finite and > 0."""
    value = float(sigma_d)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"sigma_d must be finite and > 0, got {sigma_d}")
    return value


def check_rho(rho: float) -> float:
    """rho as a float; DomainError unless it lies in (-1, 1)."""
    if not abs(rho) < 1.0:
        raise DomainError(f"rho must lie in (-1, 1), got {rho}")
    return float(rho)


@dataclass(frozen=True)
class CoeffSet:
    """Schedule coefficients evaluated at one (r, g) point."""

    alpha: float
    beta: float
    lam: float
    gamma: float


@dataclass(frozen=True)
class CoeffDerivs:
    """d/dr of alpha, beta and d/dg of lambda, gamma at one (r, g) point."""

    dalpha: float
    dbeta: float
    dlambda: float
    dgamma: float


@dataclass(frozen=True)
class GvpSchedule:
    """Immutable coefficient schedule for a data pair with correlation rho.

    Attributes:
        rho: correlation coefficient between x0 and x1, in (-1, 1).
        sigma_d: common standard deviation of x0, x1 and z, > 0.
        phi: regression half-range arccos(rho)/2, derived at construction.
    """

    rho: float
    sigma_d: float
    phi: float = field(init=False)
    # 1/sqrt(1+rho) and 1/sqrt(1-rho), the scales every coefficient uses.
    _a: float = field(init=False, repr=False, compare=False)
    _b: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rho = check_rho(self.rho)
        sigma_d = check_sigma_d(self.sigma_d)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma_d", sigma_d)
        object.__setattr__(self, "phi", math.acos(rho) / 2.0)
        object.__setattr__(self, "_a", 1.0 / math.sqrt(1.0 + rho))
        object.__setattr__(self, "_b", 1.0 / math.sqrt(1.0 - rho))

    # -- domain ------------------------------------------------------------

    def check_domain(self, r: float, g: float) -> None:
        """Raise DomainError unless r is in [-phi, phi] and g in [0, pi/2]."""
        if not (-self.phi - _EDGE_TOL <= r <= self.phi + _EDGE_TOL):
            raise DomainError(f"r={r} outside [-phi, phi] = [{-self.phi}, {self.phi}]")
        check_g(g)

    # -- coefficients --------------------------------------------------------

    def alpha(self, r):
        """Clean-data coefficient alpha(r); accepts scalars or arrays."""
        return (np.cos(r) * self._a - np.sin(r) * self._b) / math.sqrt(2.0)

    def beta(self, r):
        """Degraded-data coefficient beta(r); accepts scalars or arrays."""
        return (np.cos(r) * self._a + np.sin(r) * self._b) / math.sqrt(2.0)

    def dalpha(self, r):
        """d alpha / dr."""
        return (-np.sin(r) * self._a - np.cos(r) * self._b) / math.sqrt(2.0)

    def dbeta(self, r):
        """d beta / dr."""
        return (-np.sin(r) * self._a + np.cos(r) * self._b) / math.sqrt(2.0)

    def coeffs(self, r: float, g: float) -> CoeffSet:
        """Evaluate (alpha, beta, lambda, gamma) at an in-domain (r, g)."""
        self.check_domain(r, g)
        return CoeffSet(
            alpha=float(self.alpha(r)),
            beta=float(self.beta(r)),
            lam=float(np.cos(g)),
            gamma=float(np.sin(g)),
        )

    def coeff_derivs(self, r: float, g: float) -> CoeffDerivs:
        """Evaluate the closed-form coefficient derivatives at (r, g)."""
        self.check_domain(r, g)
        return CoeffDerivs(
            dalpha=float(self.dalpha(r)),
            dbeta=float(self.dbeta(r)),
            dlambda=float(-np.sin(g)),
            dgamma=float(np.cos(g)),
        )


def schedule_grid(sched: GvpSchedule, n: int) -> np.ndarray:
    """Tabulate the schedule on an n x n (r, g) grid.

    Returns an array with rows (r, g, alpha, beta, lambda, gamma, dalpha,
    dbeta), r varying fastest along g blocks; used by the schedule-dump CLI.
    """
    if n < 2:
        raise DomainError(f"grid size must be >= 2, got {n}")
    r = np.linspace(-sched.phi, sched.phi, n)
    g = np.linspace(0.0, _HALF_PI, n)
    rr, gg = np.meshgrid(r, g, indexing="ij")
    rr = rr.ravel()
    gg = gg.ravel()
    cols = [
        rr,
        gg,
        sched.alpha(rr),
        sched.beta(rr),
        np.cos(gg),
        np.sin(gg),
        sched.dalpha(rr),
        sched.dbeta(rr),
    ]
    return np.stack(cols, axis=1)
