"""Forward construction of interpolated states from data pairs and noise."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainError
from .schedule import GvpSchedule


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


def forward_state(sched: GvpSchedule, x0, x1, z, r, g) -> np.ndarray:
    """The forward map x(r, g) = cos g (alpha(r) x0 + beta(r) x1) + sin g z.

    r and g are scalars, or per-row arrays for a batch (n, d) that broadcast
    as [:, None].  No domain check; callers that take user times run
    sched.check_domain first.
    """
    r = np.asarray(r, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if r.ndim:
        r, g = r[:, None], g[:, None]
    return np.cos(g) * (sched.alpha(r) * x0 + sched.beta(r) * x1) + np.sin(g) * z


def interpolate(sched: GvpSchedule, x0, x1, z, r: float, g: float) -> np.ndarray:
    """Form x(r, g) = lambda*(alpha*x0 + beta*x1) + gamma*z for one point.

    x0, x1 and z must be 1-D vectors of one shape, and (r, g) in the domain.
    At (-phi, 0) this is x0 and at (phi, 0) it is x1 exactly; at g = pi/2
    the data part vanishes and the state equals z.
    """
    x0, x1, z = _as_vector(x0, "x0"), _as_vector(x1, "x1"), _as_vector(z, "z")
    if not x0.shape == x1.shape == z.shape:
        raise DimensionMismatch(f"x0 {x0.shape}, x1 {x1.shape} and z {z.shape} differ")
    sched.check_domain(r, g)
    return forward_state(sched, x0, x1, z, r, g)


def sample_noise(rng: np.random.Generator, dim: int, sigma_d: float) -> np.ndarray:
    """Draw z ~ N(0, sigma_d^2 I) of the given dimension."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    return rng.normal(0.0, sigma_d, size=dim)


def empirical_variance(
    sched: GvpSchedule,
    dataset,
    r: float,
    g: float,
    n: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the per-coordinate Var(x(r, g)).

    n rows of the ToyDataset `dataset` are resampled with replacement and
    combined with fresh noise, both drawn from `rng` in one pass (the row
    indices, then the noise); the variance is computed per coordinate and
    averaged.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    sched.check_domain(r, g)
    idx = rng.integers(0, len(dataset), size=n)
    z = rng.normal(0.0, sched.sigma_d, size=(n, dataset.x0.shape[1]))
    x = forward_state(sched, dataset.x0[idx], dataset.x1[idx], z, r, g)
    return float(x.var(axis=0).mean())
