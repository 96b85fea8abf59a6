"""Parametric inference paths t -> (r(t), g(t)) and their discretizations.

Every path runs from a start at r = +phi (the degraded end) to (-phi, 0)
(the clean end).  The peak noise level delta controls how far the path lifts
into the generation axis; delta = 0 degenerates to the pure regression
segment on g = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError
from .schedule import _HALF_PI


@dataclass(frozen=True)
class TimeGrid:
    """Discretized path: arrays ordered from path start to path end."""

    t: np.ndarray
    r: np.ndarray
    g: np.ndarray

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class Trajectory:
    """Base path type; subclasses define the (r, g) map and the t domain.

    The `delta` field of the subclasses that have one is checked here.
    """

    phi: float

    # Overridden as plain class attributes by subclasses.
    t_start = 0.0
    t_end = 1.0
    starts_at_delta = False  # whether every path of the kind starts at (phi, delta)

    def __post_init__(self) -> None:
        if not (0.0 < self.phi <= _HALF_PI):
            raise DomainError(f"phi must lie in (0, pi/2], got {self.phi}")
        delta = getattr(self, "delta", 0.0)
        if not (0.0 <= delta <= _HALF_PI):
            raise DomainError(f"delta must lie in [0, pi/2], got {delta}")

    def _raw_point(self, t):
        raise NotImplementedError

    @property
    def start_rg(self) -> tuple[float, float]:
        """The degraded end (phi, 0), or (phi, delta) for a kind that starts_at_delta."""
        return (self.phi, self.delta if self.starts_at_delta else 0.0)

    @property
    def end_rg(self) -> tuple[float, float]:
        return (-self.phi, 0.0)

    @property
    def lifts(self) -> bool:
        """Whether the path leaves g = 0: False for a Regression and at delta = 0."""
        return getattr(self, "delta", 0.0) != 0.0

    @property
    def starts_noiseless(self) -> bool:
        """True when the path begins at g = 0 and needs a booting step."""
        return self.start_rg[1] == 0.0

    def _check_t(self, t: float) -> None:
        lo, hi = sorted((self.t_start, self.t_end))
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise DomainError(f"t={t} outside [{lo}, {hi}]")

    def point(self, t: float) -> tuple[float, float]:
        """Evaluate (r(t), g(t)); the exact domain endpoints snap to the
        boundary values so downstream code sees g = 0 exactly there."""
        self._check_t(t)
        if t == self.t_start:
            return self.start_rg
        if t == self.t_end:
            return self.end_rg
        r, g = self._raw_point(t)
        return float(r), float(g)

    def discretize(self, n_steps: int) -> TimeGrid:
        """Uniform-in-t grid of n_steps+1 points from path start to end.

        The first and last rows are patched to the exact boundary (r, g) so
        that endpoint identities hold bit-for-bit.
        """
        if n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {n_steps}")
        t = np.linspace(self.t_start, self.t_end, n_steps + 1)
        r, g = self._raw_point(t)
        r = np.asarray(r, dtype=np.float64).copy()
        g = np.asarray(g, dtype=np.float64).copy()
        r[0], g[0] = self.start_rg
        r[-1], g[-1] = self.end_rg
        return TimeGrid(t=t, r=r, g=g)


@dataclass(frozen=True)
class Elliptical(Trajectory):
    """r = phi sin t, g = delta cos t on t in [pi/2, -pi/2] (start to end).

    Satisfies r^2/phi^2 + g^2/delta^2 = 1; models a noise-bridging arc whose
    apex noise is delta.
    """

    delta: float = 0.0
    t_start = _HALF_PI
    t_end = -_HALF_PI

    def _raw_point(self, t):
        return self.phi * np.sin(t), self.delta * np.cos(t)


@dataclass(frozen=True)
class Linear(Trajectory):
    """r = 2 phi t - phi, g = delta t on t in [1, 0] (start to end).

    Satisfies r/(-phi) + g/(delta/2) = 1; starts at (phi, delta), i.e. from a
    noisy version of the degraded point, and decays linearly to the clean end.
    """

    delta: float = 0.0
    t_start = 1.0
    t_end = 0.0
    starts_at_delta = True

    def _raw_point(self, t):
        return 2.0 * self.phi * t - self.phi, self.delta * np.asarray(t, dtype=np.float64)


@dataclass(frozen=True)
class Regression(Trajectory):
    """Pure regression segment: r = phi(1 - 2t), g = 0 on t in [0, 1]."""

    t_start = 0.0
    t_end = 1.0

    def _raw_point(self, t):
        t = np.asarray(t, dtype=np.float64)
        return self.phi * (1.0 - 2.0 * t), np.zeros_like(t)


@dataclass(frozen=True)
class VPath(Trajectory):
    """r = phi t, g = delta (1 - |t|^p) on t in [1, -1] (start to end).

    p (finite, > 0) shapes g's apex at t = 0: a cusp for p < 1, a corner at 1, smooth at 2.
    """

    delta: float = 0.0
    p: float = 1.0
    t_start = 1.0
    t_end = -1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.p < math.inf):
            raise DomainError(f"p must be finite and > 0, got {self.p}")

    def _raw_point(self, t):
        t = np.asarray(t, dtype=np.float64)
        return self.phi * t, self.delta * (1.0 - np.abs(t) ** self.p)


@dataclass(frozen=True)
class QuadBezier(Trajectory):
    """Quadratic Bezier arc through (phi,0), (0,delta), (-phi,0), t in [0, 1].

    Control points give r(t) = phi(1-2t) and g(t) = 2 delta t (1-t): a smooth
    symmetric arc with peak noise delta/2 at the midpoint.
    """

    delta: float = 0.0
    t_start = 0.0
    t_end = 1.0

    def _raw_point(self, t):
        t = np.asarray(t, dtype=np.float64)
        omt = 1.0 - t
        return omt**2 * self.phi - t**2 * self.phi, 2.0 * t * omt * self.delta


TRAJECTORY_KINDS = {
    "elliptical": Elliptical,
    "linear": Linear,
    "regression": Regression,
    "vpath": VPath,
    "bezier": QuadBezier,
}


def make_trajectory(kind: str, phi: float, **params) -> Trajectory:
    """Build a trajectory by name, with `params` set on the class's fields
    (delta for every kind but regression, and p for vpath) and the others
    at their defaults; a parameter the kind lacks is a ConfigError naming it.
    Used by the CLI."""
    try:
        cls = TRAJECTORY_KINDS[kind]
    except KeyError:
        raise DomainError(
            f"unknown trajectory kind {kind!r}; expected one of {sorted(TRAJECTORY_KINDS)}"
        ) from None
    unknown = sorted(params.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"the {kind} path has no parameter {', '.join(unknown)}")
    return cls(phi=phi, **params)
