"""Reference restorer written from the paper's update formulas, apart from rgflow.

It reads the EMA weights, rho and sigma_d from a checkpoint JSON file and
restores one degraded point at a time with plain numpy and math.erf:

    x(r, g)  = cos g (alpha(r) x0 + beta(r) x1) + sin g z
    alpha(r) = (cos r / sqrt(1+rho) - sin r / sqrt(1-rho)) / sqrt 2
    beta(r)  = (cos r / sqrt(1+rho) + sin r / sqrt(1-rho)) / sqrt 2
    phi      = arccos(rho) / 2

Regression (delta = 0): x += (alpha(r2) - alpha(r1)) x0hat + (beta(r2) - beta(r1)) x1
on a uniform r grid from phi to -phi.

Elliptical (r = phi sin t, g = delta cos t, t from pi/2 to -pi/2): a boot
step at eta = 1 from (phi, 0) to t = pi/2 - eps, then hybrid steps over the
remaining n - 1 grid intervals with k = sin g2 / sin g1, s = sqrt(1 - eta^2):

    x2 = k^s x + cos g2 (alpha_2 x0hat + beta_2 x1) - k^s cos g1 (alpha_1 x0hat + beta_1 x1) + kappa z
    kappa = eta (sin g2 - k^s sin g1) / (1 - s)      (0 at eta = 0)

Item i draws z from default_rng([seed, i]).normal(0, sigma_d, dim), only on
steps where kappa != 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_ERF = np.vectorize(math.erf)


@dataclass(frozen=True)
class Mode:
    """One restoration preset: path, apex noise, step budget, stochasticity."""

    path: str  # "regression" or "elliptical"
    delta: float
    n_steps: int
    eta: float
    boot_epsilon: float = 1e-3


MODES = {
    "disi-r": Mode("regression", 0.0, 1, 0.0),
    "disi-g": Mode("elliptical", math.pi / 8.0, 10, 0.0),
    "eta05": Mode("elliptical", math.pi / 8.0, 15, 0.5),
}


class ReferenceModel:
    """MLP forward pass and schedule rebuilt from a checkpoint file."""

    def __init__(self, checkpoint_path) -> None:
        with open(checkpoint_path) as fh:
            doc = json.load(fh)
        w = doc["ema_weights"] if "ema_weights" in doc else doc["weights"]
        self.w = {k: np.array(v, dtype=np.float64) for k, v in w.items()}
        self.rho = float(doc["rho"])
        self.sd = float(doc["sigma_d"])
        self.emb_dim = int(doc["emb_dim"])
        self.phi = math.acos(self.rho) / 2.0

    def alpha(self, r: float) -> float:
        return (math.cos(r) / math.sqrt(1 + self.rho) - math.sin(r) / math.sqrt(1 - self.rho)) / math.sqrt(2)

    def beta(self, r: float) -> float:
        return (math.cos(r) / math.sqrt(1 + self.rho) + math.sin(r) / math.sqrt(1 - self.rho)) / math.sqrt(2)

    def _embed(self, t: float) -> list[float]:
        half = self.emb_dim // 2
        freqs = [1.0e4 ** (-2.0 * j / self.emb_dim) for j in range(half)]
        return [math.sin(f * t) for f in freqs] + [math.cos(f * t) for f in freqs]

    def predict(self, x: np.ndarray, x1: np.ndarray, r: float, g: float) -> np.ndarray:
        feats = np.array(list(x / self.sd) + list(x1 / self.sd) + self._embed(r) + self._embed(g))
        h = feats @ self.w["W1"] + self.w["b1"]
        h = 0.5 * h * (1.0 + _ERF(h / math.sqrt(2.0)))
        h = h @ self.w["W2"] + self.w["b2"]
        h = 0.5 * h * (1.0 + _ERF(h / math.sqrt(2.0)))
        return self.sd * (h @ self.w["W3"] + self.w["b3"])

    def restore(self, x1, mode: Mode, seed: int, item: int) -> np.ndarray:
        """Restore one degraded point x1 (shape (dim,)) as item `item`."""
        x1 = np.asarray(x1, dtype=np.float64)
        if mode.path == "regression":
            return self._regression(x1, mode.n_steps)
        return self._elliptical(x1, mode, np.random.default_rng([seed, item]))

    def _regression(self, x1, n):
        x = x1.copy()
        rs = [self.phi * (1.0 - 2.0 * i / n) for i in range(n + 1)]
        rs[0], rs[-1] = self.phi, -self.phi
        for r1, r2 in zip(rs[:-1], rs[1:]):
            x0hat = self.predict(x, x1, r1, 0.0)
            x = x + (self.alpha(r2) - self.alpha(r1)) * x0hat + (self.beta(r2) - self.beta(r1)) * x1
        return x

    def _point(self, t: float, delta: float) -> tuple[float, float]:
        return self.phi * math.sin(t), delta * math.cos(t)

    def _elliptical(self, x1, mode: Mode, rng):
        def draw():
            return rng.normal(0.0, self.sd, size=x1.shape)

        def data_part(r, g, x0hat):
            return math.cos(g) * (self.alpha(r) * x0hat + self.beta(r) * x1)

        n, eta, delta = mode.n_steps, mode.eta, mode.delta
        start = (self.phi, 0.0)
        boot = self._point(math.pi / 2.0 - mode.boot_epsilon, delta)
        x0hat = self.predict(x1, x1, *start)
        x = x1 + data_part(*boot, x0hat) - data_part(*start, x0hat)
        x = x + (math.sin(boot[1]) - math.sin(start[1])) * draw()

        m = n - 1
        ts = [math.pi / 2.0 - math.pi * i / m for i in range(m + 1)]
        pts = [boot] + [self._point(t, delta) for t in ts[1:-1]] + [(-self.phi, 0.0)]
        s = math.sqrt(1.0 - eta * eta)
        for (r1, g1), (r2, g2) in zip(pts[:-1], pts[1:]):
            x0hat = self.predict(x, x1, r1, g1)
            ks = (math.sin(g2) / math.sin(g1)) ** s
            kap = 0.0 if eta == 0.0 else eta * (math.sin(g2) - ks * math.sin(g1)) / (1.0 - s)
            x = ks * x + data_part(r2, g2, x0hat) - ks * data_part(r1, g1, x0hat)
            if kap != 0.0:
                x = x + kap * draw()
        return x
