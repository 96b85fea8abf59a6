"""Grid sweeps over (delta, eta, NFE) on the elliptical path family.

One row per cell with desk-scale metrics (paired MSE and energy distance to
the clean cloud).  "NA" marks two kinds of cell only: the eta of the delta = 0
row, which is pure regression (eta not read, emitted once per NFE), and the
metrics of NFE = 1 with eta < 1 on a path starting at g = 0, which has no
valid plan.  A value that restore rejects (eta outside [0, 1], NFE below 1,
delta outside [0, pi/2]) or an empty axis raises ConfigError or DomainError
before the first cell runs.

For eta > 0 the endpoint law does not converge to the target as NFE grows:
at rho = 0.5 and delta = pi/4 its variance (target 0.75) reads 0.727 at
eta 0 but 0.058 at eta 1 for NFE 100 (figures in the sampler docstring).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .sampler import SamplerConfig, restore_batch
from .schedule import GvpSchedule
from .toydata import energy_distance, mse
from .trajectory import Elliptical

SWEEP_FIELDS = ("delta", "eta", "nfe", "mse", "energy_distance")


def run_sweep(
    sched: GvpSchedule,
    denoiser,
    x0: np.ndarray,
    x1: np.ndarray,
    deltas=(0.0,),
    etas=(0.0, 1.0),
    nfes=(1, 2, 5),
    seed: int = 0,
    boot_epsilon: float = SamplerConfig.boot_epsilon,
) -> list[dict]:
    """Evaluate every (delta, eta, NFE) cell; all cells share cfg.seed so the
    per-item noise streams (hence the boot noise) coincide across cells.

    Every cell's configuration is built before the first cell runs, so an
    empty axis or a value SamplerConfig or the path rejects (a bad seed, eta
    outside [0, 1], NFE below 1, delta outside [0, pi/2]) raises at once.
    Only NFE 1 with eta < 1 on a path starting at g = 0 reads "NA"."""
    if not all(len(axis) for axis in (deltas, etas, nfes)):
        raise ConfigError("a sweep needs at least one delta, one eta and one NFE")
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    cells = [
        ({"delta": delta, "eta": eta, "nfe": nfe},
         SamplerConfig(trajectory=traj, n_steps=int(nfe), eta=0.0 if eta == "NA" else float(eta),
                       boot_epsilon=boot_epsilon, seed=seed))
        for delta, traj in ((d, Elliptical(phi=sched.phi, delta=float(d))) for d in deltas)
        for eta in (etas if traj.lifts else ["NA"])
        for nfe in nfes
    ]
    rows: list[dict] = []
    for row, cfg in cells:
        try:
            restored = restore_batch(sched, denoiser, x1, cfg)
        except ConfigError:
            if cfg.n_steps > 1 or cfg.eta == 1.0:
                raise  # not the documented NA cell
            row["mse"] = row["energy_distance"] = "NA"
        else:
            row["mse"] = mse(restored, x0)
            row["energy_distance"] = energy_distance(restored, x0)
        rows.append(row)
    return rows
