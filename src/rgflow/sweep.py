"""Grid sweeps over (delta, eta, NFE) on the elliptical path family.

One row per cell with desk-scale metrics (paired MSE and energy distance to
the clean cloud).  "NA" marks two kinds of cell only: the eta of the delta = 0
row, which is pure regression (eta not read, emitted once per NFE), and the
metrics of NFE = 1 with eta < 1 on a path starting at g = 0, which has no
valid plan.  The lifted NFE = 1 cell runs at eta = 1 only: one boot step
from (phi, 0) straight to the clean end, the regression update, so its
metrics equal the delta = 0 NFE = 1 row's bit for bit.

For eta > 0 the endpoint law does not converge to the target as NFE grows:
at rho = 0.5 and delta = pi/4 its variance (target 0.75) reads 0.727 at
eta 0 but 0.058 at eta 1 for NFE 100 (figures in the sampler docstring).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .sampler import Plan, SamplerConfig, plan, restore_batch
from .schedule import GvpSchedule
from .toydata import energy_distance, mse
from .trajectory import Elliptical

SWEEP_FIELDS = ("delta", "eta", "nfe", "mse", "energy_distance")


def sweep_cells(
    sched: GvpSchedule, deltas=(0.0,), etas=(0.0, 1.0), nfes=(1, 2, 5), seed: int = 0,
    boot_epsilon: float = SamplerConfig.boot_epsilon,
) -> list[tuple[dict, SamplerConfig]]:
    """Each (delta, eta, NFE) cell's row and configuration.  A delta that
    does not lift the path reads eta "NA", once per NFE; all cells share
    `seed`, so the per-item noise streams (hence the boot noise) coincide
    across cells.  Every configuration is built here, so an empty axis or a
    value SamplerConfig or the path rejects (a bad seed, eta outside [0, 1],
    NFE below 1, delta outside [0, pi/2]) raises before any cell runs."""
    if not all(len(axis) for axis in (deltas, etas, nfes)):
        raise ConfigError("a sweep needs at least one delta, one eta and one NFE")
    return [
        ({"delta": delta, "eta": eta, "nfe": nfe},
         SamplerConfig(trajectory=traj, n_steps=int(nfe), eta=0.0 if eta == "NA" else float(eta),
                       boot_epsilon=boot_epsilon, seed=seed))
        for delta, traj in ((d, Elliptical(phi=sched.phi, delta=float(d))) for d in deltas)
        for eta in (etas if traj.lifts else ["NA"])
        for nfe in nfes
    ]


def run_cells(sched: GvpSchedule, denoiser, x0: np.ndarray, x1: np.ndarray, cells) -> list[dict]:
    """The rows of `cells` (from sweep_cells) with the MSE and energy
    distance of each cell's restoration of x1 against x0, or "NA" (see cell_plan)."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    rows: list[dict] = []
    for row, cfg in cells:
        if cell_plan(sched, cfg) is None:
            row["mse"] = row["energy_distance"] = "NA"
        else:
            restored = restore_batch(sched, denoiser, x1, cfg)
            row["mse"], row["energy_distance"] = mse(restored, x0), energy_distance(restored, x0)
        rows.append(row)
    return rows


def cell_plan(sched: GvpSchedule, cfg: SamplerConfig) -> Plan | None:
    """The plan of a cell's configuration, or None for the NA cell (NFE 1
    with eta < 1 on a path starting at g = 0); any other rejection raises."""
    try:
        return plan(sched, cfg)
    except ConfigError:
        if cfg.n_steps > 1 or cfg.eta == 1.0:
            raise  # not the documented NA cell
        return None


def run_sweep(sched: GvpSchedule, denoiser, x0, x1, *grid, **settings) -> list[dict]:
    """Every cell's row: run_cells over sweep_cells(sched, *grid, **settings)."""
    return run_cells(sched, denoiser, x0, x1, sweep_cells(sched, *grid, **settings))
