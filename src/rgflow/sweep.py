"""Grid sweeps over (delta, eta, NFE) on the elliptical path family.

One row per cell with desk-scale metrics (paired MSE and energy distance to
the clean cloud).  Cells that are not runnable carry the literal string "NA":
the delta = 0 row is pure regression (eta not applicable, emitted once per
NFE), and NFE = 1 with eta < 1 on a path starting at g = 0 is invalid.
For eta > 0 the endpoint law does not converge to the target as NFE grows:
at rho = 0.5 and delta = pi/4 its variance (target 0.75) reads 0.727 at
eta 0 but 0.058 at eta 1 for NFE 100 (figures in the sampler docstring).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, check_seed
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

    A cell whose configuration is rejected reads "NA"; a bad seed, shared by
    every cell, raises ConfigError instead."""
    check_seed(seed)
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    rows: list[dict] = []
    for delta in deltas:
        eta_values = ["NA"] if delta == 0.0 else list(etas)
        for eta in eta_values:
            for nfe in nfes:
                row = {"delta": delta, "eta": eta, "nfe": nfe}
                traj = Elliptical(phi=sched.phi, delta=float(delta))
                cfg_eta = 0.0 if eta == "NA" else float(eta)
                try:
                    cfg = SamplerConfig(
                        trajectory=traj,
                        n_steps=int(nfe),
                        eta=cfg_eta,
                        boot_epsilon=boot_epsilon,
                        seed=seed,
                    )
                    restored = restore_batch(sched, denoiser, x1, cfg)
                except ConfigError:
                    row["mse"] = "NA"
                    row["energy_distance"] = "NA"
                else:
                    row["mse"] = mse(restored, x0)
                    row["energy_distance"] = energy_distance(restored, x0)
                rows.append(row)
    return rows
