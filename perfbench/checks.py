"""Correctness checks on rgflow's outputs, each failing loudly on a wrong one.

Every check raises CheckFailed with a one-line reason and returns None when
the output is right; the tests feed each one a deliberately wrong output.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

# Agreement between rgflow and the reference restorer, and between a one-point
# restore and its batch row: round-off over a 15-step MLP-driven loop.
ROUND_OFF = 1e-9


class CheckFailed(Exception):
    """An rgflow output is wrong."""


def finite(name: str, arr) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{name}: output is empty or not finite")


def close(name: str, got, want, tol: float = ROUND_OFF) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != {want.shape}")
    gap = float(np.max(np.abs(got - want), initial=0.0))
    if not gap <= tol:
        raise CheckFailed(f"{name}: max gap {gap:.3g} > {tol:.0e}")


def identical(name: str, got, want) -> None:
    """Bitwise equality of arrays, or of bytes."""
    if isinstance(want, bytes):
        same = got == want
    else:
        same = np.array_equal(np.asarray(got), np.asarray(want))
    if not same:
        raise CheckFailed(f"{name}: rerun differs from the first run")


def mean_sq(a, b) -> float:
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float((d * d).sum(axis=1).mean())


def energy(a, b) -> float:
    """Two-sample energy distance 2 E|A-B| - E|A-A'| - E|B-B'| (V-statistic)."""
    return float(2.0 * cdist(a, b).mean() - cdist(a, a).mean() - cdist(b, b).mean())


def beats_identity_mse(name: str, restored, x0, x1) -> None:
    got, base = mean_sq(restored, x0), mean_sq(x1, x0)
    if not got < base:
        raise CheckFailed(f"{name}: MSE {got:.4f} not below identity {base:.4f}")


def beats_identity_energy(name: str, restored, x0, x1) -> None:
    got, base = energy(restored, x0), energy(x1, x0)
    if not got < base:
        raise CheckFailed(f"{name}: energy distance {got:.4f} not below identity {base:.4f}")


def loss_trace(name: str, trace) -> None:
    """Finite trace whose last 100 steps average below half the first 100."""
    trace = np.asarray(trace, dtype=np.float64)
    finite(name, trace)
    head, tail = float(trace[:100].mean()), float(trace[-100:].mean())
    if not tail < 0.5 * head:
        raise CheckFailed(f"{name}: tail loss {tail:.4f} not below half the head {head:.4f}")


def rejected(name: str, code: int, stderr: str, out_text: str | None) -> None:
    """Malformed input: exit 2 or 3, a one-line error message, no bad output."""
    lines = [ln for ln in stderr.splitlines() if ln.strip() and not ln.startswith("import time:")]
    if code not in (2, 3):
        raise CheckFailed(f"{name}: exit {code}, expected 2 or 3")
    if len(lines) != 1 or not (lines[0].startswith("error:") or lines[0].startswith("i/o error:")):
        raise CheckFailed(f"{name}: stderr is not one error line: {lines[-1:]!r}")
    if out_text is not None and ("nan" in out_text.lower() or "inf" in out_text.lower()):
        raise CheckFailed(f"{name}: non-finite values written")
