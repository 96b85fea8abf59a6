"""Toy datasets (S-curve restoration, correlated Gaussian pairs) and metrics.

Clouds are standardized so each coordinate has mean 0 and standard deviation
sigma_d, which is what the variance-preserving schedule assumes.  The
degradation applied to the S-curve is a fixed shear-and-squash linear map
plus additive noise; its parameters and seed are kept in the dataset
provenance so every experiment is reproducible.  A seed that is not a
non-negative integer is a ConfigError (errors.check_seed).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    InsufficientData,
    check_seed,
    json_field,
    read_json_object,
)
from .schedule import _HALF_PI, check_rho, check_sigma_d


def standardize(cloud: np.ndarray, sigma_d: float = 1.0) -> np.ndarray:
    """Shift/scale each coordinate to mean 0 and std sigma_d."""
    check_sigma_d(sigma_d)
    cloud = np.asarray(cloud, dtype=np.float64)
    mean = cloud.mean(axis=0)
    std = cloud.std(axis=0)
    if np.any(std == 0.0):
        raise DomainError("cannot standardize a coordinate with zero spread")
    return (cloud - mean) / std * sigma_d


@dataclass(frozen=True)
class ToyDataset:
    """Paired clouds plus the statistics the schedule needs.

    Row i of the (n, d) matrices x0 and x1 is the clean/degraded pair i.
    They are stored as read-only copies, so later writes into the arrays
    given are not seen.
    """

    x0: np.ndarray
    x1: np.ndarray
    sigma_d: float
    rho_hat: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        x0 = np.array(self.x0, dtype=np.float64)
        x1 = np.array(self.x1, dtype=np.float64)
        if x0.ndim != 2 or x0.shape != x1.shape or x0.shape[1] < 1:
            raise DimensionMismatch(
                f"x0 {x0.shape} and x1 {x1.shape} must be (n, d) matrices of one "
                "shape with d >= 1"
            )
        if len(x0) == 0:
            raise EmptyDataset("a ToyDataset needs at least one pair")
        x0.flags.writeable = x1.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)

    def __len__(self) -> int:
        return len(self.x0)

    @property
    def dim(self) -> int:
        return self.x0.shape[1]

    # The perfbench harness reads the matrices through these two methods.
    def x0_matrix(self) -> np.ndarray:
        return self.x0

    def x1_matrix(self) -> np.ndarray:
        return self.x1


def _check_spread(**values: float) -> None:
    """DomainError naming the first value that is not finite and >= 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise DomainError(f"{name} must be finite and >= 0, got {value}")


def make_scurve(
    n: int,
    jitter: float = 0.0,
    seed: int = 0,
    sigma_d: float = 1.0,
    standardized: bool = True,
) -> np.ndarray:
    """Standardized 2-D cloud along an S made of two joined half circles.

    The curve runs from (0, 1) around the left half of the upper circle
    (center (0, 1/2), radius 1/2) to the origin, then around the right half
    of the mirrored lower circle to (0, -1); points take independent Gaussian
    jitter before standardization.  `standardized=False` returns the raw
    curve coordinates (used by geometry tests).
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    _check_spread(jitter=jitter)
    rng = np.random.default_rng(check_seed(seed))
    u = rng.uniform(0.0, 1.0, size=n)
    pts = np.empty((n, 2))
    upper = u < 0.5
    # Upper arc swept from (0, 1) to (0, 0).
    theta = _HALF_PI + 2.0 * math.pi * u[upper]
    pts[upper, 0] = 0.5 * np.cos(theta)
    pts[upper, 1] = 0.5 + 0.5 * np.sin(theta)
    # Lower arc swept from (0, 0) to (0, -1).
    theta = _HALF_PI - 2.0 * math.pi * (u[~upper] - 0.5)
    pts[~upper, 0] = 0.5 * np.cos(theta)
    pts[~upper, 1] = -0.5 + 0.5 * np.sin(theta)
    if jitter > 0.0:
        pts += rng.normal(0.0, jitter, size=pts.shape)
    if not standardized:
        return pts
    return standardize(pts, sigma_d)


def degrade(
    clean: np.ndarray,
    strength: float,
    noise: float,
    seed: int,
    sigma_d: float,
) -> np.ndarray:
    """Pointwise degradation: fixed shear-and-squash map plus Gaussian noise.

    The map is S = [[1, strength], [0, 1 - strength/2]]; the output keeps the
    row pairing with `clean` and is re-standardized to sigma_d.
    """
    _check_spread(strength=strength, noise=noise)
    clean = np.asarray(clean, dtype=np.float64)
    if clean.ndim != 2 or clean.shape[1] != 2:
        raise DimensionMismatch(f"shear degradation expects (n, 2), got {clean.shape}")
    rng = np.random.default_rng(check_seed(seed))
    shear = np.array([[1.0, strength], [0.0, 1.0 - strength / 2.0]])
    out = clean @ shear.T
    if noise > 0.0:
        out = out + rng.normal(0.0, noise, size=out.shape)
    if strength == 0.0 and noise == 0.0:
        return out  # identical clouds; downstream rejects rho_hat = 1
    return standardize(out, sigma_d)


def make_scurve_dataset(
    n: int,
    jitter: float = 0.05,
    strength: float = 1.0,
    noise: float = 0.25,
    sigma_d: float = 1.0,
    seed: int = 0,
) -> ToyDataset:
    """Clean S-curve cloud plus its sheared/noised counterpart, paired.

    The defaults are the S-curve task that `rgflow train` and verify's
    training check draw: the degraded cloud is distributionally distinct
    from the clean one (rho_hat ~ 0.63)."""
    clean = make_scurve(n, jitter=jitter, seed=seed, sigma_d=sigma_d)
    degraded = degrade(
        clean, strength=strength, noise=noise, seed=seed + 1, sigma_d=sigma_d
    )
    return ToyDataset(
        clean,
        degraded,
        sigma_d=sigma_d,
        rho_hat=estimate_rho(clean, degraded),
        provenance={
            "kind": "scurve",
            "n": n,
            "jitter": jitter,
            "strength": strength,
            "noise": noise,
            "seed": seed,
        },
    )


def make_gaussian_pairs(
    rho: float, n: int, sigma_d: float = 1.0, seed: int = 0, dim: int = 1
) -> ToyDataset:
    """Pairs with exact population correlation rho per coordinate.

    x0 ~ N(0, sigma_d^2) and x1 = rho*x0 + sqrt(1-rho^2)*u with independent
    u ~ N(0, sigma_d^2), so Var(x1) = sigma_d^2 and corr(x0, x1) = rho.
    """
    check_rho(rho)
    if n < 1 or dim < 1:
        raise DomainError("n and dim must be >= 1")
    check_sigma_d(sigma_d)
    rng = np.random.default_rng(check_seed(seed))
    x0 = rng.normal(0.0, sigma_d, size=(n, dim))
    u = rng.normal(0.0, sigma_d, size=(n, dim))
    x1 = rho * x0 + math.sqrt(1.0 - rho * rho) * u
    return ToyDataset(
        x0,
        x1,
        sigma_d=sigma_d,
        rho_hat=rho,
        provenance={"kind": "gaussian", "rho": rho, "n": n, "dim": dim, "seed": seed},
    )


def estimate_rho(x0, x1) -> float:
    """Per-coordinate Pearson correlation of paired (n, d) matrices, averaged."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise DimensionMismatch(f"paired clouds must match: {x0.shape} vs {x1.shape}")
    if len(x0) < 2:
        raise InsufficientData("estimate_rho needs at least 2 pairs")
    a = x0 - x0.mean(axis=0)
    b = x1 - x1.mean(axis=0)
    denom = np.sqrt((a * a).sum(axis=0) * (b * b).sum(axis=0))
    if np.any(denom == 0.0):
        raise InsufficientData("degenerate coordinate: zero spread")
    return float(((a * b).sum(axis=0) / denom).mean())


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared pointwise gap between two paired clouds."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"paired clouds must match: {a.shape} vs {b.shape}")
    d = a - b
    return float((d * d).sum(axis=-1).mean())


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample energy distance 2 E||A-B|| - E||A-A'|| - E||B-B'||.

    V-statistic over all cross pairs; sizes may differ, dimensions may not.
    """
    # Imported on first use: only sweep and verify measure distances, and
    # loading scipy.spatial at import would slow every CLI start.
    from scipy.spatial.distance import cdist

    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")
    ab = cdist(a, b).mean()
    aa = cdist(a, a).mean()
    bb = cdist(b, b).mean()
    return float(2.0 * ab - aa - bb)


# -- dataset CSV + sidecar ------------------------------------------------------


def save_dataset(ds: ToyDataset, path) -> None:
    """Write pairs as CSV (x0_*, x1_* columns) plus a JSON metadata sidecar."""
    path = Path(path)
    dim = ds.dim
    header = [f"x0_{i + 1}" for i in range(dim)] + [f"x1_{i + 1}" for i in range(dim)]
    write_csv(path, header, np.hstack([ds.x0, ds.x1]).tolist())
    meta = {
        "kind": ds.provenance.get("kind", "unknown"),
        "params": {k: v for k, v in ds.provenance.items() if k not in ("kind", "seed")},
        "seed": ds.provenance.get("seed"),
        "sigma_d": ds.sigma_d,
        "rho_hat": ds.rho_hat,
    }
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True) + "\n")


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def _cell(v) -> str:
    if isinstance(v, float):  # numpy's float64 too; the most common cell first
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return v if isinstance(v, str) else format(float(v), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV: strings as they are, integers as
    integers and every other number in 17 significant digits, so that it
    reads back as the same float."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def read_matrix(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV with an optional header row.

    Returns the header ([] when the first row is already data) and the data
    rows as a float matrix.  Rejects empty and header-only files
    (EmptyDataset), ragged rows (DimensionMismatch), and text that is not
    UTF-8 CSV or cells that are not finite numbers (DomainError).
    """
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # stay glued to the first header name.
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path} is not CSV text: {exc}") from None
    if not rows:
        raise EmptyDataset(f"{path}: no rows")
    header = rows[0]
    try:
        # Headerless file: the first row is already data.
        [float(v) for v in header]
        header = []
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise EmptyDataset(f"{path}: header but no data rows")
    width = len(header) or len(rows[0])
    for row in rows:
        if len(row) != width:
            raise DimensionMismatch(
                f"{path}: row {row} has {len(row)} cells, expected {width}"
            )
    try:
        data = np.asarray([[float(v) for v in row] for row in rows], dtype=np.float64)
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from None
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{path}: non-finite value in input")
    return header, data


def load_dataset(path) -> ToyDataset:
    """Read a dataset CSV written by save_dataset, with the checks of
    read_matrix.  The sidecar is optional; when present it must be a JSON
    object with an object params and numbers sigma_d and rho_hat that pass
    the schedule's check_sigma_d and check_rho (DomainError naming the
    sidecar and the field)."""
    path = Path(path)
    header, data = read_matrix(path)
    n_x0 = sum(1 for name in header if name.startswith("x0_"))
    n_x1 = sum(1 for name in header if name.startswith("x1_"))
    if n_x0 == 0 or n_x0 != n_x1 or n_x0 + n_x1 != len(header):
        raise DomainError(f"unrecognized dataset header {header!r}")
    x0, x1 = data[:, :n_x0], data[:, n_x0:]
    meta_file = sidecar_path(path)
    if meta_file.exists():
        meta = read_json_object(meta_file, f"sidecar {meta_file}", DomainError)
        field_of = partial(json_field, meta, owner=f"sidecar {meta_file}", error=DomainError)
        sigma_d = field_of("sigma_d", float, check=check_sigma_d)
        rho_hat = field_of("rho_hat", float, check=check_rho)
        provenance = {"kind": meta.get("kind"), "seed": meta.get("seed")}
        provenance.update(field_of("params", dict, default={}))
    else:
        sigma_d = float(np.stack([x0, x1]).std(axis=(0, 1)).mean())
        rho_hat = estimate_rho(x0, x1)
        provenance = {"kind": "unknown"}
    return ToyDataset(x0, x1, sigma_d=sigma_d, rho_hat=rho_hat, provenance=provenance)
