"""Clean-point predictors behind the contract x0hat = sigma_d * F(x/sigma_d, x1, r, g).

Three interchangeable implementations:

* CheatDenoiser  -- returns the true x0; an exactness oracle for sampler tests.
* GaussianOracle -- the exact conditional mean E[x0 | x(r,g), x1] for jointly
  Gaussian per-coordinate pairs; the minimum-MSE reference every trained
  denoiser chases.
* MlpDenoiser    -- a small trainable MLP over [x/sigma_d ; x1/sigma_d ;
  embed(r) ; embed(g)] with manual forward/backward passes.

Each predict takes a single vector (d,) or a batch (n, d) and returns x0hat
in the state's shape, as float64.  Results are deterministic: the same
inputs and weights give the same bytes at one BLAS thread count and BLAS
kernel (OpenBLAS picks its kernel per CPU), and MlpDenoiser.bind's step
predictor equals predict bit for bit.  Shapes that do not line up raise
DimensionMismatch, and arguments outside their domain DomainError.

The MLP's GELU runs as z * Phi(z) with scipy's ndtr in training's passes and
for a vector or one row, and through scipy's erf, with its 1/sqrt 2 input
scale folded into the weights, for two or more rows; the two agree to
~1e-13, so a row of a larger batch rounds otherwise than the same row alone.

load_checkpoint returns nets of read-only tensors, so a loaded model cannot
be changed by an in-place write, and its bind reuses the first-layer rows of
each time grid it has bound before.  Nets holding writable tensors (every net
training returns) recompute them at each bind, so in-place updates are seen.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, DomainError, json_field, read_json_object
from .schedule import GvpSchedule, check_rho, check_sigma_d

_EMB_BASE = 1.0e4
_F64 = np.dtype(np.float64)
_C = 1.0 / math.sqrt(2.0)  # the erf GELU's input scale; see MlpDenoiser._step_predictor


@lru_cache(maxsize=None)
def _frequencies(emb_dim: int) -> np.ndarray:
    """time_embed's read-only frequency vector for one emb_dim, checked
    once per emb_dim."""
    _check_sizes(emb_dim)
    omega = _EMB_BASE ** (-2.0 * np.arange(emb_dim // 2) / emb_dim)
    omega.flags.writeable = False
    return omega


def time_embed(t, emb_dim: int) -> np.ndarray:
    """Sinusoidal features of a time scalar (or batch of scalars).

    Frequencies omega_j = base^(-2j/emb_dim), base 1e4, j = 0..emb_dim/2-1;
    output is [sin(omega_j t)..., cos(omega_j t)...].
    """
    omega = _frequencies(emb_dim)
    phase = np.asarray(t, dtype=np.float64)[..., None] * omega
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


def _time_pairs(t: np.ndarray, emb_dim: int) -> np.ndarray:
    """[embed(r), embed(g)] for the (r, g) pairs along t's last axis, from
    one time_embed call: shape t.shape[:-1] + (2 emb_dim,)."""
    return time_embed(t, emb_dim).reshape(*t.shape[:-1], 2 * emb_dim)


# The sampler binds over the grid of a cached plan, so a grid recurs, and the
# caches keyed by one hold _GRIDS entries, as the plan cache (sampler._plan)
# does.  The embedding rows of a grid hold no weights, so they are cached here
# for every net.  The first-layer rows computed from them and a net's W1 and
# b1 are cached per net, and only while those tensors are immutable
# (MlpDenoiser._first_rows).  Threads may bind one net at once: a lookup
# needs no lock, and _ROWS_LOCK keeps a net's store within _GRIDS entries.
_GRIDS = 256
_ROWS_LOCK = threading.Lock()


@lru_cache(maxsize=_GRIDS)
def _grid_rows(times: tuple, emb_dim: int) -> np.ndarray:
    """_time_pairs of a time grid, a tuple of scalar (r, g) pairs, as one
    read-only (k, 1, 2 emb_dim) block."""
    block = _time_pairs(np.array(times, dtype=np.float64), emb_dim)
    block = block.reshape(len(times), 1, 2 * emb_dim)
    block.flags.writeable = False
    return block


class CheatDenoiser:
    """Returns the stored true x0 regardless of the queried state.

    Batch-coupled: row i of a batch query gets row i of the stored x0, so it
    must be queried with the shape it was built for, never a slice of it.
    """

    def __init__(self, x0) -> None:
        self.x0 = np.asarray(x0, dtype=np.float64)

    def predict(self, x, x1, r, g) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.x0.shape != x.shape:
            raise DimensionMismatch(
                f"stored x0 {self.x0.shape} does not fit the queried batch {x.shape}"
            )
        return self.x0.copy()


class GaussianOracle:
    """Exact per-coordinate posterior mean for standardized Gaussian pairs.

    With m = rho*x1, s^2 = (1-rho^2) sigma_d^2, the state decomposes into the
    known part lambda*beta*x1 plus a*x0 + gamma*z with a = lambda*alpha, so

        x0hat = m + a s^2 / (a^2 s^2 + gamma^2 sigma_d^2) * (y - a m),
        y = x - lambda*beta*x1.

    At the degenerate corner (r = phi, g = 0) the state carries no
    information about x0 and the prior mean m is returned.
    """

    def __init__(self, rho: float, sigma_d: float = 1.0) -> None:
        self.sched = GvpSchedule(rho=rho, sigma_d=sigma_d)

    def predict(self, x, x1, r, g) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        x1 = np.asarray(x1, dtype=np.float64)
        if x.shape != x1.shape:
            raise DimensionMismatch(f"x {x.shape} vs x1 {x1.shape}")
        c = self.sched.coeffs(float(r), float(g))
        rho, sd = self.sched.rho, self.sched.sigma_d
        m = rho * x1
        s2 = (1.0 - rho * rho) * sd * sd
        a = c.lam * c.alpha
        # The exact-math denominator vanishes only at the corner (phi, 0),
        # where the state is x1 itself and carries nothing about x0.  In
        # floats alpha(phi) leaves an O(1e-16) residue, so test against a
        # tolerance rather than zero to keep the gain from exploding.
        if abs(a) <= 1e-12 and c.gamma <= 1e-12:
            return m
        y = x - c.lam * c.beta * x1
        denom = a * a * s2 + c.gamma * c.gamma * sd * sd
        return m + (a * s2 / denom) * (y - a * m)


_UFUNCS = "scipy.special._special_ufuncs"


@lru_cache(maxsize=None)
def _special():
    """scipy's special-function ufuncs: a module whose `ndtr`, `erf` and
    `expit` are the objects `scipy.special.ndtr`, `scipy.special.erf` and
    `scipy.special.expit` are.

    All three live in the compiled scipy.special._special_ufuncs, loaded from
    its file in ~1 ms, running no scipy __init__ (the package takes ~250 ms),
    and registered by setdefault: concurrent first calls all return one
    module, and a later `import scipy.special` reuses it (that package then
    lacks a _special_ufuncs attribute).  If it is missing, fails to load or
    lacks one of the three (older scipy), the package is imported.
    """
    module = sys.modules.get(_UFUNCS)
    if module is None:
        try:
            package = importlib.util.find_spec("scipy")
            dirs = [os.path.join(p, "special") for p in package.submodule_search_locations]
            spec = importlib.machinery.PathFinder.find_spec(_UFUNCS, dirs)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except Exception:
            module = None  # the package import below raises any fault of its own
    if all(hasattr(module, name) for name in ("ndtr", "erf", "expit")):
        return sys.modules.setdefault(_UFUNCS, module)
    return importlib.import_module("scipy.special")


@lru_cache(maxsize=None)
def _ndtr():
    """scipy's ndtr, Phi(z), for the GELU z * Phi(z) of training's passes and
    of a step predictor over a vector or one row, from _special() on first
    use rather than with this module.  Each forward pass and each such bind
    looks ndtr up once, never per block."""
    return _special().ndtr


@lru_cache(maxsize=None)
def _erf():
    """scipy's erf, for the GELU of a step predictor over two or more rows
    (see MlpDenoiser._step_predictor), from _special() on first use.  Each
    such bind looks erf up once, never per block."""
    return _special().erf


def _gelu_grad(z: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU'(z) = Phi(z) + z phi(z), given cdf = Phi(z) from the forward pass."""
    return cdf + z * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _dense_forward(params: dict, layers, feats: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Dense stack over params[W], params[b] for each (W, b) name pair in
    `layers`, with GELU z * Phi(z) between layers and a linear last layer.

    Returns the output and the cache _dense_backward needs: every layer's
    input, every hidden pre-activation z and its Phi(z).
    """
    ndtr = _ndtr()
    w_key, b_key = layers[0]
    z = feats @ params[w_key] + params[b_key]
    inputs, pre, cdfs = [feats], [], []
    for w_key, b_key in layers[1:]:
        cdf = ndtr(z)
        pre.append(z)
        cdfs.append(cdf)
        h = z * cdf
        inputs.append(h)
        z = h @ params[w_key] + params[b_key]
    return z, (inputs, pre, cdfs)


def _dense_backward(
    params: dict, layers, cache: tuple, d_out: np.ndarray, out: dict | None = None
) -> dict:
    """Gradients of sum(d_out * _dense_forward output) for every parameter,
    in a new dict, or written into the arrays of `out` (returned)."""
    inputs, pre, cdfs = cache
    grads = {} if out is None else out
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        w_key, b_key = layers[i]
        grads[w_key] = np.matmul(inputs[i].T, d, out=grads.get(w_key))
        grads[b_key] = d.sum(axis=0, out=grads.get(b_key))
        if i:
            d = (d @ params[w_key].T) * _gelu_grad(pre[i - 1], cdfs[i - 1])
    return grads


_LAYERS = (("W1", "b1"), ("W2", "b2"), ("W3", "b3"))


def _check_sizes(emb_dim: int, hidden: int = 1) -> None:
    """DomainError unless hidden >= 1 and emb_dim is even and >= 2."""
    if hidden < 1:
        raise DomainError(f"hidden must be >= 1, got {hidden}")
    if emb_dim % 2 != 0 or emb_dim < 2:
        raise DomainError(f"emb_dim must be even and >= 2, got {emb_dim}")


# Rows per block of a step predictor: at hidden 128 a block's hidden
# activations take 256 KB each and stay in a core's L2 cache, where a whole
# 2000-row batch's do not.  numpy's gemm rounds a row alike whatever rows
# surround it, so running a batch in blocks gives its whole-batch output bit
# for bit.  A one-row batch goes through gemv, as a 1-D state does, and
# rounds otherwise, hence no block of one row (unless the batch is one row).
_BLOCK_ROWS = 256


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an n-row batch, cut at multiples of _BLOCK_ROWS, a
    one-row remainder joining the block before it."""
    stops = list(range(_BLOCK_ROWS, n, _BLOCK_ROWS))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return [slice(a, b) for a, b in zip([0, *stops], [*stops, n])]


def _immutable(a) -> bool:
    """Whether a is a read-only ndarray that owns its data, so that nothing
    writes into it short of setting its writeable flag back."""
    return isinstance(a, np.ndarray) and not a.flags.writeable and a.flags.owndata


@dataclass
class MlpDenoiser:
    """Two-hidden-layer MLP predictor with joint sinusoidal time features.

    Input layout: [x/sigma_d ; x1/sigma_d ; embed(r) ; embed(g)], width
    2*dim + 2*emb_dim.  The output projection starts at zero so a fresh net
    predicts exactly 0 everywhere.
    """

    dim: int
    hidden: int = 128
    emb_dim: int = 32
    sigma_d: float = 1.0
    params: dict | None = None
    # times -> (W1, b1, first-layer rows); see _first_rows.
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        _check_sizes(self.emb_dim, self.hidden)
        check_sigma_d(self.sigma_d)
        if self.params is None:
            self.reinit(np.random.default_rng(0))

    @property
    def input_dim(self) -> int:
        return 2 * self.dim + 2 * self.emb_dim

    @property
    def widths(self) -> list[int]:
        return [self.input_dim, self.hidden, self.hidden, self.dim]

    def reinit(self, rng: np.random.Generator) -> None:
        """Redraw hidden-layer weights; output projection stays at zero."""
        d_in, h = self.input_dim, self.hidden
        self.params = {
            "W1": rng.normal(0.0, math.sqrt(2.0 / d_in), size=(d_in, h)),
            "b1": np.zeros(h),
            "W2": rng.normal(0.0, math.sqrt(2.0 / h), size=(h, h)),
            "b2": np.zeros(h),
            "W3": np.zeros((h, self.dim)),
            "b3": np.zeros(self.dim),
        }

    # -- forward -------------------------------------------------------------

    def features(self, x, x1, r, g) -> np.ndarray:
        """Assemble the normalized input block for a batch (n, d), as
        training feeds it to forward_batch.  r and g are scalars or one
        value per row."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
        if x.shape != x1.shape or x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionMismatch(
                f"x {x.shape} / x1 {x1.shape} incompatible with dim={self.dim}"
            )
        n, d = x.shape[0], self.dim
        feats = np.empty((n, self.input_dim))
        np.divide(x, self.sigma_d, out=feats[:, :d])
        np.divide(x1, self.sigma_d, out=feats[:, d : 2 * d])
        feats[:, 2 * d :] = _time_pairs(np.stack(np.broadcast_arrays(r, g), axis=-1), self.emb_dim)
        return feats

    def _as_x1(self, x1) -> np.ndarray:
        """x1 as float64, a vector (dim,) or rows (n, dim); DimensionMismatch
        for any other shape."""
        x1 = np.asarray(x1, dtype=np.float64)
        if x1.ndim not in (1, 2) or x1.shape[-1] != self.dim:
            raise DimensionMismatch(f"x1 {x1.shape} incompatible with dim={self.dim}")
        return x1

    def bind(self, x1, times):
        """Step predictor of one restoration from x1 over `times`, a
        sequence of scalar (r, g) pairs.

        The returned f(x, i) equals predict(x, x1, *times[i]) for a state x
        shaped like x1.  bind checks x1's width (DimensionMismatch) at once.
        The weights are read when bind is called, so update params between
        runs.  The first layer's rows of the grid are kept on the net while
        params["W1"] and params["b1"] are read-only arrays that own their
        data, as load_checkpoint gives them, and reused by each later bind
        over that grid while params holds those same two arrays; writable
        weights are read afresh at every bind (see _first_rows).

        When predict has been replaced (a subclass override, or a wrapper
        set on the class or the instance), bind returns None after checking
        x1, and the sampler calls that predict at every step, so the
        replacement sees every call.
        """
        x1 = self._as_x1(x1)
        if getattr(self.predict, "__func__", None) is not MlpDenoiser._predict:
            return None
        return self._step_predictor(x1, self._first_rows(tuple(times), keep=True))

    def _first_rows(self, times: tuple, keep: bool) -> np.ndarray:
        """The first layer's rows of the points of `times`,
        [embed(r), embed(g)] @ W1_t + b1, read-only, shape (k, hidden).

        They are a stack of one-row products (gemv), each rounding as a lone
        row or a 1-D state's product would; a 2-D gemm over the grid would be
        cheaper but round otherwise.  With `keep`, and while W1 and b1 are
        _immutable, the stack is kept per grid (at most _GRIDS grids) and
        returned again for as long as params holds those same two array
        objects.
        """
        p = self.params
        w1, b1 = p["W1"], p["b1"]
        keep = keep and _immutable(w1) and _immutable(b1)
        if keep:
            entry = self._rows.get(times)
            if entry is not None and entry[0] is w1 and entry[1] is b1:
                return entry[2]
        out = (_grid_rows(times, self.emb_dim) @ w1[2 * self.dim :] + b1)[:, 0]
        out.flags.writeable = False
        if keep:
            with _ROWS_LOCK:
                if len(self._rows) >= _GRIDS:
                    self._rows.clear()
                self._rows[times] = (w1, b1, out)
        return out

    def _step_predictor(self, x1: np.ndarray, biases: np.ndarray):
        """f(x, i): x0hat at state x and the point of biases[i], the first
        layer's rows (_first_rows) of a time grid, for x shaped like x1.

        One inference-only pass per step keeps nothing for a backward pass.
        A 1-D state runs as a vector, each product a gemv, with no reshape to
        a one-row batch; a batch's rows run in the blocks of _row_blocks, so
        that its activations stay cache-sized.

        The GELU takes one of two kernels, chosen from x1's shape.  A vector
        or a one-row batch runs z = z * Phi(z) with ndtr, as training does,
        so that a one-point restore equals its one-row batch bit for bit.
        Two or more rows run GELU(z) = z (1 + erf(z / sqrt 2)) / 2 on
        pre-activations scaled by C = 1/sqrt 2, with every scale folded into
        the weights at bind time: for z' = C z the layer's output is
        C z' (1 + erf(z')), so C goes into W1's x, x1 and time blocks, C into
        b2, C^2 = 1/2 into W2 (exact) and C into W3.  One erf, a `+ 1` and a
        product per layer beat ndtr on a block; on a 128-wide vector the
        extra `+ 1` call costs more than erf saves.  The two kernels agree
        to ~1e-13, not bit for bit.
        """
        d, sd, p = self.dim, self.sigma_d, self.params
        w1 = p["W1"]
        w1_x, w1_x1 = w1[:d], w1[d : 2 * d]
        hidden = [(p[w_key], p[b_key]) for w_key, b_key in _LAYERS[1:]]
        # W1 splits along the input blocks, W1 = [W1_x ; W1_x1 ; W1_t].  Only
        # x changes within a run, so the x1 block is computed here, once, and
        # the time block comes in `biases`.
        # x / 1.0 and z * 1.0 are exact, so a unit sigma_d (the default of
        # `rgflow train` and of every perfbench workload) skips them.
        unit = sd == 1.0
        # np.dot dispatches fastest on a vector, while on a batch matmul forms
        # the x and x1 products, whose inner width is dim, faster (~10 against
        # ~15 us for 256 rows at dim 2, hidden 128); both give the same bits.
        narrow = np.dot if x1.ndim == 1 else np.matmul
        erf = ndtr = None
        if x1.ndim == 2 and len(x1) > 1:
            erf = _erf()
            w1_x, w1_x1, biases = w1_x * _C, w1_x1 * _C, biases * _C
            hidden = [(p["W2"] * 0.5, p["b2"] * _C), (p["W3"] * _C, p["b3"])]
        else:
            ndtr = _ndtr()
        x1_part = narrow(x1 if unit else x1 / sd, w1_x1)
        # x1 fixes the state's layout, so a step checks only x's type and shape.
        shape = x1.shape
        blocks = _row_blocks(len(x1)) if x1.ndim == 2 and len(x1) > _BLOCK_ROWS + 1 else None

        def block(x, x1_term, bias):
            z = narrow(x if unit else x / sd, w1_x)
            z += x1_term
            z += bias
            for w, b in hidden:
                if erf is None:
                    z *= ndtr(z)
                else:
                    e = erf(z)
                    e += 1.0
                    z *= e
                z = np.dot(z, w)
                z += b
            if not unit:
                z *= sd
            return z

        def step(x, i: int) -> np.ndarray:
            if type(x) is not np.ndarray or x.dtype is not _F64:
                x = np.asarray(x, dtype=np.float64)
            if x.shape != shape:
                raise DimensionMismatch(f"x {x.shape} / x1 {shape} incompatible with dim={d}")
            bias = biases[i]
            if blocks is None:
                return block(x, x1_part, bias)
            out = np.empty(shape)
            for s in blocks:
                out[s] = block(x[s], x1_part[s], bias)
            return out

        return step

    def predict(self, x, x1, r, g) -> np.ndarray:
        """x0hat at state x: bind's one-step case, at one scalar (r, g).
        Times given per row are a DimensionMismatch; per-row inference is
        forward_batch(features(x, x1, r, g)), as training runs it."""
        if np.ndim(r) or np.ndim(g):
            raise DimensionMismatch(
                f"predict takes one scalar (r, g), got shapes {np.shape(r)} and {np.shape(g)}"
            )
        x1 = self._as_x1(x1)
        biases = self._first_rows(((float(r), float(g)),), keep=False)
        return self._step_predictor(x1, biases)(x, 0)

    _predict = predict  # the predict that bind's own step predictor equals

    # -- backward ------------------------------------------------------------

    def forward_batch(self, feats: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Core map on pre-built features, without the sigma_d rescale."""
        return _dense_forward(self.params, _LAYERS, feats)

    def backward_batch(self, cache: tuple, d_out: np.ndarray, out: dict | None = None) -> dict:
        """Gradients of sum(d_out * core_output) for every parameter, in a
        new dict or written into `out`'s arrays, as _dense_backward."""
        return _dense_backward(self.params, _LAYERS, cache, d_out, out)


# -- checkpoint I/O -----------------------------------------------------------

_PARAM_KEYS = tuple(k for layer in _LAYERS for k in layer)
_DOC_KEYS = ("dims", "emb_dim", "widths", "sigma_d", "rho", "weights")


@dataclass(frozen=True)
class Checkpoint:
    """Deserialized checkpoint: weights plus the dataset statistics that
    fix the schedule at inference time."""

    net: MlpDenoiser
    ema_net: MlpDenoiser | None
    rho: float

    def denoiser(self, use_ema: bool = True) -> MlpDenoiser:
        if use_ema and self.ema_net is not None:
            return self.ema_net
        return self.net


def _params_to_json(params: dict) -> dict:
    return {k: params[k].tolist() for k in _PARAM_KEYS}


def _params_from_json(obj: dict, widths: list[int], name: str) -> dict:
    """Read-only tensors of one weight set, each checked against the layer
    widths."""
    params = {}
    for i, (k_w, k_b) in enumerate(_LAYERS):
        d_in, d_out = widths[i], widths[i + 1]
        for key, shape in ((k_w, (d_in, d_out)), (k_b, (d_out,))):
            if key not in obj:
                raise DomainError(f"checkpoint {name} lacks tensor {key!r}")
            try:
                a = np.asarray(obj[key], dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                raise DomainError(
                    f"checkpoint {name}[{key!r}] is not a numeric array"
                ) from None
            if a.shape != shape:
                raise DimensionMismatch(
                    f"checkpoint {name}[{key!r}] has shape {a.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(a)):
                raise DomainError(f"checkpoint {name}[{key!r}] holds non-finite values")
            a.flags.writeable = False
            params[key] = a
    return params


def save_checkpoint(
    path,
    net: MlpDenoiser,
    rho: float,
    ema_params: dict | None = None,
) -> None:
    """Write a versioned JSON checkpoint with sorted keys.

    Floats are serialized via repr so a write -> read -> write cycle is
    byte-identical.
    """
    doc = {
        "version": 1,
        "dims": net.dim,
        "emb_dim": net.emb_dim,
        "widths": net.widths,
        "sigma_d": net.sigma_d,
        "rho": float(rho),
        "weights": _params_to_json(net.params),
    }
    if ema_params is not None:
        doc["ema_weights"] = _params_to_json(ema_params)
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint.

    `version` must be the integer 1, `dims` and `emb_dim` integers, `sigma_d`
    and `rho` numbers that pass the schedule's check_sigma_d and check_rho
    (DomainError naming the file and the field), and `widths` four integers
    (DimensionMismatch).  Every tensor of `weights` and
    `ema_weights` must have the shape that `dims`, `emb_dim` and `widths`
    give it and hold only finite values.  The nets hold read-only tensors:
    a loaded model is immutable (an in-place write raises numpy's
    ValueError), and its bind keeps each time grid's first-layer rows.
    """
    doc = read_json_object(path, f"checkpoint {path}", DomainError)
    typed = partial(json_field, doc, owner=f"checkpoint {path}", error=DomainError)

    if typed("version", int) != 1:
        raise DomainError(f"unsupported checkpoint version {doc['version']!r}")
    missing = [k for k in _DOC_KEYS if k not in doc]
    if missing:
        raise DomainError(f"checkpoint {path} lacks {missing}")
    widths = typed("widths", list, error=DimensionMismatch)
    if len(widths) != 4 or any(type(w) is not int for w in widths):
        raise DimensionMismatch(
            f"checkpoint {path} 'widths' must be 4 integers, got {widths}"
        )
    dims, emb_dim = typed("dims", int), typed("emb_dim", int)
    sigma_d = typed("sigma_d", float, check=check_sigma_d)
    rho = typed("rho", float, check=check_rho)

    def load(key: str) -> MlpDenoiser:
        net = MlpDenoiser(
            dim=dims, hidden=widths[1], emb_dim=emb_dim, sigma_d=sigma_d, params={}
        )
        if widths != net.widths:
            raise DimensionMismatch(
                f"checkpoint widths {widths} do not match dims and emb_dim "
                f"{net.widths}"
            )
        net.params = _params_from_json(typed(key, dict), net.widths, key)
        return net

    net = load("weights")
    ema_net = load("ema_weights") if "ema_weights" in doc else None
    return Checkpoint(net=net, ema_net=ema_net, rho=rho)
