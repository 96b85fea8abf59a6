"""Training: time samplers, adaptive-weighted objective, AdamW, EMA.

Each step draws a batch of pairs, per-item time coordinates (r, g), and
fresh noise; forms the interpolated states; and descends

    mean_i [ exp(w(r_i, g_i)) * ||x0hat_i - x0_i||^2 - w(r_i, g_i) ]

jointly in the denoiser and the scalar weight net w.  The self-calibrating
weight settles near -ln(local squared error), so hard time regions are
down-weighted automatically.  This module alone writes that loss and its
gradients (_objective): `train` reports and descends it, and verify's
gradient check differentiates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import (
    MlpDenoiser,
    _check_sizes,
    _dense_backward,
    _dense_forward,
    _special,
    _time_pairs,
)
from .errors import ConfigError, NonFiniteLoss, check_seed
from .process import forward_state
from .schedule import _HALF_PI, GvpSchedule
from .toydata import ToyDataset


# -- time samplers -------------------------------------------------------------


@dataclass(frozen=True)
class EllipticalSpecialist:
    """Draw a random apex delta, then a point on that elliptical path."""

    def sample_batch(self, phi: float, rng: np.random.Generator, n: int) -> dict:
        delta = rng.uniform(0.0, _HALF_PI, size=n)
        t = rng.uniform(-_HALF_PI, _HALF_PI, size=n)
        return {"r": phi * np.sin(t), "g": delta * np.cos(t), "delta": delta, "t": t}


@dataclass(frozen=True)
class LinearSpecialist:
    """Draw a random initial noise delta, then a point on that linear path."""

    def sample_batch(self, phi: float, rng: np.random.Generator, n: int) -> dict:
        delta = rng.uniform(0.0, _HALF_PI, size=n)
        t = rng.uniform(0.0, 1.0, size=n)
        return {"r": 2.0 * phi * t - phi, "g": delta * t, "delta": delta, "t": t}


@dataclass(frozen=True)
class RegressionSpecialist:
    """Uniform r on the noiseless segment g = 0."""

    def sample_batch(self, phi: float, rng: np.random.Generator, n: int) -> dict:
        r = rng.uniform(-phi, phi, size=n)
        return {"r": r, "g": np.zeros(n)}


@dataclass(frozen=True)
class UniformSampler:
    """Independent uniforms over the whole (r, g) rectangle."""

    def sample_batch(self, phi: float, rng: np.random.Generator, n: int) -> dict:
        return {
            "r": rng.uniform(-phi, phi, size=n),
            "g": rng.uniform(0.0, _HALF_PI, size=n),
        }


@dataclass(frozen=True)
class LogitNormalSampler:
    """Logistic-squashed normals, affine-mapped onto the (r, g) rectangle."""

    m_r: float = 0.0
    s_r: float = 1.0
    m_g: float = 0.0
    s_g: float = 1.0

    def sample_batch(self, phi: float, rng: np.random.Generator, n: int) -> dict:
        # scipy.special._special_ufuncs loads here, so a rejected `train` loads no scipy.
        expit = _special().expit
        u_r = expit(rng.normal(self.m_r, self.s_r, size=n))
        u_g = expit(rng.normal(self.m_g, self.s_g, size=n))
        return {"r": phi * (2.0 * u_r - 1.0), "g": _HALF_PI * u_g}


TIME_SAMPLERS = {
    "elliptical": EllipticalSpecialist,
    "linear": LinearSpecialist,
    "regression": RegressionSpecialist,
    "uniform": UniformSampler,
}


def make_time_sampler(name: str):
    """Build a time sampler by CLI name (lognorm1/lognorm2 are presets)."""
    if name in TIME_SAMPLERS:
        return TIME_SAMPLERS[name]()
    if name == "lognorm1":
        return LogitNormalSampler(0.0, 1.0, 0.0, 1.0)
    if name == "lognorm2":
        return LogitNormalSampler(0.0, 1.0, -0.5, 1.0)
    raise ConfigError(
        f"unknown time sampler {name!r}; expected one of "
        f"{sorted(TIME_SAMPLERS) + ['lognorm1', 'lognorm2']}"
    )


# -- objective ------------------------------------------------------------------


_WEIGHT_LAYERS = (("V1", "c1"), ("V2", "c2"))


class AdaptiveWeight:
    """Tiny MLP w(r, g): sinusoidal time features -> hidden 32 -> scalar.

    Output layer starts at zero, so training begins with plain squared error.
    """

    def __init__(self, rng: np.random.Generator, emb_dim: int = 16, hidden: int = 32) -> None:
        _check_sizes(emb_dim, hidden)
        self.emb_dim = emb_dim
        self.hidden = hidden
        d_in = 2 * emb_dim
        self.params = {
            "V1": rng.normal(0.0, math.sqrt(2.0 / d_in), size=(d_in, hidden)),
            "c1": np.zeros(hidden),
            "V2": np.zeros((hidden, 1)),
            "c2": np.zeros(1),
        }

    def features(self, r, g) -> np.ndarray:
        """[embed(r), embed(g)], one row per time: (n, 2 emb_dim)."""
        return _time_pairs(np.stack(np.atleast_1d(r, g), axis=-1), self.emb_dim)

    def forward(self, feats: np.ndarray) -> tuple[np.ndarray, tuple]:
        """w at feature rows built by `features`, and the cache for backward."""
        out, cache = _dense_forward(self.params, _WEIGHT_LAYERS, feats)
        return out[:, 0], cache

    def backward(self, cache: tuple, d_w: np.ndarray, out: dict | None = None) -> dict:
        """Gradients of sum(d_w * w), in a new dict or written into `out`'s
        arrays, as _dense_backward."""
        return _dense_backward(self.params, _WEIGHT_LAYERS, cache, d_w[:, None], out)


def _objective(net: MlpDenoiser, weight_net: AdaptiveWeight | None, feats, w_feats, x0):
    """The loss `train` reports and descends on one batch,

        mean_i [exp(w_i) ||sigma_d core_i - x0_i||^2 - w_i],

    core = net.forward_batch(feats), w = weight_net.forward(w_feats), or 0
    without a weight net; and `gradients(net_out=None, w_out=None)`, which
    returns both nets' gradients (None for a missing weight net), each in a
    new dict or written into the given dict's arrays.
    """
    n = len(x0)
    w, w_cache = weight_net.forward(w_feats) if weight_net is not None else (np.zeros(n), None)
    core, cache = net.forward_batch(feats)
    sd = net.sigma_d
    err = sd * core - x0
    sq = (err * err).sum(axis=1)
    ew = np.exp(w)
    loss = float(np.mean(ew * sq - w))

    def gradients(net_out: dict | None = None, w_out: dict | None = None):
        net_grads = net.backward_batch(cache, (ew[:, None] * 2.0 * err * sd) / n, out=net_out)
        if weight_net is None:
            return net_grads, None
        # d loss / d w_i = (exp(w_i) sq_i - 1) / n
        return net_grads, weight_net.backward(w_cache, (ew * sq - 1.0) / n, out=w_out)

    return loss, gradients


# -- optimizer -------------------------------------------------------------------


def _check_adamw(lr: float, weight_decay: float, lr_name: str) -> None:
    """ConfigError unless lr is finite and > 0 and weight_decay finite and
    >= 0, either of which would fill the parameters with NaN at AdamW's
    first step; the message calls lr `lr_name`."""
    if not (math.isfinite(lr) and lr > 0.0):
        raise ConfigError(f"{lr_name} must be finite and > 0, got {lr}")
    if not (math.isfinite(weight_decay) and weight_decay >= 0.0):
        raise ConfigError(f"weight_decay must be finite and >= 0, got {weight_decay}")


class AdamW:
    """Adam with decoupled weight decay over one flat parameter vector.

    Step t updates the moments m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2,
    then the parameters by

        p = (1 - lr wd) p - lr_t m / (sqrt(v) + eps_t),
        lr_t = lr sqrt(1 - b2^t) / (1 - b1^t),  eps_t = eps sqrt(1 - b2^t),

    which is p -= lr (m_hat / (sqrt(v_hat) + eps) + wd p) with both bias
    corrections folded into the scalars lr_t and eps_t (Kingma & Ba's efficient
    order) and the decay applied as a scale: the same update in exact
    arithmetic, rounded otherwise.  The betas (0.9, 0.999) and eps 1e-8 are
    fixed.  `step` updates the vector in place.  Its moments and two scratch
    buffers are allocated on the first step; every later step runs each
    operation with `out=` or in place and allocates no array.
    """

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, weight_decay: float) -> None:
        _check_adamw(lr, weight_decay, "lr")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._s1: np.ndarray | None = None
        self._s2: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
            self._s1, self._s2 = np.empty_like(params), np.empty_like(params)
        self.t += 1
        b1, b2 = self.B1, self.B2
        m, v, s1, s2 = self.m, self.v, self._s1, self._s2
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        m *= b1
        np.multiply(grads, 1.0 - b1, out=s1)
        m += s1
        v *= b2
        np.multiply(grads, 1.0 - b2, out=s1)
        s1 *= grads
        v += s1
        # p = (1 - lr wd) p - lr_t m / (sqrt(v) + eps_t)
        root_c2 = math.sqrt(1.0 - b2**self.t)
        np.sqrt(v, out=s2)
        s2 += self.EPS * root_c2
        np.divide(m, s2, out=s1)
        s1 *= self.lr * root_c2 / (1.0 - b1**self.t)
        params *= 1.0 - self.lr * self.weight_decay
        params -= s1


def _flatten(*param_sets: dict) -> tuple[np.ndarray, list[dict]]:
    """Copy the param dicts into one contiguous vector, in order and in key
    order; return it and, per dict, reshaped views into it under the same
    names."""
    flat = np.concatenate([p.ravel() for ps in param_sets for p in ps.values()])
    views, start = [], 0
    for params in param_sets:
        views.append({})
        for key, p in params.items():
            views[-1][key] = flat[start : start + p.size].reshape(p.shape)
            start += p.size
    return flat, views


# -- training loop ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs; defaults follow the reference recipe."""

    time_sampler: object = field(default_factory=EllipticalSpecialist)
    batch_size: int = 16
    n_steps: int = 20_000
    learning_rate: float = 1e-4
    weight_decay: float = 1e-2
    ema_decay: float = 0.9999
    adaptive_weighting: bool = True
    hidden: int = 128
    emb_dim: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        _check_adamw(self.learning_rate, self.weight_decay, "learning_rate")
        if not (0.0 <= self.ema_decay < 1.0):
            raise ConfigError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")
        if self.batch_size < 1 or self.n_steps < 1:
            raise ConfigError("batch_size and n_steps must be >= 1")
        check_seed(self.seed)


@dataclass
class TrainResult:
    """Final weights, their EMA shadow, the weight net, and the loss trace."""

    denoiser: MlpDenoiser
    ema_denoiser: MlpDenoiser
    weight_net: AdaptiveWeight
    loss_trace: np.ndarray


# Rows of input that a chunk of training steps builds in one pass, so that its
# state, feature and draw buffers stay under ~1 MB.  A chunk holds at least
# one step, so a batch of more rows builds one step at a time.
_CHUNK_ROWS = 1024


def train(dataset: ToyDataset, cfg: TrainConfig) -> TrainResult:
    """Fit an MlpDenoiser (and weight net) on a standardized pair dataset.

    The schedule is GvpSchedule(dataset.rho_hat, dataset.sigma_d).
    Identical cfg.seed and dataset give bitwise-identical loss traces, and
    the trace of an n-step run is the first n entries of a longer one.

    default_rng(cfg.seed) draws the initial weights (the denoiser's, then the
    weight net's), then per step, in order, the pair indices, the times (one
    sample_batch call) and the noise.  Each step's loss is checked before its
    update, and the last update by the loss of its batch once more, so that
    no run returns weights whose loss is not finite.
    """
    schedule = GvpSchedule(rho=dataset.rho_hat, sigma_d=dataset.sigma_d)
    rng = np.random.default_rng(cfg.seed)

    x0_all, x1_all = dataset.x0, dataset.x1
    n_pairs, dim = x0_all.shape
    sd = schedule.sigma_d

    net = MlpDenoiser(
        dim=dim, hidden=cfg.hidden, emb_dim=cfg.emb_dim, sigma_d=sd, params={}
    )
    net.reinit(rng)
    weight_net = AdaptiveWeight(rng)
    # One flat vector holds the denoiser's parameters, then the weight net's;
    # the params dicts become views into it.  The backward passes write each
    # gradient into the same place of a flat buffer laid out alike.  Without
    # adaptive weighting the optimizer sees only the denoiser's slices.
    flat, (net.params, weight_net.params) = _flatten(net.params, weight_net.params)
    grad, (net_grads, w_grads) = _flatten(net.params, weight_net.params)
    ema, (ema_params,) = _flatten(net.params)
    ema_scratch = np.empty_like(ema)
    net_flat = flat[: ema.size]
    adaptive = cfg.adaptive_weighting
    opt_params = flat if adaptive else net_flat
    opt_grad = grad if adaptive else grad[: ema.size]
    opt = AdamW(cfg.learning_rate, cfg.weight_decay)

    trace = np.empty(cfg.n_steps)
    batch, sampler, phi, decay = cfg.batch_size, cfg.time_sampler, schedule.phi, cfg.ema_decay
    chunk = max(1, _CHUNK_ROWS // batch)
    w_net = weight_net if adaptive else None

    def evaluate(rows: slice, when: str, step: int):
        """_objective on the chunk's `rows` at the current weights, or
        NonFiniteLoss naming `when` `step` if the loss is not finite."""
        w_rows = None if w_net is None else w_feats[rows]
        loss, gradients = _objective(net, w_net, feats[rows], w_rows, x0[rows])
        if not math.isfinite(loss):
            rs, gs = r[rows], g[rows]
            raise NonFiniteLoss(
                f"loss became {loss} {when} {step}; "
                f"r in [{rs.min():.4g}, {rs.max():.4g}], "
                f"g in [{gs.min():.4g}, {gs.max():.4g}]"
            )
        return loss, gradients

    for first in range(0, cfg.n_steps, chunk):
        steps = range(first, min(first + chunk, cfg.n_steps))
        # The chunk's draws, step by step in the order above.
        idx, r, g, z = [], [], [], []
        for _ in steps:
            idx.append(rng.integers(0, n_pairs, size=batch))
            times = sampler.sample_batch(phi, rng, batch)
            r.append(times["r"])
            g.append(times["g"])
            z.append(rng.normal(0.0, sd, size=(batch, dim)))
        r, g = np.concatenate(r), np.concatenate(g)
        idx = np.concatenate(idx)
        x0, x1 = x0_all[idx], x1_all[idx]
        # Every input below is built row by row, so building the chunk's at
        # once gives each step's rows bit for bit.
        x = forward_state(schedule, x0, x1, np.concatenate(z), r, g)
        feats = net.features(x, x1, r, g)
        w_feats = weight_net.features(r, g) if adaptive else None

        for row, step in enumerate(steps):
            rows = slice(row * batch, (row + 1) * batch)
            trace[step], gradients = evaluate(rows, "at step", step)
            gradients(net_grads, w_grads)
            opt.step(opt_params, opt_grad)

            ema *= decay
            np.multiply(net_flat, 1.0 - decay, out=ema_scratch)
            ema += ema_scratch
    # The last update is checked too: its batch once more, with no draw.
    evaluate(rows, "after step", step)

    ema_net = replace(net, params=ema_params)
    return TrainResult(
        denoiser=net, ema_denoiser=ema_net, weight_net=weight_net, loss_trace=trace
    )
