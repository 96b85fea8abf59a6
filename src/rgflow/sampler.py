"""Analytic hybrid sampler and the restoration loop.

Every step, from (r1, g1) to (r2, g2), is one update.  With k = sin(g2)/sin(g1),
s = sqrt(1 - eta^2) and lam = cos(g),

    x2 = k^s x1state + a x0hat + b x1 + kappa z,
    a = lam_2 alpha_r2 - k^s lam_1 alpha_r1,   b = lam_2 beta_r2 - k^s lam_1 beta_r1,
    kappa = eta (sin g2 - k^s sin g1) / (1 - s),   0 at eta = 0.

It solves the linear part of the two-time flow exactly and freezes the
denoiser prediction across the step, so large steps stay accurate.  eta runs
from deterministic (eta = 0, kappa = 0) to fully stochastic (eta = 1,
k^s = 1, kappa = sin g2 - sin g1).  Only at eta = 0 does the endpoint law
converge to the target as NFE grows; for eta > 0 each step's injected
variance shrinks as O(h^2).  The README tabulates the endpoint variance on
a Gaussian oracle by eta and NFE, exact and sampled.  From g1 = 0, where k
diverges, only the eta = 1 step (boot_step) is defined; along g = 0 it is the regression update,
k^s = 1 and kappa = 0.  _fold reduces a step to its four scalars and _update
applies them, for every step kind.

One loop runs every path, for exactly n_steps denoiser calls, over a plan
compiled once per schedule and sampler settings (see `plan`).  The plan
keeps what the loop reads of each step, its folded scalars and the vector of
the steps' b, so a run builds only its b x1 terms, its noise block, drawn
whole at its first draw, and its states.  A step draws noise only where its
kappa is nonzero.  There is one noise contract: item i of a batch draws from
default_rng([seed, item_offset + i]), and restore, which takes one point, is
item 0, restore_batch's one-row case.  Each run binds the denoiser once,
before the first draw, to x1 and the steps' source times (MlpDenoiser.bind).
Such a bound predictor never writes its input, so a run from g = 0 starts
from x1 itself.  A denoiser without bind, or an MlpDenoiser whose predict
has been replaced, is called through predict at every step, on a copy of
x1, and that prediction is converted to float64 and checked against the
state's shape; the inputs themselves are checked once, where they enter
restore and restore_batch, and the result once on the way out, each by one
sum of squares before any elementwise pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError, DimensionMismatch, DomainError, NonFiniteOutput, SingularStart, check_seed,
)
from .schedule import _HALF_PI, GvpSchedule, check_g
from .trajectory import Regression, Trajectory


def kappa(eta: float, g1: float, g2: float) -> float:
    """Noise coefficient of the hybrid step.

    Exactly 0 at eta = 0 and exactly sin(g2) - sin(g1) at eta = 1; computed
    through expm1 in between so the eta -> 0 limit is smooth.  Undefined from
    g1 <= 0 (SingularStart) except at eta = 1, where the k-ratio drops out,
    and for g1 or g2 outside the schedule's [0, pi/2], round-off slack
    included (DomainError): so at eta = 1 a g1 below 0 is accepted only
    inside that slack.  A g2 inside the slack below 0 makes k negative, so
    k^s is undefined there too for 0 < eta < 1 (DomainError).
    """
    return _ks_kappa(eta, g1, g2)[1]


def _ks_kappa(eta: float, g1: float, g2: float) -> tuple[float, float]:
    """(k^s, kappa) of the step from g1 to g2, from one evaluation of sin g1,
    sin g2 and s = sqrt(1 - eta^2), with kappa's rejections; k^s takes the
    eta = 1 convention k^0 = 1 (also at k = 0)."""
    if not (0.0 <= eta <= 1.0):
        raise ConfigError(f"eta must lie in [0, 1], got {eta}")
    if g1 <= 0.0 and eta != 1.0:
        raise SingularStart(f"kappa undefined from g1={g1} <= 0 unless eta = 1")
    check_g(g1)
    check_g(g2)
    s1, s2 = math.sin(g1), math.sin(g2)
    if eta == 1.0:
        return 1.0, s2 - s1
    if s2 < 0.0 and eta != 0.0:
        raise DomainError(f"kappa undefined from g2={g2} < 0 unless eta is 0 or 1")
    if s2 == 0.0:
        # k = 0 and s > 0, so k^s = 0 and kappa's numerator vanishes.
        return 0.0, 0.0
    s = math.sqrt((1.0 - eta) * (1.0 + eta))
    ks = (s2 / s1) ** s
    if eta == 0.0:
        return ks, 0.0
    one_minus_s = eta * eta / (1.0 + s)
    log_k = math.log(s2) - math.log(s1)
    x = one_minus_s * log_k
    if abs(x) < 2.0**-53:
        # 1 - e^-x = x (1 - x/2 + ...) is x to double precision, so the
        # ratio below is log_k.  This also covers eta^2 or x underflowing,
        # where the ratio form would lose every digit or divide by zero.
        return ks, eta * s2 * log_k
    # eta * s2 * (1 - k^(s-1)) / (1-s), with 1 - e^x = -expm1(x).  Where k^(s-1)
    # overflows, s2 k^(s-1) = k^s s1 does not, and s2 is too small beside it to cancel.
    numerator = eta * (s2 - ks * s1) if -x > 709.0 else eta * s2 * -math.expm1(-x)
    if abs(numerator) < sys.float_info.min:
        # It underflowed (sin g2 near the smallest doubles): divide first.
        return ks, s2 * (-math.expm1(-x) / one_minus_s) * eta
    return ks, numerator / one_minus_s


def _match(*arrays) -> tuple[np.ndarray, ...]:
    out = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
    first = out[0].shape
    for a in out[1:]:
        if a.shape != first:
            raise DimensionMismatch(f"shape mismatch: {[a.shape for a in out]}")
    return out


@dataclass(frozen=True)
class Step:
    """One update, folded to the four scalars of x2 = ks x + a x0hat + b x1 + kappa z."""

    ks: float
    a: float
    b: float
    kappa: float


def _fold(sched: GvpSchedule, frm, to, eta: float) -> Step:
    """The step from point frm to point to at noise level eta."""
    # Rejects eta outside [0, 1], g1 <= 0 below eta = 1 and g2 outside the
    # schedule's [0, pi/2] before any coefficient is computed.
    ks, kap = _ks_kappa(eta, frm[1], to[1])
    c1, c2 = sched.coeffs(*frm), sched.coeffs(*to)
    ks_lam1 = ks * c1.lam
    a, b = c2.lam * c2.alpha - ks_lam1 * c1.alpha, c2.lam * c2.beta - ks_lam1 * c1.beta
    return Step(ks, a, b, kap)


def _update(ks: float, x, a: float, x0hat, b_x1, kappa: float, z):
    """ks x + a x0hat + b x1 + kappa z, summed left to right into a new
    array, from a step's folded scalars.  The caller forms the term
    b_x1 = b x1 (a run forms all its steps' in one product); z is read only
    where kappa is nonzero."""
    out = ks * x
    out += a * x0hat
    out += b_x1
    if kappa != 0.0:
        out += kappa * z
    return out


def hybrid_step(
    sched: GvpSchedule,
    x_prev,
    x0hat,
    x1,
    frm: tuple[float, float],
    to: tuple[float, float],
    eta: float,
    z,
) -> np.ndarray:
    """One hybrid update from (r1, g1) to (r2, g2); g1 > 0 unless eta = 1."""
    step = _fold(sched, frm, to, eta)
    x_prev, x0hat, x1, z = _match(x_prev, x0hat, x1, z)
    return _update(step.ks, x_prev, step.a, x0hat, step.b * x1, step.kappa, z)


def boot_step(
    sched: GvpSchedule,
    x_prev,
    x0hat,
    x1,
    frm: tuple[float, float],
    to: tuple[float, float],
    z,
) -> np.ndarray:
    """The booting step: the fully stochastic (eta = 1) hybrid update.

    At eta = 1 the k-ratio drops out (k^0 = 1) and the noise coefficient is
    sin(g2) - sin(g1), so the step stays defined from g1 = 0.
    """
    return hybrid_step(sched, x_prev, x0hat, x1, frm, to, 1.0, z)


def regression_step(
    sched: GvpSchedule, x_prev, x0hat, x1, r1: float, r2: float
) -> np.ndarray:
    """Noiseless update along g = 0: the boot step from (r1, 0) to (r2, 0),
    where k^s = 1, kappa = 0, a = alpha_r2 - alpha_r1 and b likewise."""
    step = _fold(sched, (r1, 0.0), (r2, 0.0), 1.0)
    x_prev, x0hat, x1 = _match(x_prev, x0hat, x1)
    return _update(step.ks, x_prev, step.a, x0hat, step.b * x1, step.kappa, None)


@dataclass(frozen=True)
class SamplerConfig:
    """Inference knobs: path, step budget, stochasticity, boot offset, seed."""

    trajectory: Trajectory
    n_steps: int = 10
    eta: float = 0.0
    boot_epsilon: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if not (0.0 < self.boot_epsilon < _HALF_PI):
            raise ConfigError(
                f"boot_epsilon must lie in (0, pi/2), got {self.boot_epsilon}"
            )
        check_seed(self.seed)


@dataclass(frozen=True)
class Plan:
    """Everything a restoration computes before its first denoiser call.

    `start` gives the first state, b x1 + kappa z (see _start).  Each
    update is held as what the loop reads of it: `b`, the read-only vector
    of the steps' b, and `scalars`, each step's (ks, a, kappa, j), j its
    index in the run's draws or None where kappa is 0.  `n_draws` counts
    the start and steps whose kappa is nonzero, one draw each, in that
    order.  `times` holds each step's source point, where the denoiser is
    queried.  `reads` names those of delta, p (where the path has them),
    eta, boot_epsilon and seed that the run reads: no other changes its
    output.
    """

    start: Step
    b: np.ndarray = field(repr=False, compare=False)
    scalars: tuple[tuple[float, float, float, int | None], ...]
    n_draws: int
    times: tuple[tuple[float, float], ...]
    reads: frozenset[str]


def _start(sched: GvpSchedule, point) -> Step:
    """The state at a run's first point as a Step x = b x1 + kappa z: (b, kappa)
    is (1, 0) at g = 0, so x1 exactly, and (lam beta, gamma) above."""
    if point[1] == 0.0:
        return Step(0.0, 0.0, 1.0, 0.0)
    c = sched.coeffs(*point)
    return Step(0.0, 0.0, c.lam * c.beta, c.gamma)


def _begin(start: Step, x1, z) -> np.ndarray:
    """start.b x1 + start.kappa z in a new array; z is read only where kappa is nonzero."""
    x = start.b * x1
    if start.kappa != 0.0:
        x += start.kappa * z
    return x


@lru_cache(maxsize=256, typed=True)
def _plan(
    sched: GvpSchedule, traj: Trajectory, n_steps: int, eta: float, boot_epsilon: float
) -> Plan:
    """The plan of a run of n_steps on traj.  A path that never leaves g = 0
    (not traj.lifts) runs the regression segment on g = 0 over sched.phi.
    Any other path visits its start, then, from a start at g = 0 given more
    than one step, a boot point at t_start offset by boot_epsilon, then the
    uniform grid over the rest of the budget; from g = 0 with n_steps = 1
    its one boot step runs to the clean end, which requires eta = 1."""
    boot = traj.lifts and traj.starts_noiseless and n_steps > 1
    if not traj.lifts:
        points = [(float(r), 0.0) for r in Regression(phi=sched.phi).discretize(n_steps).r]
    else:
        if traj.starts_noiseless and not boot and eta != 1.0:
            raise ConfigError("a path starting at g=0 with n_steps=1 requires eta=1")
        grid = traj.discretize(n_steps - boot)
        points = [(float(r), float(g)) for r, g in zip(grid.r, grid.g)]
        if boot:
            direction = 1.0 if traj.t_end > traj.t_start else -1.0
            points.insert(1, traj.point(traj.t_start + direction * boot_epsilon))
    # The step from g = 0 is the boot step, the eta = 1 update.
    steps = tuple(
        _fold(sched, frm, to, 1.0 if frm[1] == 0.0 else eta)
        for frm, to in zip(points[:-1], points[1:])
    )
    start = _start(sched, points[0])
    n_draws = int(start.kappa != 0.0)
    scalars = []
    for s in steps:
        scalars.append((s.ks, s.a, s.kappa, n_draws if s.kappa != 0.0 else None))
        n_draws += s.kappa != 0.0
    b = np.array([s.b for s in steps])
    b.flags.writeable = False
    # One step from (phi, 0) runs to (-phi, 0) at any delta, unless the kind
    # starts at delta; only a lifted run of two or more steps visits a point
    # off g = 0, which p shapes; a lifted one-step run reads eta, which is 1.
    reads = {"delta": hasattr(traj, "delta") and (n_steps > 1 or traj.starts_at_delta),
             "p": hasattr(traj, "p") and traj.lifts and n_steps > 1,
             "eta": traj.lifts, "boot_epsilon": boot, "seed": n_draws > 0}
    return Plan(start, b, tuple(scalars), n_draws, tuple(points[:-1]),
                frozenset(k for k, read in reads.items() if read))


def _check_phi(sched: GvpSchedule, traj: Trajectory) -> None:
    """DomainError unless the path's phi is the schedule's: a narrower path
    ends short of the clean end r = -phi, and a wider one leaves the
    schedule's domain."""
    if traj.phi != sched.phi:
        raise DomainError(f"the path's phi={traj.phi} is not the schedule's phi={sched.phi}")


def plan(sched: GvpSchedule, cfg: SamplerConfig) -> Plan:
    """The step plan of a restoration under `sched` and `cfg`.

    Built once per (sched, trajectory, n_steps, eta, boot_epsilon) and kept
    in a bounded cache; the seed is not part of the key.  Every rejection of
    the configuration (ConfigError, SingularStart, DomainError from the
    schedule, or for a path whose phi is not the schedule's) is raised here.
    """
    _check_phi(sched, cfg.trajectory)
    return _plan(sched, cfg.trajectory, cfg.n_steps, cfg.eta, cfg.boot_epsilon)


def _bind(denoiser, x1, times):
    """(f, own): f(x, i) = denoiser.predict(x, x1, *times[i]), and whether
    f is the predictor the denoiser's own bind returns, which never writes
    its x.  Else f calls predict at every step and converts its result to
    float64, which must have the state's shape (DimensionMismatch)."""
    bound = denoiser.bind(x1, times) if hasattr(denoiser, "bind") else None
    if bound is not None:
        return bound, True

    def predict(x, i: int) -> np.ndarray:
        x0hat = np.asarray(denoiser.predict(x, x1, *times[i]), dtype=np.float64)
        if x0hat.shape != np.shape(x):
            raise DimensionMismatch(f"prediction {x0hat.shape} for a state {np.shape(x)}")
        return x0hat

    return predict, False


def _run(p: Plan, denoiser, x1: np.ndarray, draw) -> np.ndarray:
    """Run plan `p` from x1.  The denoiser is bound to x1 and the steps'
    times once, before the first draw: predict(x, i) is x0hat at x for step
    i.  draw(n) gives the run's n = p.n_draws noise samples, indexed in draw
    order; it is called once, at the run's first draw, so a run without
    noise never calls it.  Every step's b x1 term is formed up front, in one
    product over p.b, and each update reads its scalars from p.scalars.

    Where the denoiser's own bind gives the predictor, which never writes
    its x, a run whose start is x1 itself (b = 1, kappa = 0) starts from
    that array, not a copy; every update writes a new array, so x1 is never
    written."""
    predict, own = _bind(denoiser, x1, p.times)
    zs = draw(p.n_draws) if p.start.kappa != 0.0 else None
    if own and p.start.b == 1.0 and p.start.kappa == 0.0:
        x = x1
    else:
        x = _begin(p.start, x1, None if zs is None else zs[0])
    b_x1 = np.multiply.outer(p.b, x1)
    for i, (ks, a, kappa, j) in enumerate(p.scalars):
        x0hat = predict(x, i)
        if j is not None and zs is None:
            zs = draw(p.n_draws)
        x = _update(ks, x, a, x0hat, b_x1[i], kappa, None if j is None else zs[j])
    return x


def _require_finite(x: np.ndarray, error: type, message: str) -> np.ndarray:
    """Return x, or raise `error` with `message` formatted with the count of
    rows holding NaN or inf ({bad}) and the row count ({n}).  A finite sum
    of squares proves every element finite (NaN and inf carry into it, and
    no square is negative), so the elementwise pass runs only where that
    sum is NaN or inf, also where finite elements overflow it."""
    if not math.isfinite(np.vdot(x, x)) and not np.isfinite(x).all():
        rows = np.atleast_2d(x)
        bad = int((~np.isfinite(rows)).any(axis=1).sum())
        raise error(message.format(bad=bad, n=len(rows)))
    return x


_BAD_INPUT = "x1 holds non-finite values in {bad} of {n} rows"
_BAD_OUTPUT = "restoration produced non-finite values in {bad} of {n} rows"


def _restore(sched: GvpSchedule, denoiser, x1: np.ndarray, cfg: SamplerConfig, draw):
    """The plan, the input check, the run and the output check of every
    restoration.  draw(n) gives the run's n noise draws in draw order; it is
    called at the run's first draw, so a run that draws nothing never calls it."""
    p = plan(sched, cfg)
    _require_finite(x1, DomainError, _BAD_INPUT)
    return _require_finite(_run(p, denoiser, x1, draw), NonFiniteOutput, _BAD_OUTPUT)


def _restore_fixed(sched: GvpSchedule, denoiser, x1: np.ndarray, cfg: SamplerConfig, z):
    """The restoration of the float64 array x1 with every noise draw equal to
    z, an array shaped like x1: the zero-noise and affine-in-noise runs of
    the verify checks and `rgflow bench`."""
    return _restore(sched, denoiser, x1, cfg, lambda n: [z] * n)


def restore(
    sched: GvpSchedule,
    denoiser,
    x1,
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Restore one degraded point, the vector x1: restore_batch(x1[None])[0]
    bit for bit, drawing item 0's stream default_rng([cfg.seed, 0]).  A given
    `rng` replaces that stream, so restore(..., rng=default_rng([cfg.seed,
    i])) is item i of a batch; the run takes all its draws from it in one
    normal() call, leaving it where that many sequential draws would.

    Draws are consumed in step order: one for a start at g > 0, then one per
    step whose noise coefficient is nonzero, so an eta = 0 run takes at most
    one, and a run that draws nothing builds no generator.

    An x1 that is not a vector (DimensionMismatch naming restore_batch), a
    rejected configuration, a NaN or inf in x1 (DomainError), and an x1 that
    an MlpDenoiser's bind rejects (DimensionMismatch) are raised before any
    denoiser call or draw.  If a denoiser without bind fails mid-run, a
    passed `rng` may already have advanced by the whole block.  A result
    holding NaN or inf raises NonFiniteOutput.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    if x1.ndim != 1:
        raise DimensionMismatch(f"restore takes a vector, not shape {x1.shape}; use restore_batch")

    def draw(n: int) -> np.ndarray:
        gen = np.random.default_rng([cfg.seed, 0]) if rng is None else rng
        return gen.normal(0.0, sched.sigma_d, size=(n, *x1.shape))

    return _restore(sched, denoiser, x1, cfg, draw)


def restore_batch(
    sched: GvpSchedule,
    denoiser,
    x1_batch,
    cfg: SamplerConfig,
    item_offset: int = 0,
) -> np.ndarray:
    """Restore a batch of degraded points with per-item noise streams.

    Item i draws from default_rng([cfg.seed, item_offset + i]) in one
    normal() call, and restore is item 0 of a one-row batch.  So the noise is
    independent of batching, chunking, or scheduling order (and so is the
    result under a per-coordinate denoiser; an MLP's matmuls may round
    differently for another row count).  The streams are seeded at the run's
    first draw, all items at once where they fit the vectorized seeding (see
    _pcg64_states), so a run that draws nothing (a regression path, one boot
    step with kappa = 0, or an empty batch) seeds none.

    A rejected configuration, a negative or non-integer item_offset
    (ConfigError), and a NaN or inf in x1_batch (DomainError, counting the
    bad rows) are raised before any denoiser call or draw.  A result holding
    NaN or inf raises NonFiniteOutput.
    """
    item_offset = check_seed(item_offset, "item_offset")
    x1_batch = np.atleast_2d(np.asarray(x1_batch, dtype=np.float64))
    return _restore(sched, denoiser, x1_batch, cfg, lambda n: _item_noise(
        cfg.seed, item_offset, n, x1_batch.shape, sched.sigma_d))


# -- per-item noise streams ------------------------------------------------------
#
# default_rng([seed, item]) is PCG64 seeded by SeedSequence([seed, item]).  For
# seed and item below 2**32, _pcg64_states transcribes that seeding for many
# items at once from numpy's numpy/random/bit_generator.pyx (hashmix, mix,
# SeedSequence.mix_entropy and generate_state) and
# numpy/random/src/pcg64/pcg64.c (pcg64_set_seed, PCG's srandom), and
# restore_batch sets each state on one generator local to the call, which
# yields the same stream.  Items whose seed or id is >= 2**32, batches below
# _FAST_SEEDING_MIN_ITEMS rows, and a numpy whose seeding no longer matches
# (checked once per process) take default_rng per item instead.

_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
# Below this many rows default_rng per item is as cheap.  Measured on one CPU
# of a 2-core shared host (Python 3.11, numpy 2.4, 15 draws an item): the
# vectorized seeding costs a fixed ~130 us plus ~5 us an item, default_rng
# ~13-20 us an item, crossing at 14-20 rows.
_FAST_SEEDING_MIN_ITEMS = 16


def _pcg64_states(seed: int, first: int, n: int) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence([seed, item])) for the n items
    first, first + 1, ...; seed and every item must be below 2**32.  Each
    pool word is a uint32 array over the items, whose products wrap mod
    2**32 as the C code's do."""
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        # hash_const is a Python int masked to 32 bits, as C's uint32_t
        # wraps: numpy rejects a larger int against a uint32 array, and
        # np.uint32 scalars would warn on overflow.
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _M32  # MULT_A
        value *= hash_const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = 0xCA01F9DD * x - 0x4973F715 * y  # MIX_MULT_L, MIX_MULT_R
        return result ^ result >> 16

    # mix_entropy: the entropy words [seed, item], padded with zeros to the
    # pool size of four, each hashed into the pool, then every pool word
    # mixed into every other.
    entropy = np.zeros((4, n), dtype=np.uint32)
    entropy[0] = seed
    entropy[1] = np.arange(first, first + n, dtype=np.uint32)
    mixer = [hashmix(word) for word in entropy]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    # generate_state(4, uint64): eight words cycling the pool, with a hash
    # of their own, paired little-endian into four 64-bit words.
    hash_const = 0x8B51F9DD  # INIT_B
    words = []
    for data_val in mixer * 2:
        data_val = data_val ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32  # MULT_B
        data_val *= hash_const
        words.append(data_val ^ data_val >> 16)
    state = np.stack(words, axis=1).astype("<u4").view("<u8")
    # pcg64_set_seed: words 0-1 are the initial state and 2-3 the stream,
    # high word first; srandom sets state 0, steps, adds the seed, steps.
    states = []
    for s_hi, s_lo, i_hi, i_lo in state.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128, inc))
    return states


def _pcg64_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@lru_cache(maxsize=1)
def _seeding_matches_numpy() -> bool:
    """Whether _pcg64_states reproduces this numpy's seeding at one probe;
    if it does not, every item falls back to default_rng."""
    seed, item = 0x9E3779B9, 0x7F4A7C15
    want = np.random.PCG64(np.random.SeedSequence([seed, item])).state
    return want == _pcg64_state(*_pcg64_states(seed, item, 1)[0])


def _item_noise(seed: int, first: int, n_draws: int, shape: tuple, sigma_d: float) -> np.ndarray:
    """The noise block of a batch of shape `shape`: block[:, i] is
    default_rng([seed, first + i]).normal(0, sigma_d, (n_draws, *shape[1:])).

    Each item's draws are filled by standard_normal into its own contiguous
    slab of an item-major block, whose (n_draws, n, ...) view is returned.
    numpy's normal(0, s) is 0 + s * standard_normal, so scaling the whole
    block by sigma_d and adding 0.0 (which turns -0.0 into 0.0) gives its
    bits."""
    seed = int(seed)
    items = np.empty((shape[0], n_draws, *shape[1:]))
    n_fast = min(shape[0], max(0, 2**32 - first)) if seed < 2**32 else 0
    if n_fast < _FAST_SEEDING_MIN_ITEMS or not _seeding_matches_numpy():
        n_fast = 0
    if n_fast:
        # Local to the call, so that callers may restore batches on several threads.
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        # One state dict, its 128-bit words set in place for each item.
        item_state = _pcg64_state(0, 0)
        words = item_state["state"]
        for i, (state, inc) in enumerate(_pcg64_states(seed, first, n_fast)):
            words["state"], words["inc"] = state, inc
            bitgen.state = item_state
            gen.standard_normal(out=items[i])
    for i in range(n_fast, shape[0]):
        np.random.default_rng([seed, first + i]).standard_normal(out=items[i])
    items *= sigma_d
    items += 0.0
    return items.swapaxes(0, 1)
