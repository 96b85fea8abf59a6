"""Hybrid sampler: kappa limits, step identities, full restoration loops."""

import dataclasses
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rgflow import (
    CheatDenoiser,
    ConfigError,
    DimensionMismatch,
    DomainError,
    Elliptical,
    GaussianOracle,
    GvpSchedule,
    Linear,
    MlpDenoiser,
    NonFiniteOutput,
    Regression,
    SamplerConfig,
    SingularStart,
    boot_step,
    euler_integrate,
    hybrid_step,
    interpolate,
    kappa,
    make_trajectory,
    regression_step,
    restore,
    restore_batch,
    sampler,
)
from rgflow.trajectory import TRAJECTORY_KINDS

HALF_PI = math.pi / 2.0


def _path(kind, phi, **params):
    """make_trajectory with those of `params` that the kind has."""
    names = {f.name for f in dataclasses.fields(TRAJECTORY_KINDS[kind])}
    return make_trajectory(kind, phi, **{k: v for k, v in params.items() if k in names})


def _spy_item_noise(monkeypatch) -> list[list[int]]:
    """Record, per call of restore_batch's stream seeding, the item ids it
    seeds (sampler._item_noise, looked up at draw time)."""
    seeded = []
    real = sampler._item_noise

    def spy(seed, first, n_draws, shape, sigma_d):
        seeded.append(list(range(first, first + shape[0])))
        return real(seed, first, n_draws, shape, sigma_d)

    monkeypatch.setattr(sampler, "_item_noise", spy)
    return seeded


class TestKappa:
    def test_fully_stochastic_value(self):
        got = kappa(1.0, 0.2, 0.5)
        assert got == math.sin(0.5) - math.sin(0.2)
        assert got == pytest.approx(0.2808, abs=1e-4)

    def test_deterministic_is_exact_zero(self):
        assert kappa(0.0, 0.2, 0.5) == 0.0
        assert kappa(0.0, 1.0, 0.1) == 0.0

    def test_small_eta_is_small(self):
        for g1 in np.linspace(0.02, HALF_PI, 15):
            for g2 in np.linspace(0.02, HALF_PI, 15):
                assert abs(kappa(1e-4, g1, g2)) < 1e-3

    def test_monotone_vanishing_near_zero(self):
        for g1, g2 in ((0.2, 0.9), (1.1, 0.3)):
            vals = [abs(kappa(eta, g1, g2)) for eta in (1e-2, 1e-3, 1e-4, 1e-5)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_target_at_zero_noise_time(self):
        assert kappa(0.5, 0.4, 0.0) == 0.0
        assert kappa(1.0, 0.4, 0.0) == -math.sin(0.4)

    def test_underflowing_eta_takes_the_small_eta_limit(self):
        """eta^2 underflows to 0 below eta ~ 1e-162; kappa then takes its
        eta -> 0 limit eta * sin(g2) * ln(sin g2 / sin g1) instead of
        dividing by zero."""
        for g1, g2 in ((0.2, 0.9), (1.1, 0.3), (1e-3, 1.0)):
            limit = math.sin(g2) * math.log(math.sin(g2) / math.sin(g1))
            for eta in (1e-170, 1.33e-244):
                assert kappa(eta, g1, g2) == pytest.approx(eta * limit, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(g1=st.floats(1e-3, HALF_PI), g2=st.floats(0.0, HALF_PI),
           log_eta=st.floats(-323.0, -9.0))
    @example(g1=0.5, g2=0.8, log_eta=-150.0)  # eta * s2 * expm1(...) underflowed
    @example(g1=1.0, g2=1.2184612689841436e-301, log_eta=-9.0)  # so did its s2 tail
    def test_vanishes_like_its_eta_limit(self, g1, g2, log_eta):
        """For eta -> 0 (down to subnormal eta), kappa = eta sin(g2) ln k to
        within rounding, so it tends to 0 continuously with no dip to 0."""
        eta = 10.0**log_eta
        assume(eta > 0.0)
        limit = eta * math.sin(g2) * (math.log(math.sin(g2)) - math.log(math.sin(g1))) \
            if g2 > 0.0 else 0.0
        assert kappa(eta, g1, g2) == pytest.approx(limit, rel=1e-9, abs=1e-320)

    @settings(max_examples=300, deadline=None)
    @given(g1=st.floats(1e-3, HALF_PI), g2=st.floats(1e-3, HALF_PI),
           log_gap=st.floats(-16.0, -4.0))
    def test_tends_to_the_fully_stochastic_value(self, g1, g2, log_gap):
        """As eta -> 1, kappa tends to sin g2 - sin g1 at the rate of
        s = sqrt(1 - eta^2).  (Not towards g2 = 0, where k^s is 0 below
        eta = 1 and 1 at it: test_target_at_zero_noise_time.)"""
        eta = 1.0 - 10.0**log_gap
        s = math.sqrt((1.0 - eta) * (1.0 + eta))
        s1, s2 = math.sin(g1), math.sin(g2)
        log_k = math.log(s2) - math.log(s1)
        bound = 2.0 * s * (abs(s2 - s1) + s1 * abs(log_k) + 1.0)
        assert abs(kappa(eta, g1, g2) - (s2 - s1)) <= bound

    @settings(max_examples=300, deadline=None)
    @given(g1=st.floats(1e-3, HALF_PI), g2=st.floats(1e-3, HALF_PI),
           log_scale=st.floats(-3.0, 4.0))
    def test_branches_agree_at_their_boundary(self, g1, g2, log_scale):
        """kappa switches from its expm1 form to its eta -> 0 limit where
        x = (1 - s) ln k falls below 2**-53 in size.  From a thousandth to
        ten thousand times the eta of that switch, either branch equals
        eta sin(g2) (1 - e^-x) / (1 - s) evaluated ratio first (which
        neither underflows nor cancels there) to rounding."""
        s1, s2 = math.sin(g1), math.sin(g2)
        log_k = math.log(s2) - math.log(s1)
        assume(log_k != 0.0)
        eta = math.sqrt(2.0 * 2.0**-53 / abs(log_k)) * 10.0**log_scale  # 1 - s ~ eta^2 / 2
        assume(eta < 1e-3)
        s = math.sqrt((1.0 - eta) * (1.0 + eta))
        one_minus_s = eta * eta / (1.0 + s)
        want = eta * s2 * (-math.expm1(-one_minus_s * log_k) / one_minus_s)
        assert kappa(eta, g1, g2) == pytest.approx(want, rel=1e-13, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(g1=st.floats(1e-3, HALF_PI), g2=st.floats(1e-3, HALF_PI),
           log_eta=st.floats(-300.0, math.log10(1.0 - 1e-3)), step=st.floats(1e-12, 1e-7))
    def test_continuous_in_eta(self, g1, g2, log_eta, step):
        """For g1 > 0, a relative change of eta by at most 1e-7 changes kappa
        by a like relative amount: no jump anywhere on [1e-300, 1 - 1e-3].
        With g1, g2 >= 1e-3, |ln k| < 7.3, so kappa's relative slope stays
        below ~200 there."""
        eta = 10.0**log_eta
        here, there = kappa(eta, g1, g2), kappa(eta * (1.0 + step), g1, g2)
        assert abs(there - here) <= 1000.0 * step * abs(here) + 1e-300

    @pytest.mark.parametrize("g2", [2.225073858507203e-309, 5e-324, 1e-300])
    def test_tiny_target_just_below_eta_one(self, g2):
        """k^(s-1) overflows where sin g2 is near the smallest doubles and eta
        is near 1, but kappa stays finite and within the eta -> 1 rate of
        its eta = 1 value sin g2 - sin g1."""
        for eta in (1.0 - 2.0**-53, 1.0 - 1e-12):
            s = math.sqrt((1.0 - eta) * (1.0 + eta))
            log_k = math.log(math.sin(g2)) - math.log(math.sin(1.0))
            bound = 2.0 * s * (math.sin(1.0) * (1.0 + abs(log_k)) + 1.0)
            assert abs(kappa(eta, 1.0, g2) - (math.sin(g2) - math.sin(1.0))) <= bound

    def test_fully_stochastic_defined_from_zero(self):
        for g2 in (0.0, 1e-3, 0.4, HALF_PI):
            assert kappa(1.0, 0.0, g2) == math.sin(g2)

    def test_validation(self):
        with pytest.raises(SingularStart):
            kappa(0.5, 0.0, 0.3)
        with pytest.raises(ConfigError):
            kappa(1.5, 0.2, 0.3)

    @pytest.mark.parametrize("g2", [-0.3, -2e-12, HALF_PI + 2e-12, HALF_PI + 0.1])
    @pytest.mark.parametrize("eta", [0.0, 1e-150, 0.5, 1.0])
    def test_target_outside_domain_is_domain_error(self, eta, g2):
        """A g2 outside the schedule's [0, pi/2] (round-off slack 1e-12) is
        a DomainError at every eta, from kappa and from hybrid_step."""
        with pytest.raises(DomainError, match="outside"):
            kappa(eta, 0.2, g2)
        z = np.zeros(2)
        with pytest.raises(DomainError, match="outside"):
            hybrid_step(GvpSchedule(0.4, 1.0), z, z, z, (0.1, 0.2), (0.0, g2), eta, z)

    @pytest.mark.parametrize("g1", [HALF_PI + 2e-12, 2.0, 4.0])
    @pytest.mark.parametrize("eta", [0.0, 1e-150, 0.5, 1.0])
    def test_start_outside_domain_is_domain_error(self, eta, g1):
        """A g1 above pi/2 is a DomainError at every eta, from kappa and
        from hybrid_step: never a bare ValueError from math.log(sin g1) (at
        g1 = 4) nor a value (kappa(0.5, 2.0, 0.3) was -0.179)."""
        with pytest.raises(DomainError, match="outside"):
            kappa(eta, g1, 0.3)
        z = np.zeros(2)
        with pytest.raises(DomainError, match="outside"):
            hybrid_step(GvpSchedule(0.4, 1.0), z, z, z, (0.1, g1), (0.0, 0.3), eta, z)

    def test_negative_start_at_eta_one(self):
        """At eta = 1 a g1 below 0 is accepted only inside the schedule's
        round-off slack: kappa(1.0, -0.3, 0.3) is a DomainError (it was
        sin 0.3 - sin(-0.3), about 0.59), and g1 = -1e-13 still gives
        sin g2 - sin g1."""
        with pytest.raises(DomainError, match="outside"):
            kappa(1.0, -0.3, 0.3)
        assert kappa(1.0, -1e-13, 0.3) == math.sin(0.3) - math.sin(-1e-13)

    @pytest.mark.parametrize("g2", [-1e-300, -1e-13, HALF_PI + 1e-13])
    @pytest.mark.parametrize("eta", [0.0, 1e-150, 0.5, 1.0])
    def test_target_in_round_off_slack(self, eta, g2):
        """kappa accepts the g2 the schedule accepts.  Below 0, sin(g2) < 0
        makes k negative and k^s undefined for 0 < eta < 1, a DomainError,
        never a bare ValueError from math.log; at eta = 0 and 1 the step is
        defined and taken."""
        sched, z = GvpSchedule(0.4, 1.0), np.full(2, 0.5)
        if g2 < 0.0 and 0.0 < eta < 1.0:
            with pytest.raises(DomainError, match="undefined"):
                kappa(eta, 0.2, g2)
            with pytest.raises(DomainError, match="undefined"):
                hybrid_step(sched, z, z, z, (0.1, 0.2), (0.0, g2), eta, z)
            return
        got = kappa(eta, 0.2, g2)
        assert all(type(v) is float for v in sampler._ks_kappa(eta, 0.2, g2))
        if eta == 0.0:
            assert got == 0.0
        elif eta == 1.0:
            assert got == math.sin(g2) - math.sin(0.2)
        assert np.isfinite(got)
        assert np.isfinite(hybrid_step(sched, z, z, z, (0.1, 0.2), (0.0, g2), eta, z)).all()

    @pytest.mark.parametrize("g2", [0.3, -0.3])
    def test_negative_start_below_eta_one_is_singular(self, g2):
        """g1 < 0 is checked before g2, so below eta = 1 it stays SingularStart."""
        for eta in (0.0, 0.5):
            with pytest.raises(SingularStart):
                kappa(eta, -0.1, g2)


class TestHybridStep:
    def test_deterministic_step_ignores_noise(self):
        sched = GvpSchedule(0.4, 1.0)
        rng = np.random.default_rng(0)
        x_prev, x0hat, x1 = rng.normal(size=(3, 3))
        a = hybrid_step(sched, x_prev, x0hat, x1, (0.1, 0.5), (-0.1, 0.3), 0.0,
                        rng.normal(size=3))
        b = hybrid_step(sched, x_prev, x0hat, x1, (0.1, 0.5), (-0.1, 0.3), 0.0,
                        rng.normal(size=3))
        assert np.array_equal(a, b)

    def test_singular_start_rejected(self):
        sched = GvpSchedule(0.4, 1.0)
        z = np.zeros(2)
        with pytest.raises(SingularStart):
            hybrid_step(sched, z, z, z, (0.1, 0.0), (0.0, 0.2), 0.5, z)
        for eta in (-0.1, 1.5):  # from a singular and a regular start
            for g1 in (0.0, 0.2):
                with pytest.raises(ConfigError):
                    hybrid_step(sched, z, z, z, (0.1, g1), (0.0, 0.3), eta, z)

    def test_manifold_invariance_deterministic(self):
        """With the exact clean point substituted, the eta=0 step transports
        forward states to forward states with the same latent."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = rng.uniform(-0.9, 0.9)
            sched = GvpSchedule(rho, 1.0)
            x0, x1 = rng.normal(size=2), rng.normal(size=2)
            z = rng.normal(size=2)
            r1, g1 = rng.uniform(-sched.phi, sched.phi), rng.uniform(0.05, HALF_PI)
            r2, g2 = rng.uniform(-sched.phi, sched.phi), rng.uniform(0.0, HALF_PI)
            x_prev = interpolate(sched, x0, x1, z, r1, g1)
            want = interpolate(sched, x0, x1, z, r2, g2)
            got = hybrid_step(sched, x_prev, x0, x1, (r1, g1), (r2, g2), 0.0, np.zeros(2))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_boot_step_matches_fully_stochastic_step(self):
        sched = GvpSchedule(0.4, 1.0)
        rng = np.random.default_rng(6)
        x_prev, x0hat, x1, z = rng.normal(size=(4, 3))
        to = (-0.1, 0.45)
        for frm in ((0.2, 0.3), (sched.phi, 0.0)):
            assert np.array_equal(
                boot_step(sched, x_prev, x0hat, x1, frm, to, z),
                hybrid_step(sched, x_prev, x0hat, x1, frm, to, 1.0, z),
            )
        # g1 = 0 is singular for every eta < 1
        with pytest.raises(SingularStart):
            hybrid_step(sched, x_prev, x0hat, x1, (sched.phi, 0.0), to, 0.999, z)


class TestUpdate:
    """sampler._update sums k^s x + a x0hat + b x1 + kappa z in place, in the
    order of that expression, and writes into none of its inputs.  It is
    given the term b x1 as sampler._run forms it, one row of an outer
    product over the steps' b, which rounds as b * x1 does."""

    @staticmethod
    def _b_x1(b, x1):
        return np.multiply.outer([0.5, b], x1)[1]

    _scalar = st.one_of(
        st.floats(-3.0, 3.0), st.sampled_from([1.0, 0.0, -0.0]),
    )

    @settings(max_examples=300, deadline=None)
    @given(ks=_scalar, a=_scalar, b=_scalar, kap=_scalar, seed=st.integers(0, 2**32 - 1),
           zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=4, max_size=4))
    def test_equals_the_written_out_sum(self, ks, a, b, kap, seed, zeros):
        x, x0hat, x1, z = np.random.default_rng(seed).normal(size=(4, 3, 2))
        for v, zero in zip((x, x0hat, x1, z), zeros):
            v[0, 0] = zero  # signed zeros, where the order of a sum shows
        step = sampler.Step(ks, a, b, kap)
        want = ks * x + a * x0hat + b * x1
        if kap != 0.0:
            want = want + kap * z
        got = sampler._update(step, x, x0hat, self._b_x1(b, x1), z if kap != 0.0 else None)
        assert got.tobytes() == want.tobytes()

    def test_unit_ks_and_zero_kappa(self):
        x, x0hat, x1 = np.random.default_rng(3).normal(size=(3, 5))
        x[:2] = [-0.0, 0.0]
        for a in (0.0, -0.0, 0.7):
            step = sampler.Step(1.0, a, -0.2, 0.0)
            got = sampler._update(step, x, x0hat, self._b_x1(-0.2, x1), None)
            assert got.tobytes() == (1.0 * x + a * x0hat + -0.2 * x1).tobytes()

    def test_step_functions_leave_inputs_unchanged(self):
        sched = GvpSchedule(0.4, 1.0)
        vecs = np.random.default_rng(4).normal(size=(4, 6, 2))
        before = vecs.tobytes()
        x, x0hat, x1, z = vecs
        for eta in (0.0, 0.5, 1.0):
            hybrid_step(sched, x, x0hat, x1, (0.1, 0.2), (0.0, 0.3), eta, z)
        boot_step(sched, x, x0hat, x1, (0.1, 0.0), (0.0, 0.3), z)
        regression_step(sched, x, x0hat, x1, 0.1, 0.2)  # k^s = 1
        regression_step(sched, x, x0hat, x1, 0.1, 0.1)  # a = b = 0 too
        assert vecs.tobytes() == before


class TestRegressionStep:
    def test_single_full_step_returns_prediction(self):
        sched = GvpSchedule(0.5, 1.0)
        rng = np.random.default_rng(7)
        x1 = rng.normal(size=4)
        x0hat = rng.normal(size=4)
        out = regression_step(sched, x1, x0hat, x1, sched.phi, -sched.phi)
        rel = np.max(np.abs(out - x0hat)) / max(1.0, np.max(np.abs(x0hat)))
        assert rel <= 1e-15

    def test_noop_step(self):
        sched = GvpSchedule(0.5, 1.0)
        x = np.array([1.0, -2.0])
        out = regression_step(sched, x, 2 * x, x, 0.2, 0.2)
        assert np.array_equal(out, x)

    def test_half_steps_telescope(self):
        sched = GvpSchedule(0.3, 1.0)
        rng = np.random.default_rng(8)
        x_prev, x0hat, x1 = rng.normal(size=(3, 2))
        full = regression_step(sched, x_prev, x0hat, x1, sched.phi, -sched.phi)
        half = regression_step(sched, x_prev, x0hat, x1, sched.phi, 0.0)
        two = regression_step(sched, half, x0hat, x1, 0.0, -sched.phi)
        np.testing.assert_allclose(two, full, atol=1e-12)


_rho = st.floats(-0.9, 0.9)
_unit = st.floats(-1.0, 1.0)
_vectors = st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8).map(
    lambda v: np.reshape(v, (4, 2))
)


def _unfolded(sched, x, x0hat, x1, frm, to, ks, kap, z):
    """The hybrid update with both ends' coefficients, before folding."""
    c1, c2 = sched.coeffs(*frm), sched.coeffs(*to)
    return (
        ks * x
        + c2.lam * (c2.alpha * x0hat + c2.beta * x1)
        - ks * c1.lam * (c1.alpha * x0hat + c1.beta * x1)
        + kap * z
    )


class TestFoldProperties:
    """Each step kind, run through its folded scalars, against the update
    written out with both ends' coefficients, and manifold invariance."""

    @settings(max_examples=300, deadline=None)
    @given(rho=_rho, u1=_unit, u2=_unit, g1=st.floats(1e-3, HALF_PI),
           g2=st.floats(0.0, HALF_PI), eta=st.floats(0.0, 1.0), vecs=_vectors)
    @example(rho=0.0, u1=0.0, u2=0.0, g1=1.0, g2=2.225073858507203e-309,
             eta=0.9999999999999999, vecs=np.zeros((4, 2)))  # kappa's expm1 overflowed
    def test_hybrid_step_equals_unfolded_update(self, rho, u1, u2, g1, g2, eta, vecs):
        sched = GvpSchedule(rho, 1.0)
        frm, to = (u1 * sched.phi, g1), (u2 * sched.phi, g2)
        ks = (math.sin(g2) / math.sin(g1)) ** math.sqrt((1.0 - eta) * (1.0 + eta))
        want = _unfolded(sched, *vecs[:3], frm, to, ks, kappa(eta, g1, g2), vecs[3])
        got = hybrid_step(sched, *vecs[:3], frm, to, eta, vecs[3])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * (1.0 + ks))

    @settings(max_examples=200, deadline=None)
    @given(rho=_rho, u1=_unit, u2=_unit, g2=st.floats(0.0, HALF_PI), vecs=_vectors)
    def test_boot_and_regression_steps_equal_unfolded_update(self, rho, u1, u2, g2, vecs):
        sched = GvpSchedule(rho, 1.0)
        r1, r2 = u1 * sched.phi, u2 * sched.phi
        want = _unfolded(sched, *vecs[:3], (r1, 0.0), (r2, g2), 1.0, math.sin(g2), vecs[3])
        got = boot_step(sched, *vecs[:3], (r1, 0.0), (r2, g2), vecs[3])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-13)
        want = _unfolded(sched, *vecs[:3], (r1, 0.0), (r2, 0.0), 1.0, 0.0, vecs[3])
        got = regression_step(sched, *vecs[:3], r1, r2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-13)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(TRAJECTORY_KINDS)), rho=_rho,
           delta=st.floats(0.0, HALF_PI), p=st.floats(1.0, 3.0),
           s1=st.floats(0.0, 1.0), s2=st.floats(0.0, 1.0), vecs=_vectors)
    def test_manifold_invariance(self, kind, rho, delta, p, s1, s2, vecs):
        """With the exact clean point substituted, a step between two points
        of any path maps the forward state to the forward state with the same
        latent: at eta = 0 with no noise, at eta = 1 with the latent as noise.
        From g = 0 only the eta = 1 (boot) step is defined, and along g = 0
        the regression step."""
        sched = GvpSchedule(rho, 1.0)
        traj = _path(kind, sched.phi, delta=delta, p=p)
        t1, t2 = (traj.t_start + s * (traj.t_end - traj.t_start) for s in (s1, s2))
        frm, to = traj.point(t1), traj.point(t2)
        assume(frm[1] == 0.0 or frm[1] >= 1e-3)
        x0, x1, z = vecs[:3]
        x = interpolate(sched, x0, x1, z, *frm)
        want = interpolate(sched, x0, x1, z, *to)
        got = [boot_step(sched, x, x0, x1, frm, to, z)]
        if frm[1] > 0.0:
            got.append(hybrid_step(sched, x, x0, x1, frm, to, 0.0, np.zeros(2)))
        elif to[1] == 0.0:
            got.append(regression_step(sched, x, x0, x1, frm[0], to[0]))
        for out in got:
            np.testing.assert_allclose(out, want, rtol=0.0, atol=1e-10)


class TestRestore:
    def test_one_step_regression_identity(self):
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        x1 = np.array([1.0, -0.5, 0.25])
        cfg = SamplerConfig(trajectory=Regression(phi=sched.phi), n_steps=1)
        out = restore(sched, den, x1, cfg)
        pred = den.predict(x1, x1, sched.phi, 0.0)
        rel = np.max(np.abs(out - pred)) / max(1.0, np.max(np.abs(pred)))
        assert rel <= 1e-15

    def test_multi_step_regression_with_cheat_oracle(self):
        sched = GvpSchedule(0.2, 1.0)
        x0 = np.array([0.3, 0.9])
        cfg = SamplerConfig(trajectory=Regression(phi=sched.phi), n_steps=5)
        out = restore(sched, CheatDenoiser(x0), np.array([1.0, -1.0]), cfg)
        np.testing.assert_allclose(out, x0, atol=1e-12)

    def test_zero_delta_reroutes_to_regression(self):
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        x1 = np.array([0.7, 0.1])
        reg = restore(
            sched, den, x1,
            SamplerConfig(trajectory=Regression(phi=sched.phi), n_steps=4, eta=0.9),
        )
        for traj in (Elliptical(phi=sched.phi, delta=0.0),
                     Linear(phi=sched.phi, delta=0.0)):
            out = restore(
                sched, den, x1, SamplerConfig(trajectory=traj, n_steps=4, eta=0.9)
            )
            assert np.array_equal(out, reg)

    def test_single_step_on_noiseless_start_needs_full_stochasticity(self):
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        traj = Elliptical(phi=sched.phi, delta=0.4)
        x1 = np.array([1.0])
        with pytest.raises(ConfigError):
            restore(sched, den, x1, SamplerConfig(trajectory=traj, n_steps=1, eta=0.0))
        out = restore(
            sched, den, x1, SamplerConfig(trajectory=traj, n_steps=1, eta=1.0)
        )
        pred = den.predict(x1, x1, sched.phi, 0.0)
        np.testing.assert_allclose(out, pred, atol=1e-12)

    def test_single_step_linear_path_allows_any_eta(self):
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        traj = Linear(phi=sched.phi, delta=0.4)
        out = restore(
            sched, den, np.array([1.0]),
            SamplerConfig(trajectory=traj, n_steps=1, eta=0.0, seed=3),
        )
        assert np.all(np.isfinite(out))

    def test_deterministic_given_seed(self):
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        traj = Elliptical(phi=sched.phi, delta=0.6)
        cfg = SamplerConfig(trajectory=traj, n_steps=8, eta=0.4, seed=21)
        a = restore(sched, den, np.array([1.0, 2.0]), cfg)
        b = restore(sched, den, np.array([1.0, 2.0]), cfg)
        assert np.array_equal(a, b)

    def test_eta_zero_depends_only_on_boot_draw(self):
        """At eta = 0 every post-boot noise coefficient vanishes, so a single
        supplied draw fully determines the run at any step count: the run
        reads one item from an iterator that holds one."""
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        traj = Elliptical(phi=sched.phi, delta=0.6)
        z = np.array([0.37])
        for n in (2, 5, 20):
            p = sampler.plan(sched, SamplerConfig(trajectory=traj, n_steps=n, eta=0.0))
            assert p.n_draws == 1
            out = sampler._run(p, den, np.array([1.0]), iter([z]))
            assert np.all(np.isfinite(out))

    def test_two_call_run_matches_one_step_regression(self):
        """Any two-call elliptical run collapses to the one-step regression
        answer: the final step to g = 0 keeps only the fresh prediction."""
        sched = GvpSchedule(0.5, 1.0)
        x0 = np.array([0.4, -0.2])
        den = CheatDenoiser(x0)
        x1 = np.array([1.0, 0.6])
        reg = restore(
            sched, den, x1,
            SamplerConfig(trajectory=Regression(phi=sched.phi), n_steps=1),
        )
        for eta in (0.0, 0.5):
            out = restore(
                sched, den, x1,
                SamplerConfig(
                    trajectory=Elliptical(phi=sched.phi, delta=math.pi / 4),
                    n_steps=2, eta=eta, seed=3,
                ),
            )
            np.testing.assert_allclose(out, reg, atol=1e-15)

    def test_nfe2_collapse_across_delta(self):
        """With a shared boot draw and eta < 1, two-call runs give the same
        output for every apex delta (the final step to g = 0 keeps only the
        fresh prediction)."""
        sched = GvpSchedule(0.5, 1.0)
        x0 = np.array([0.3, -0.8])
        den = CheatDenoiser(x0)
        x1 = np.array([1.0, 0.2])
        z = np.array([0.5, -0.1])
        outs = []
        for delta in (math.pi / 8, math.pi / 4, HALF_PI):
            traj = Elliptical(phi=sched.phi, delta=delta)
            p = sampler.plan(sched, SamplerConfig(trajectory=traj, n_steps=2, eta=0.0))
            outs.append(sampler._run(p, den, x1, iter([z])))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_batch_matches_sequential(self):
        sched = GvpSchedule(0.3, 1.0)
        den = GaussianOracle(rho=0.3)
        traj = Linear(phi=sched.phi, delta=0.5)
        cfg = SamplerConfig(trajectory=traj, n_steps=6, eta=0.7, seed=2)
        rng = np.random.default_rng(11)
        x1s = rng.normal(size=(4, 2))
        batch = restore_batch(sched, den, x1s, cfg)
        for i in range(4):
            single = restore(
                sched, den, x1s[i], cfg, rng=np.random.default_rng([cfg.seed, i])
            )
            np.testing.assert_array_equal(batch[i], single)

    def test_item_offset_slice_matches_full_batch(self):
        sched = GvpSchedule(0.4, 1.0)
        den = GaussianOracle(rho=0.4)
        x1s = np.random.default_rng(12).normal(size=(9, 2))
        for traj, eta in ((Elliptical(phi=sched.phi, delta=0.7), 0.5),
                          (Linear(phi=sched.phi, delta=0.4), 1.0)):
            cfg = SamplerConfig(trajectory=traj, n_steps=5, eta=eta, seed=4)
            full = restore_batch(sched, den, x1s, cfg)
            for a, b in ((0, 3), (3, 9), (4, 5)):
                part = restore_batch(sched, den, x1s[a:b], cfg, item_offset=a)
                assert np.array_equal(part, full[a:b])

    def test_streams_seeded_only_when_a_run_draws(self, monkeypatch):
        """restore_batch seeds its per-item streams once, at the run's first
        draw, for exactly the batch's item ids: a batch the denoiser rejects,
        one boot step from g = 0 (kappa = 0), and an empty batch seed none."""
        sched = GvpSchedule(0.5, 1.0)
        den = MlpDenoiser(dim=2, hidden=8, emb_dim=4)
        seeded = _spy_item_noise(monkeypatch)
        traj = Elliptical(phi=sched.phi, delta=math.pi / 8.0)
        with pytest.raises(DimensionMismatch):
            restore_batch(sched, den, np.ones((1, 3)),
                          SamplerConfig(trajectory=traj, n_steps=10))
        one = SamplerConfig(trajectory=traj, n_steps=1, eta=1.0)
        assert np.all(np.isfinite(restore_batch(sched, den, np.ones((3, 2)), one)))
        assert seeded == []
        assert restore_batch(sched, den, np.ones((0, 2)), SamplerConfig(trajectory=traj)).size == 0
        assert all(ids == [] for ids in seeded)
        for rows, offset in ((3, 5), (40, 2**32 - 20)):
            seeded.clear()
            cfg = SamplerConfig(trajectory=traj, n_steps=6, eta=0.5, seed=2**32 - 1)
            restore_batch(sched, den, np.ones((rows, 2)), cfg, item_offset=offset)
            assert seeded == [list(range(offset, offset + rows))]

    def test_non_finite_output_rejected(self):
        """A denoiser whose prediction for the last row is NaN makes every
        restore raise NonFiniteOutput, with a message counting the bad rows."""

        class NanRow:
            def predict(self, x, x1, r, g):
                out = np.zeros(np.shape(x))
                np.atleast_2d(out)[-1, 0] = np.nan
                return out

        sched = GvpSchedule(0.5, 1.0)
        x1s = np.ones((3, 2))
        for traj in (Regression(phi=sched.phi), Elliptical(phi=sched.phi, delta=0.5),
                     Linear(phi=sched.phi, delta=0.5)):
            cfg = SamplerConfig(trajectory=traj, n_steps=4, eta=0.5)
            with pytest.raises(NonFiniteOutput, match="in 1 of 3 rows"):
                restore_batch(sched, NanRow(), x1s, cfg)
            with pytest.raises(NonFiniteOutput, match="in 1 of 1 rows"):
                restore(sched, NanRow(), x1s[0], cfg)

    def test_gaussian_conditional_law_small(self):
        """Endpoint cloud approximates the exact conditional law (loose
        bounds; the acceptance suite runs the pinned version)."""
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        traj = Elliptical(phi=sched.phi, delta=HALF_PI)
        cfg = SamplerConfig(trajectory=traj, n_steps=100, eta=0.0, seed=1)
        out = restore(sched, den, np.ones(4000), cfg)
        assert out.mean() == pytest.approx(0.5, abs=0.05)
        assert out.var() == pytest.approx(0.72, abs=0.06)

    def test_config_validation(self):
        traj = Elliptical(phi=0.5, delta=0.3)
        with pytest.raises(ConfigError):
            SamplerConfig(trajectory=traj, n_steps=0)
        with pytest.raises(ConfigError):
            SamplerConfig(trajectory=traj, n_steps=2, eta=1.2)
        with pytest.raises(ConfigError):
            SamplerConfig(trajectory=traj, n_steps=2, boot_epsilon=0.0)

    def test_seed_and_item_offset_validation(self):
        """A seed or item_offset that is negative, not an integer, or a bool
        raises ConfigError; numpy integers and seeds of 2**32 and above are
        accepted."""
        traj = Elliptical(phi=0.5, delta=0.3)
        for seed in (-1, 1.5, 2.0, True, "3", np.int64(-2)):
            with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
                SamplerConfig(trajectory=traj, seed=seed)
        for seed in (0, np.uint32(4), np.int64(5), np.uint64(2**40), 2**70):
            assert SamplerConfig(trajectory=traj, seed=seed).seed == seed
        sched = GvpSchedule(0.5, 1.0)
        cfg = SamplerConfig(trajectory=Elliptical(phi=sched.phi, delta=0.3), n_steps=3)
        for offset in (-1, 0.5, np.int64(-3)):
            with pytest.raises(ConfigError, match="item_offset"):
                restore_batch(sched, GaussianOracle(rho=0.5), np.ones((2, 2)), cfg,
                              item_offset=offset)


def _oracle_points(traj, cfg):
    """The (r, g) points a noisy run visits: the path start, the boot point
    (paths starting at g = 0 with n_steps > 1), then the uniform grid."""
    boot = traj.starts_noiseless and cfg.n_steps > 1
    grid = traj.discretize(cfg.n_steps - boot)
    points = [(float(r), float(g)) for r, g in zip(grid.r, grid.g)]
    if boot:
        direction = 1.0 if traj.t_end > traj.t_start else -1.0
        points.insert(1, traj.point(traj.t_start + direction * cfg.boot_epsilon))
    return points


def _draws_needed(traj, cfg):
    """Draws a run consumes: one for a start at g > 0, then one per step with
    nonzero kappa; the step from g = 0 is the eta = 1 boot step."""
    gs = [g for _, g in _oracle_points(traj, cfg)]
    needed = 0 if traj.starts_noiseless else 1
    for g1, g2 in zip(gs[:-1], gs[1:]):
        needed += kappa(1.0 if g1 == 0.0 else cfg.eta, g1, g2) != 0.0
    return needed


def _oracle_restore(sched, den, x1, cfg, draw):
    """Step-by-step restoration from the public step functions, taking one
    draw() for a noisy start and one per step whose kappa is nonzero."""
    traj = cfg.trajectory
    x = np.array(x1, dtype=np.float64, copy=True)
    if isinstance(traj, Regression) or traj.delta == 0.0:
        rs = [float(r) for r in Regression(phi=sched.phi).discretize(cfg.n_steps).r]
        for r1, r2 in zip(rs[:-1], rs[1:]):
            x = regression_step(sched, x, den.predict(x, x1, r1, 0.0), x1, r1, r2)
        return x
    points = _oracle_points(traj, cfg)
    r0, g0 = points[0]
    if g0 > 0.0:
        c0 = sched.coeffs(r0, g0)
        x = c0.lam * c0.beta * x1 + c0.gamma * draw()
    for frm, to in zip(points[:-1], points[1:]):
        x0hat = den.predict(x, x1, *frm)
        boot = frm[1] == 0.0
        if kappa(1.0 if boot else cfg.eta, frm[1], to[1]) != 0.0:
            z = draw()
        else:
            z = np.zeros_like(x)
        if boot:
            x = boot_step(sched, x, x0hat, x1, frm, to, z)
        else:
            x = hybrid_step(sched, x, x0hat, x1, frm, to, cfg.eta, z)
    return x


def _trained_like_mlp():
    """A small MLP with a nonzero output layer, so its predictions vary."""
    net = MlpDenoiser(dim=2, hidden=8, emb_dim=4, sigma_d=1.0)
    net.reinit(np.random.default_rng(17))
    net.params["W3"][:] = np.random.default_rng(18).normal(0.0, 0.3, size=(8, 2))
    return net


_DENOISERS = {"oracle": GaussianOracle(rho=0.5), "mlp": _trained_like_mlp()}

_run_settings = dict(
    kind=st.sampled_from(sorted(TRAJECTORY_KINDS)),
    delta=st.one_of(st.sampled_from([0.0, math.pi / 8, HALF_PI]), st.floats(0.0, HALF_PI)),
    eta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    n_steps=st.integers(1, 15),
    seed=st.integers(0, 2**32 - 1),
    den=st.sampled_from(sorted(_DENOISERS)),
)


def _config(sched, kind, delta, eta, n_steps, seed):
    traj = _path(kind, sched.phi, delta=delta, p=1.5)
    return SamplerConfig(trajectory=traj, n_steps=n_steps, eta=eta, seed=seed)


def _rejected(cfg):
    """A path from g = 0 in one step is defined only at eta = 1."""
    traj = cfg.trajectory
    regressive = isinstance(traj, Regression) or traj.delta == 0.0
    return not regressive and traj.starts_noiseless and cfg.n_steps == 1 and cfg.eta != 1.0


class TestNoiseContract:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["elliptical", "linear", "vpath", "bezier"]),
        delta=st.floats(0.01, HALF_PI),
        eta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        n_steps=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_count_and_sources_agree(self, kind, delta, eta, n_steps, seed):
        """The run reads exactly the oracle's count of draws, the plan's
        n_draws, from a list of them (one fewer runs out), and restore's
        block drawn from a passed generator gives the same output as that
        list drawn one by one from an equal generator."""
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        traj = _path(kind, sched.phi, delta=delta, p=1.5)
        cfg = SamplerConfig(trajectory=traj, n_steps=n_steps, eta=eta, seed=seed)
        x1 = np.random.default_rng(seed).normal(size=2)
        if traj.starts_noiseless and n_steps == 1 and eta != 1.0:
            with pytest.raises(ConfigError):
                restore(sched, den, x1, cfg)
            return
        p = sampler.plan(sched, cfg)
        needed = _draws_needed(traj, cfg)
        assert p.n_draws == needed
        draws = np.random.default_rng(seed)
        zs = [draws.normal(0.0, sched.sigma_d, size=2) for _ in range(needed)]
        from_list = sampler._run(p, den, x1, iter(zs))
        assert np.all(np.isfinite(from_list))
        if needed:
            with pytest.raises(StopIteration):
                sampler._run(p, den, x1, iter(zs[:-1]))
        from_rng = restore(sched, den, x1, cfg, rng=np.random.default_rng(seed))
        assert np.array_equal(from_rng, from_list)

    def test_noise_read_up_to_the_draw_count(self):
        """A run reads exactly the plan's draw count of items from a noise
        generator that raises past that point, and a regression path reads
        none; the result equals restore drawing from `rng`."""
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        x1 = np.array([0.3, -0.2])

        def items(n):
            rng = np.random.default_rng(3)
            for _ in range(n):
                yield rng.normal(0.0, sched.sigma_d, size=2)
            raise AssertionError(f"noise read past draw {n}")

        for traj, eta, noisy in (
            (Elliptical(phi=sched.phi, delta=0.6), 0.5, True),
            (Linear(phi=sched.phi, delta=0.6), 0.0, True),
            (Regression(phi=sched.phi), 0.5, False),
        ):
            cfg = SamplerConfig(trajectory=traj, n_steps=10, eta=eta, seed=4)
            n = sampler.plan(sched, cfg).n_draws
            assert (n > 0) == noisy
            got = sampler._run(sampler.plan(sched, cfg), den, x1, items(n))
            want = restore(sched, den, x1, cfg, rng=np.random.default_rng(3))
            assert got.tobytes() == want.tobytes()


def _default_rng_block(seed, first, n_draws, shape, sigma_d):
    """The noise contract, spelled out: item i's draws come from
    default_rng([seed, first + i])."""
    block = np.empty((n_draws, *shape))
    for i in range(shape[0]):
        gen = np.random.default_rng([seed, first + i])
        block[:, i] = gen.normal(0.0, sigma_d, size=(n_draws, *shape[1:]))
    return block


# Ids and seeds on both sides of 2**32, where the vectorized seeding stops.
_ids = st.one_of(st.integers(0, 2**33), st.integers(2**32 - 40, 2**32 + 40),
                 st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]))
_int_types = st.sampled_from([int, np.int64, np.uint64])


class TestNoiseStreams:
    @settings(max_examples=200, deadline=None)
    @given(seed=_ids, first=_ids, n=st.integers(0, 24), as_type=_int_types)
    def test_computed_states_equal_numpys(self, seed, first, n, as_type):
        """Where restore_batch's noise computes PCG64 states itself, each
        (state, inc) equals PCG64(SeedSequence([seed, item])).state: it does
        so for a seed and at least _FAST_SEEDING_MIN_ITEMS items below 2**32,
        and only there, and the block equals the default_rng one either way,
        for numpy-integer seeds too."""
        assume(as_type is int or seed < 2**63)
        calls = []
        real = sampler._pcg64_states

        def spy(*args):
            calls.append(args)
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_pcg64_states", spy)
            got = sampler._item_noise(as_type(seed), first, 2, (n, 2), 0.7)
        assert got.tobytes() == _default_rng_block(seed, first, 2, (n, 2), 0.7).tobytes()
        fits = min(n, 2**32 - first) >= sampler._FAST_SEEDING_MIN_ITEMS and seed < 2**32
        assert bool(calls) == fits
        for call_seed, call_first, call_n in calls:
            assert type(call_seed) is int and call_seed < 2**32
            assert call_first + call_n <= 2**32
            for j, (state, inc) in enumerate(real(call_seed, call_first, call_n)):
                want = np.random.PCG64(np.random.SeedSequence([call_seed, call_first + j])).state
                assert want["state"] == {"state": state, "inc": inc}

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), first=st.integers(0, 2**32 - 1))
    def test_one_item_state(self, seed, first):
        (state, inc), = sampler._pcg64_states(seed, first, 1)
        want = np.random.PCG64(np.random.SeedSequence([seed, first])).state["state"]
        assert (state, inc) == (want["state"], want["inc"])

    @settings(max_examples=40, deadline=None)
    @given(seed=_ids, offset=_ids,
           rows=st.sampled_from([1, 5, 7, 8, 9, 30, sampler._FAST_SEEDING_MIN_ITEMS - 1,
                                 sampler._FAST_SEEDING_MIN_ITEMS]),
           eta=st.sampled_from([0.0, 0.5, 1.0]))
    def test_batch_equals_default_rng_oracle(self, seed, offset, rows, eta):
        """restore_batch equals, byte for byte, sequential restores each fed
        default_rng([seed, offset + i]), for batches of 1 row, below the
        fast-seeding crossover, above it, and straddling 2**32."""
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        cfg = SamplerConfig(trajectory=Elliptical(phi=sched.phi, delta=0.5), n_steps=5,
                            eta=eta, seed=seed)
        x1s = np.random.default_rng(rows).normal(size=(rows, 2))
        want = np.stack([
            restore(sched, den, x1s[i], cfg, rng=np.random.default_rng([seed, offset + i]))
            for i in range(rows)
        ])
        got = restore_batch(sched, den, x1s, cfg, item_offset=offset)
        assert got.tobytes() == want.tobytes()

    def test_seeding_runs_under_warnings_as_errors(self):
        """Importing the sampler and seeding batches across 2**32, at the
        largest seed the fast path takes, raises no numpy overflow warning
        under -W error, and the seeding's self-check passes."""
        code = (
            "import numpy as np\n"
            "from rgflow import sampler\n"
            "for seed, first in ((2**32 - 1, 2**32 - 30), (0, 0), (2**32 - 1, 2**32 - 1)):\n"
            "    sampler._item_noise(seed, first, 3, (40, 2), 1.0)\n"
            "    sampler._pcg64_states(seed, min(first, 2**32 - 1), 1)\n"
            "assert sampler._seeding_matches_numpy()\n"
        )
        done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestPlan:
    @settings(max_examples=80, deadline=None)
    @given(**_run_settings)
    def test_plan_loop_matches_step_by_step_oracle(self, kind, delta, eta, n_steps, seed, den):
        """restore and restore_batch, run over the cached plan with one noise
        block per item, equal the step-by-step oracle bit for bit, and leave a
        passed generator where the oracle's sequential draws leave it."""
        sched = GvpSchedule(0.5, 1.0)
        den = _DENOISERS[den]
        cfg = _config(sched, kind, delta, eta, n_steps, seed)
        x1s = np.random.default_rng(seed).normal(size=(3, 2))
        if _rejected(cfg):
            with pytest.raises(ConfigError):
                restore(sched, den, x1s[0], cfg)
            return
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = restore(sched, den, x1s[0], cfg, rng=got_rng)
        want = _oracle_restore(
            sched, den, x1s[0], cfg, lambda: want_rng.normal(0.0, sched.sigma_d, size=2)
        )
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        gens = [np.random.default_rng([seed, i]) for i in range(len(x1s))]
        want = _oracle_restore(
            sched, den, x1s, cfg,
            lambda: np.stack([g.normal(0.0, sched.sigma_d, size=2) for g in gens]),
        )
        assert restore_batch(sched, den, x1s, cfg).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        **{k: v for k, v in _run_settings.items() if k != "den"},
        n_items=st.integers(1, 9),
        cuts=st.lists(st.integers(0, 9), max_size=4),
        offset=st.integers(0, 50),
    )
    def test_batch_invariant_under_chunking(
        self, kind, delta, eta, n_steps, seed, n_items, cuts, offset
    ):
        """Any split of a batch into chunks, each restored with its
        item_offset, reproduces the whole batch bit for bit.  The Gaussian
        oracle works per coordinate; an MLP's matmuls may round differently
        for another row count."""
        sched = GvpSchedule(0.5, 1.0)
        den = _DENOISERS["oracle"]
        cfg = _config(sched, kind, delta, eta, n_steps, seed)
        if _rejected(cfg):
            return
        x1s = np.random.default_rng(seed).normal(size=(n_items, 2))
        whole = restore_batch(sched, den, x1s, cfg, item_offset=offset)
        bounds = sorted({0, n_items, *(c for c in cuts if c < n_items)})
        parts = [
            restore_batch(sched, den, x1s[a:b], cfg, item_offset=offset + a)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_kappa_called_once_per_step_then_cached(self, monkeypatch):
        """Building a plan evaluates each step's k^s and kappa once, on every
        path (along g = 0 it is the eta = 1 step's, kappa exactly 0); a
        second restore with an equal config reuses the plan and evaluates
        them not at all."""
        calls = []
        real = sampler._ks_kappa

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sampler, "_ks_kappa", counting)
        sampler._plan.cache_clear()
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        x1 = np.array([0.3, -0.2])
        for traj in (
            Elliptical(phi=sched.phi, delta=0.6),
            Linear(phi=sched.phi, delta=0.6),
            Regression(phi=sched.phi),
        ):
            cfg = SamplerConfig(trajectory=traj, n_steps=12, eta=0.5, seed=1)
            calls.clear()
            restore(sched, den, x1, cfg)
            assert len(calls) == 12
            calls.clear()
            restore(sched, den, x1, SamplerConfig(trajectory=traj, n_steps=12, eta=0.5, seed=2))
            restore_batch(sched, den, np.ones((3, 2)), cfg)
            assert calls == []

    @pytest.mark.parametrize("kind", sorted(TRAJECTORY_KINDS))
    @pytest.mark.parametrize("delta", [0.0, math.pi / 8, HALF_PI])
    def test_start_state_is_the_interpolant_at_the_start_point(self, kind, delta):
        """The plan's start state b x1 + kappa z is the forward map at the
        run's first point with the same z (x0's weight alpha(phi) is 0 to
        rounding), and a start draws exactly when its g is above 0."""
        for rho, sd in ((0.5, 1.0), (-0.3, 0.7), (0.9, 1.3)):
            sched = GvpSchedule(rho, sd)
            cfg = SamplerConfig(_path(kind, sched.phi, delta=delta, p=2.0), n_steps=6, eta=1.0)
            p = sampler.plan(sched, cfg)
            x0, x1, z = np.random.default_rng(9).normal(0.0, sd, size=(3, 4))
            got = sampler._begin(p.start, x1, z)
            np.testing.assert_allclose(got, interpolate(sched, x0, x1, z, *p.times[0]),
                                       rtol=0.0, atol=1e-12)
            assert (p.start.kappa != 0.0) == (p.times[0][1] > 0.0)
            if p.times[0][1] == 0.0:
                assert got.tobytes() == x1.tobytes()

    def test_passed_rng_advances_by_exactly_the_draw_count(self):
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        for traj in (Elliptical(phi=sched.phi, delta=0.6), Linear(phi=sched.phi, delta=0.6)):
            for eta in (0.0, 0.5, 1.0):
                cfg = SamplerConfig(trajectory=traj, n_steps=10, eta=eta)
                n_draws = sampler.plan(sched, cfg).n_draws
                assert n_draws == _draws_needed(traj, cfg)
                g = np.random.default_rng(5)
                restore(sched, den, np.ones(3), cfg, rng=g)
                fresh = np.random.default_rng(5)
                for _ in range(n_draws):
                    fresh.normal(size=3)
                assert g.normal(size=4).tobytes() == fresh.normal(size=4).tobytes()

    def test_rejections_come_before_any_denoiser_call_or_draw(self, monkeypatch):
        """A path from g = 0 in one step below eta = 1, a schedule whose phi
        the path leaves, a restore input that is not a vector and a negative
        item_offset are all rejected before the denoiser runs or a generator
        is built."""
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or real(*a))
        seeded = _spy_item_noise(monkeypatch)

        class Spy:
            calls = 0

            def predict(self, x, x1, r, g):
                Spy.calls += 1
                return np.zeros(np.shape(x))

        sched = GvpSchedule(0.5, 1.0)
        x1s = np.ones((2, 2))
        one_step = SamplerConfig(trajectory=Elliptical(phi=sched.phi, delta=0.5), n_steps=1)
        wide = SamplerConfig(trajectory=Linear(phi=2 * sched.phi, delta=0.5), n_steps=4)
        for cfg, error in ((one_step, ConfigError), (wide, DomainError)):
            with pytest.raises(error):
                restore_batch(sched, Spy(), x1s, cfg)
            with pytest.raises(error):
                restore(sched, Spy(), x1s[0], cfg)
        cfg = SamplerConfig(trajectory=Linear(phi=sched.phi, delta=0.5), n_steps=4)
        with pytest.raises(DimensionMismatch, match="restore_batch"):
            restore(sched, Spy(), x1s, cfg)
        with pytest.raises(ConfigError, match="item_offset"):
            restore_batch(sched, Spy(), x1s, cfg, item_offset=-1)
        assert Spy.calls == 0
        assert built == [] and seeded == []

    @pytest.mark.parametrize("kind", sorted(TRAJECTORY_KINDS))
    def test_path_of_another_phi_rejected_before_any_call_or_draw(self, monkeypatch, kind):
        """A path narrower or wider than its schedule, by half or by one ulp,
        is a DomainError that names both phis, from restore, restore_batch
        and euler_integrate, before the denoiser runs or a generator is
        built.  (A narrower path used to end at r = -phi/2, not at the clean
        end, and a Regression's phi was replaced by the schedule's.)"""
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or real(*a))
        seeded = _spy_item_noise(monkeypatch)

        class Spy:
            calls = 0

            def predict(self, x, x1, r, g):
                Spy.calls += 1
                return np.zeros(np.shape(x))

        sched = GvpSchedule(0.5, 1.0)
        x1s = np.ones((3, 2))
        for phi in (sched.phi / 2, np.nextafter(sched.phi, 0.0),
                    np.nextafter(sched.phi, 1.0), 1.5 * sched.phi):
            traj = _path(kind, phi, delta=math.pi / 8, p=2.0)
            cfg = SamplerConfig(trajectory=traj, n_steps=10, eta=0.5)
            named = f"phi={phi} is not the schedule's phi={sched.phi}"
            for run in (lambda: restore(sched, Spy(), x1s[0], cfg),
                        lambda: restore_batch(sched, Spy(), x1s, cfg),
                        lambda: euler_integrate(sched, traj, Spy(), x1s, x1s, 10)):
                with pytest.raises(DomainError, match=re.escape(named)):
                    run()
        assert Spy.calls == 0
        assert built == [] and seeded == []


class TestInputGuards:
    @pytest.mark.parametrize(
        "x1", [np.float64(0.3), 0.3, np.ones((1, 2)), np.ones((3, 2)), np.ones((1, 1, 2))],
        ids=["0-d", "scalar", "one-row", "3-row", "3-d"])
    def test_restore_input_not_a_vector_rejected(self, x1):
        """restore takes one point: any input that is not a vector, a
        one-row matrix included, is a DimensionMismatch that names
        restore_batch, on a path that draws and on one that does not."""
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        for traj in (Regression(phi=sched.phi), Elliptical(phi=sched.phi, delta=0.5)):
            cfg = SamplerConfig(trajectory=traj, n_steps=4, eta=0.5)
            with pytest.raises(DimensionMismatch, match=r"not shape \(.*\); use restore_batch"):
                restore(sched, den, x1, cfg)
            with pytest.raises(DimensionMismatch, match="use restore_batch"):
                restore(sched, den, x1, cfg, rng=np.random.default_rng(0))

    def test_foreign_prediction_of_another_shape_rejected(self):
        """A prediction called through predict at every step (a denoiser
        without bind, or an MlpDenoiser whose predict is replaced) must have
        the state's shape: one that would broadcast raises DimensionMismatch."""

        class Short:
            def predict(self, x, x1, r, g):
                return np.zeros(1)

        class ShortMlp(MlpDenoiser):
            def predict(self, x, x1, r, g):
                return np.zeros(1)

        sched = GvpSchedule(0.5, 1.0)
        for traj in (Regression(phi=sched.phi), Elliptical(phi=sched.phi, delta=0.5),
                     Linear(phi=sched.phi, delta=0.5)):
            cfg = SamplerConfig(trajectory=traj, n_steps=4, eta=0.5)
            for den in (Short(), ShortMlp(dim=2, hidden=8, emb_dim=4)):
                with pytest.raises(DimensionMismatch, match="prediction"):
                    restore(sched, den, np.array([0.3, -0.2]), cfg)
                with pytest.raises(DimensionMismatch, match="prediction"):
                    restore_batch(sched, den, np.ones((3, 2)), cfg)

    def test_foreign_prediction_converted_to_float64(self):
        """A denoiser whose predict returns a list restores as one returning
        the same values as an array."""

        class Halving:
            def __init__(self, wrap):
                self.wrap = wrap

            def predict(self, x, x1, r, g):
                return self.wrap(0.5 * np.asarray(x1))

        sched = GvpSchedule(0.5, 1.0)
        x1 = np.array([0.3, -0.2])
        for traj in (Regression(phi=sched.phi), Elliptical(phi=sched.phi, delta=0.5),
                     Linear(phi=sched.phi, delta=0.5)):
            cfg = SamplerConfig(trajectory=traj, n_steps=4, eta=0.5, seed=3)
            want = restore(sched, Halving(np.asarray), x1, cfg)
            got = restore(sched, Halving(lambda a: a.tolist()), x1, cfg)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", sorted(TRAJECTORY_KINDS))
    def test_empty_batch_returns_empty_result(self, kind, monkeypatch):
        dens = (GaussianOracle(rho=0.5), MlpDenoiser(dim=2, hidden=8, emb_dim=4))
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or real(*a))
        sched = GvpSchedule(0.5, 1.0)
        traj = _path(kind, sched.phi, delta=0.5)
        cfg = SamplerConfig(trajectory=traj, n_steps=5, eta=0.5)
        seeded = _spy_item_noise(monkeypatch)
        for den in dens:
            out = restore_batch(sched, den, np.zeros((0, 2)), cfg)
            assert out.shape == (0, 2)
        assert built == []
        assert all(ids == [] for ids in seeded)

    def test_non_finite_input_rejected_before_the_run(self, monkeypatch):
        """NaN or inf in x1 raises DomainError counting the bad rows, before
        any denoiser call or generator, and without a numpy warning."""
        dens = (GaussianOracle(rho=0.5), MlpDenoiser(dim=2, hidden=8, emb_dim=4))
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or real(*a))
        sched = GvpSchedule(0.5, 1.0)
        seeded = _spy_item_noise(monkeypatch)
        x1s = np.ones((4, 2))
        x1s[1, 0] = np.nan
        x1s[3, 1] = -np.inf
        calls = []
        for den in dens:
            real_predict = den.predict
            monkeypatch.setattr(den, "predict", lambda *a, f=real_predict: calls.append(1) or f(*a))
            for traj in (Regression(phi=sched.phi), Elliptical(phi=sched.phi, delta=0.5),
                         Linear(phi=sched.phi, delta=0.5)):
                cfg = SamplerConfig(trajectory=traj, n_steps=4, eta=0.5)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(DomainError, match="in 2 of 4 rows"):
                        restore_batch(sched, den, x1s, cfg)
                    with pytest.raises(DomainError, match="in 1 of 1 rows"):
                        restore(sched, den, x1s[1], cfg)
                    with pytest.raises(DomainError, match="in 1 of 1 rows"):
                        restore(sched, den, x1s[3], cfg, rng=real(0))
                assert caught == []
        assert calls == []
        assert built == [] and seeded == []
