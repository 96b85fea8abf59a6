"""Schedule coefficients: boundary values, variance identity, derivatives."""

import math

import numpy as np
import pytest

from rgflow import (
    DomainError,
    Elliptical,
    GvpSchedule,
)
from rgflow.schedule import schedule_grid

HALF_PI = math.pi / 2.0


def bisect_half_range(rho, tol=1e-14):
    """Independent oracle: the half-range is the root of beta(-x) = 0,
    found by bisection on [0, pi/2]."""
    sched = GvpSchedule(rho, 1.0)
    lo, hi = 0.0, HALF_PI
    f = lambda x: float(sched.beta(-x))
    assert f(lo) > 0.0 and f(hi) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConstruction:
    def test_phi_rho_zero(self):
        assert GvpSchedule(0.0, 1.0).phi == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_phi_rho_half(self):
        assert GvpSchedule(0.5, 1.0).phi == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_degenerate_rho_rejected(self):
        with pytest.raises(DomainError):
            GvpSchedule(1.0, 1.0)
        with pytest.raises(DomainError):
            GvpSchedule(-1.0, 1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(DomainError):
            GvpSchedule(0.0, sigma_d=0.0)
        with pytest.raises(DomainError):
            GvpSchedule(0.0, sigma_d=-1.0)

    def test_phi_matches_bisection_oracle(self):
        rng = np.random.default_rng(2)
        for rho in rng.uniform(-0.95, 0.95, size=20):
            assert GvpSchedule(rho, 1.0).phi == pytest.approx(
                bisect_half_range(rho), abs=1e-12
            )


class TestCoeffs:
    def test_boundary_tuples(self):
        sched = GvpSchedule(0.3, 1.0)
        lo = sched.coeffs(-sched.phi, 0.0)
        np.testing.assert_allclose(
            [lo.alpha, lo.beta, lo.lam, lo.gamma], [1, 0, 1, 0], atol=1e-12
        )
        hi = sched.coeffs(sched.phi, 0.0)
        np.testing.assert_allclose(
            [hi.alpha, hi.beta, hi.lam, hi.gamma], [0, 1, 1, 0], atol=1e-12
        )

    def test_center_point_uncorrelated(self):
        c = GvpSchedule(0.0, 1.0).coeffs(0.0, 0.0)
        assert c.alpha == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert c.beta == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert (c.lam, c.gamma) == (1.0, 0.0)

    def test_generation_axis_exact(self):
        sched = GvpSchedule(0.2, 1.0)
        c0 = sched.coeffs(0.0, 0.0)
        assert (c0.lam, c0.gamma) == (1.0, 0.0)
        c1 = sched.coeffs(0.0, HALF_PI)
        assert c1.gamma == 1.0
        assert abs(c1.lam) < 1e-15

    def test_variance_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            rho = rng.uniform(-0.99, 0.99)
            sched = GvpSchedule(rho, 1.0)
            r = rng.uniform(-sched.phi, sched.phi)
            c = sched.coeffs(r, 0.0)
            ident = c.alpha**2 + c.beta**2 + 2.0 * rho * c.alpha * c.beta
            assert ident == pytest.approx(1.0, abs=1e-12)

    def test_coeffs_bounded(self):
        """For rho >= 0 all four coefficients stay in [-1, 1]; for rho < 0
        the data coefficients can peak at 1/sqrt(1-rho^2) inside the range
        (the variance identity still caps the joint magnitude)."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            rho = rng.uniform(-0.95, 0.95)
            sched = GvpSchedule(rho, 1.0)
            c = sched.coeffs(
                rng.uniform(-sched.phi, sched.phi), rng.uniform(0.0, HALF_PI)
            )
            cap = 1.0 if rho >= 0.0 else 1.0 / math.sqrt(1.0 - rho * rho)
            assert -cap - 1e-12 <= min(c.alpha, c.beta)
            assert max(c.alpha, c.beta) <= cap + 1e-12
            assert 0.0 <= c.lam <= 1.0 and 0.0 <= c.gamma <= 1.0

    def test_domain_is_strict(self):
        sched = GvpSchedule(0.4, 1.0)
        with pytest.raises(DomainError):
            sched.coeffs(sched.phi + 1e-6, 0.0)
        with pytest.raises(DomainError):
            sched.coeffs(0.0, -1e-6)
        with pytest.raises(DomainError):
            sched.coeffs(0.0, HALF_PI + 1e-6)


class TestDerivs:
    def test_center_point_uncorrelated(self):
        d = GvpSchedule(0.0, 1.0).coeff_derivs(0.0, 0.3)
        assert d.dalpha == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
        assert d.dbeta == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_generation_derivs_exact_at_zero(self):
        d = GvpSchedule(0.3, 1.0).coeff_derivs(0.0, 0.0)
        assert d.dlambda == 0.0
        assert d.dgamma == 1.0

    def test_matches_finite_differences(self):
        h = 1e-6
        for rho in (-0.8, 0.0, 0.6):
            sched = GvpSchedule(rho, 1.0)
            rs = np.linspace(-sched.phi + h, sched.phi - h, 20)
            gs = np.linspace(h, HALF_PI - h, 20)
            for r, g in zip(rs, gs):
                d = sched.coeff_derivs(r, g)
                fd_a = (sched.alpha(r + h) - sched.alpha(r - h)) / (2 * h)
                fd_b = (sched.beta(r + h) - sched.beta(r - h)) / (2 * h)
                fd_l = (math.cos(g + h) - math.cos(g - h)) / (2 * h)
                fd_g = (math.sin(g + h) - math.sin(g - h)) / (2 * h)
                assert d.dalpha == pytest.approx(fd_a, abs=1e-8)
                assert d.dbeta == pytest.approx(fd_b, abs=1e-8)
                assert d.dlambda == pytest.approx(fd_l, abs=1e-8)
                assert d.dgamma == pytest.approx(fd_g, abs=1e-8)


class TestSingleTimeReduction:
    """Composing the schedule with the full-noise elliptical path recovers a
    single-time interpolant with the standard boundary behavior."""

    def test_boundaries_and_positivity(self):
        sched = GvpSchedule(0.4, 1.0)
        traj = Elliptical(phi=sched.phi, delta=HALF_PI)

        def single_time(t):
            r, g = traj.point(t)
            c = sched.coeffs(r, g)
            return c.lam * c.alpha, c.lam * c.beta, c.gamma

        a, b, g = single_time(-HALF_PI)
        np.testing.assert_allclose([a, b, g], [1, 0, 0], atol=1e-12)
        a, b, g = single_time(HALF_PI)
        np.testing.assert_allclose([a, b, g], [0, 1, 0], atol=1e-12)
        for t in np.linspace(-HALF_PI, HALF_PI, 33):
            a, b, g = single_time(float(t))
            assert a * a + b * b + g * g > 0.0
            total = a * a + b * b + 2 * 0.4 * a * b + g * g
            assert total == pytest.approx(1.0, abs=1e-12)


class TestGridDump:
    def test_shape_and_ends(self):
        sched = GvpSchedule(0.5, 1.0)
        table = schedule_grid(sched, 5)
        assert table.shape == (25, 8)
        assert table[0, 0] == -sched.phi and table[-1, 0] == sched.phi
        with pytest.raises(DomainError):
            schedule_grid(sched, 1)
