"""Inference paths: geometry, discretization, smoothness, the factory."""

import math

import numpy as np
import pytest

from rgflow import (
    ConfigError,
    DomainError,
    Elliptical,
    Linear,
    QuadBezier,
    Regression,
    VPath,
    make_trajectory,
)

HALF_PI = math.pi / 2.0
PHI = 0.5


class TestPoint:
    def test_elliptical_endpoints_and_apex(self):
        traj = Elliptical(phi=PHI, delta=math.pi / 4.0)
        assert traj.point(HALF_PI) == (PHI, 0.0)
        assert traj.point(-HALF_PI) == (-PHI, 0.0)
        r, g = traj.point(0.0)
        assert r == pytest.approx(0.0, abs=1e-15)
        assert g == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_linear_endpoints(self):
        traj = Linear(phi=PHI, delta=math.pi / 8.0)
        assert traj.point(1.0) == (PHI, math.pi / 8.0)
        assert traj.point(0.0) == (-PHI, 0.0)

    def test_regression_map(self):
        traj = Regression(phi=PHI)
        assert traj.point(0.0) == (PHI, 0.0)
        assert traj.point(1.0) == (-PHI, 0.0)
        r, g = traj.point(0.25)
        assert r == pytest.approx(PHI * 0.5, abs=1e-15)
        assert g == 0.0

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            Elliptical(phi=PHI, delta=0.1).point(HALF_PI + 0.01)
        with pytest.raises(DomainError):
            Linear(phi=PHI, delta=0.1).point(-0.01)

    def test_implicit_equations_hold(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            phi = rng.uniform(0.05, HALF_PI)
            delta = rng.uniform(1e-3, HALF_PI)
            t = rng.uniform(-HALF_PI, HALF_PI)
            r, g = Elliptical(phi=phi, delta=delta).point(t)
            assert abs((r / phi) ** 2 + (g / delta) ** 2 - 1.0) <= 1e-12
            t = rng.uniform(0.0, 1.0)
            r, g = Linear(phi=phi, delta=delta).point(t)
            assert abs(r / (-phi) + g / (delta / 2.0) - 1.0) <= 1e-12


class TestDiscretize:
    def test_elliptical_two_steps(self):
        traj = Elliptical(phi=PHI, delta=0.3)
        grid = traj.discretize(2)
        np.testing.assert_allclose(grid.t, [HALF_PI, 0.0, -HALF_PI])
        assert (grid.r[0], grid.g[0]) == (PHI, 0.0)
        assert (grid.r[-1], grid.g[-1]) == (-PHI, 0.0)
        assert grid.r[1] == pytest.approx(0.0, abs=1e-15)
        assert grid.g[1] == pytest.approx(0.3, abs=1e-15)

    def test_regression_single_step(self):
        grid = Regression(phi=PHI).discretize(1)
        assert list(grid.r) == [PHI, -PHI]
        assert list(grid.g) == [0.0, 0.0]

    def test_linear_generation_times(self):
        grid = Linear(phi=PHI, delta=math.pi / 8.0).discretize(4)
        expected = [math.pi / 8, 3 * math.pi / 32, math.pi / 16, math.pi / 32, 0.0]
        np.testing.assert_allclose(grid.g, expected, atol=1e-15)

    def test_monotone_t_and_exact_ends(self):
        for traj in (
            Elliptical(phi=PHI, delta=0.4),
            Linear(phi=PHI, delta=0.4),
            Regression(phi=PHI),
            VPath(phi=PHI, delta=0.4, p=2.5),
            QuadBezier(phi=PHI, delta=0.4),
        ):
            grid = traj.discretize(9)
            dt = np.diff(grid.t)
            assert np.all(dt > 0) or np.all(dt < 0)
            assert (grid.r[0], grid.g[0]) == traj.start_rg
            assert (grid.r[-1], grid.g[-1]) == (-PHI, 0.0)

    def test_zero_steps_rejected(self):
        with pytest.raises(DomainError):
            Elliptical(phi=PHI, delta=0.1).discretize(0)


class TestContinuityOrder:
    @pytest.mark.parametrize(
        "traj",
        [
            Elliptical(phi=PHI, delta=0.3),
            Linear(phi=PHI, delta=0.3),
            QuadBezier(phi=PHI, delta=0.3),
        ],
    )
    def test_smooth_families(self, traj):
        """The smooth families have no kink: at every interior point of the
        path the one-sided slopes of r and of g agree."""
        h = 1e-6
        for t in np.linspace(traj.t_start, traj.t_end, 41)[1:-1]:
            here, left, right = (np.array(traj.point(float(t + dt))) for dt in (0.0, -h, h))
            np.testing.assert_allclose((right - here) / h, (here - left) / h, atol=1e-4)

    def test_vpath_kink_matches_class(self):
        h = 1e-7
        for p, kinked in ((1.0, True), (1.5, False), (2.5, False)):
            traj = VPath(phi=PHI, delta=0.4, p=p)
            left = (traj.point(h)[1] - traj.point(0.0)[1]) / h
            right = (traj.point(0.0)[1] - traj.point(-h)[1]) / h
            if kinked:
                assert abs(left - right) > 0.1
            else:
                assert abs(left - right) < 1e-3


class TestBezier:
    def test_boundaries_and_peak(self):
        traj = QuadBezier(phi=PHI, delta=0.4)
        assert traj.point(0.0) == (PHI, 0.0)
        assert traj.point(1.0) == (-PHI, 0.0)
        r, g = traj.point(0.5)
        assert abs(r) <= 1e-12
        assert g == pytest.approx(0.2, abs=1e-12)
        peak = max(traj.point(float(t))[1] for t in np.linspace(0, 1, 101))
        assert peak == pytest.approx(0.2, abs=1e-12)


class TestFactoryAndFlags:
    def test_make_trajectory(self):
        assert make_trajectory("elliptical", PHI, delta=0.2) == Elliptical(phi=PHI, delta=0.2)
        assert make_trajectory("vpath", PHI, delta=0.2, p=2.0) == VPath(phi=PHI, delta=0.2, p=2.0)
        assert make_trajectory("vpath", PHI) == VPath(phi=PHI)
        assert make_trajectory("regression", PHI) == Regression(phi=PHI)
        with pytest.raises(DomainError):
            make_trajectory("spiral", PHI)

    @pytest.mark.parametrize("kind, params", [
        ("regression", {"delta": 0.3}), ("regression", {"p": 2.0}),
        ("elliptical", {"p": 3.0}), ("linear", {"p": 3.0, "q": 1.0}),
    ])
    def test_make_trajectory_rejects_a_parameter_the_kind_lacks(self, kind, params):
        with pytest.raises(ConfigError, match=f"the {kind} path has no parameter {', '.join(params)}$"):
            make_trajectory(kind, PHI, **params)

    def test_boot_requirement_flags(self):
        assert Elliptical(phi=PHI, delta=0.2).starts_noiseless
        assert VPath(phi=PHI, delta=0.2, p=1.5).starts_noiseless
        assert QuadBezier(phi=PHI, delta=0.2).starts_noiseless
        assert Regression(phi=PHI).starts_noiseless
        assert not Linear(phi=PHI, delta=0.2).starts_noiseless

    @pytest.mark.parametrize("kind", ["elliptical", "linear", "vpath", "bezier"])
    def test_lifts_unless_delta_is_zero(self, kind):
        """A path leaves g = 0 at every delta above 0, the smallest double
        included, and not at delta = 0."""
        for delta in (0.0, 5e-324, 1e-3, HALF_PI):
            assert make_trajectory(kind, PHI, delta=delta).lifts == (delta != 0.0)

    def test_regression_does_not_lift(self):
        assert not Regression(phi=PHI).lifts

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Elliptical(phi=PHI, delta=-0.1)
        with pytest.raises(DomainError):
            Linear(phi=PHI, delta=HALF_PI + 0.1)
        with pytest.raises(DomainError):
            VPath(phi=PHI, delta=-0.1, p=2.0)
        with pytest.raises(DomainError):
            QuadBezier(phi=PHI, delta=HALF_PI + 0.1)
        for p in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="p must be"):
                VPath(phi=PHI, delta=0.2, p=p)
        with pytest.raises(DomainError):
            Elliptical(phi=0.0, delta=0.2)
