"""Forward states: boundary identities, linearity, noise statistics."""

import math

import numpy as np
import pytest

from rgflow import (
    DimensionMismatch,
    DomainError,
    GvpSchedule,
    empirical_variance,
    forward_state,
    interpolate,
    make_gaussian_pairs,
    sample_noise,
)

HALF_PI = math.pi / 2.0


@pytest.fixture
def pair():
    return np.array([1.0, 0.0]), np.array([0.0, 1.0])


class TestInterpolate:
    def test_clean_boundary_ignores_noise(self, pair):
        sched = GvpSchedule(0.3, 1.0)
        za = np.array([5.0, -7.0])
        zb = np.array([-2.0, 9.0])
        a = interpolate(sched, *pair, za, -sched.phi, 0.0)
        b = interpolate(sched, *pair, zb, -sched.phi, 0.0)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(a, pair[0], atol=1e-12)

    def test_degraded_boundary(self, pair):
        sched = GvpSchedule(0.3, 1.0)
        s = interpolate(sched, *pair, np.zeros(2), sched.phi, 0.0)
        np.testing.assert_allclose(s, pair[1], atol=1e-12)

    def test_pure_noise_at_full_generation_time(self, pair):
        sched = GvpSchedule(0.3, 1.0)
        z = np.array([0.7, -1.3])
        s = interpolate(sched, *pair, z, 0.1, HALF_PI)
        np.testing.assert_allclose(s, z, atol=1e-15)

    def test_center_point_uncorrelated(self, pair):
        sched = GvpSchedule(0.0, 1.0)
        s = interpolate(sched, *pair, np.zeros(2), 0.0, 0.0)
        np.testing.assert_allclose(s, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_linear_in_each_argument(self):
        rng = np.random.default_rng(3)
        sched = GvpSchedule(0.5, 1.0)
        x0, x1, z = rng.normal(size=(3, 4))
        r = rng.uniform(-sched.phi, sched.phi)
        g = rng.uniform(0.0, HALF_PI)
        base = interpolate(sched, x0, x1, z, r, g)
        for c in (2.0, -0.5):
            scaled_x0 = interpolate(sched, c * x0, x1, z, r, g)
            delta = interpolate(sched, (c - 1) * x0, 0 * x1, 0 * z, r, g)
            np.testing.assert_allclose(scaled_x0, base + delta, atol=1e-12)
            scaled_z = interpolate(sched, x0, x1, c * z, r, g)
            dz = interpolate(sched, 0 * x0, 0 * x1, (c - 1) * z, r, g)
            np.testing.assert_allclose(scaled_z, base + dz, atol=1e-12)

    def test_dimension_mismatch(self):
        """x0, x1 and z must be nonempty 1-D vectors of one shape."""
        sched = GvpSchedule(0.3, 1.0)
        for x0, x1, z in (
            (np.zeros(2), np.zeros(2), np.zeros(3)),
            (np.zeros(2), np.zeros(3), np.zeros(2)),
            (np.zeros(3), np.zeros(2), np.zeros(2)),
            (np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2))),
            (np.zeros(0), np.zeros(0), np.zeros(0)),
        ):
            with pytest.raises(DimensionMismatch):
                interpolate(sched, x0, x1, z, 0.0, 0.1)

    def test_out_of_domain_times_rejected(self, pair):
        sched = GvpSchedule(0.3, 1.0)
        for r, g in ((sched.phi + 1e-6, 0.1), (0.0, -1e-6), (0.0, HALF_PI + 1e-6)):
            with pytest.raises(DomainError):
                interpolate(sched, *pair, np.zeros(2), r, g)


class TestForwardState:
    def test_per_row_times_match_scalar_calls(self):
        rng = np.random.default_rng(11)
        sched = GvpSchedule(0.6, 1.0)
        x0, x1, z = rng.normal(size=(3, 64, 3))
        r = rng.uniform(-sched.phi, sched.phi, size=64)
        g = rng.uniform(0.0, HALF_PI, size=64)
        batch = forward_state(sched, x0, x1, z, r, g)
        rows = [
            forward_state(sched, x0[i], x1[i], z[i], float(r[i]), float(g[i]))
            for i in range(64)
        ]
        assert np.array_equal(batch, np.stack(rows))


class TestSampleNoise:
    def test_deterministic_given_seed(self):
        a = sample_noise(np.random.default_rng(5), 8, 1.0)
        b = sample_noise(np.random.default_rng(5), 8, 1.0)
        assert np.array_equal(a, b)

    def test_unit_variance(self):
        z = sample_noise(np.random.default_rng(1), 1_000_000, 1.0)
        assert 0.995 <= z.var() <= 1.005

    def test_scaled_std(self):
        z = sample_noise(np.random.default_rng(1), 1_000_000, 2.0)
        assert 1.99 <= z.std() <= 2.01


class TestEmpiricalVariance:
    def test_interior_point(self):
        ds = make_gaussian_pairs(0.5, 50_000, seed=4)
        sched = GvpSchedule(0.5, 1.0)
        v = empirical_variance(
            sched, ds, 0.1, 0.4, 100_000, np.random.default_rng(6)
        )
        assert v == pytest.approx(1.0, abs=0.02)

    def test_pure_noise_point(self):
        ds = make_gaussian_pairs(0.5, 10_000, seed=4)
        sched = GvpSchedule(0.5, 1.0)
        v = empirical_variance(
            sched, ds, 0.0, HALF_PI, 100_000, np.random.default_rng(6)
        )
        assert v == pytest.approx(1.0, abs=0.02)

    def test_high_correlation_grid(self):
        ds = make_gaussian_pairs(0.9, 50_000, seed=4)
        sched = GvpSchedule(0.9, 1.0)
        rng = np.random.default_rng(6)
        for rf in (-0.6, 0.0, 0.6):
            for g in (0.2, 0.8, 1.4):
                v = empirical_variance(
                    sched, ds, rf * sched.phi, g, 100_000, rng
                )
                assert v == pytest.approx(1.0, abs=0.02)

    def test_deterministic_given_seed(self):
        ds = make_gaussian_pairs(0.5, 1000, seed=4)
        sched = GvpSchedule(0.5, 1.0)
        a = empirical_variance(sched, ds, 0.1, 0.4, 20_000, np.random.default_rng(3))
        b = empirical_variance(sched, ds, 0.1, 0.4, 20_000, np.random.default_rng(3))
        assert a == b

    def test_one_pass_over_the_callers_draws(self):
        """The estimate is the mean per-coordinate variance of the states
        formed from n row indices, then n noise rows, drawn from the
        caller's generator, which is left just past those two draws."""
        ds = make_gaussian_pairs(-0.4, 300, sigma_d=1.3, seed=4, dim=3)
        sched = GvpSchedule(0.6, 1.3)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        v = empirical_variance(sched, ds, 0.2, 0.5, 9000, rng)
        idx = ref.integers(0, len(ds), size=9000)
        z = ref.normal(0.0, 1.3, size=(9000, 3))
        x = forward_state(sched, ds.x0[idx], ds.x1[idx], z, 0.2, 0.5)
        assert v == pytest.approx(x.var(axis=0).mean(), rel=1e-12)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_rejections(self):
        ds = make_gaussian_pairs(0.5, 10, seed=4)
        sched, rng = GvpSchedule(0.5, 1.0), np.random.default_rng(0)
        with pytest.raises(DomainError):
            empirical_variance(sched, ds, 0.0, 0.4, 1, rng)
        with pytest.raises(DomainError):
            empirical_variance(sched, ds, 0.0, -0.1, 100, rng)
