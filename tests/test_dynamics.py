"""Velocity fields and the Euler reference integrator."""

import math

import numpy as np
import pytest

from rgflow import (
    CheatDenoiser,
    DomainError,
    Elliptical,
    GaussianOracle,
    GvpSchedule,
    MlpDenoiser,
    Regression,
    SingularTime,
    euler_integrate,
    make_trajectory,
    velocities,
    velocity_r,
)

HALF_PI = math.pi / 2.0


class TestVelocities:
    def test_full_noise_time(self):
        sched = GvpSchedule(0.3, 1.0)
        rng = np.random.default_rng(1)
        x, x0hat, x1 = rng.normal(size=(3, 4))
        v = velocities(sched, x, x0hat, x1, 0.1, HALF_PI)
        c = sched.coeffs(0.1, HALF_PI)
        np.testing.assert_allclose(
            v.v_g, -(c.alpha * x0hat + c.beta * x1), atol=1e-12
        )
        np.testing.assert_allclose(v.v_r, np.zeros(4), atol=1e-12)

    def test_regression_velocity_at_center(self):
        sched = GvpSchedule(0.0, 1.0)
        x0hat = np.array([1.0, 2.0])
        x1 = np.array([-1.0, 0.5])
        v = velocity_r(sched, x0hat, x1, 0.0, 0.0)
        np.testing.assert_allclose(v, (x1 - x0hat) / math.sqrt(2.0), atol=1e-15)

    def test_generation_velocity_singular_at_zero(self):
        sched = GvpSchedule(0.3, 1.0)
        z = np.zeros(2)
        with pytest.raises(SingularTime):
            velocities(sched, z, z, z, 0.0, 0.0)
        velocity_r(sched, z, z, 0.0, 0.0)  # well-defined there

    def test_velocity_r_scaling(self):
        sched = GvpSchedule(0.4, 1.0)
        rng = np.random.default_rng(2)
        x0hat, x1 = rng.normal(size=(2, 3))
        base = velocity_r(sched, x0hat, x1, 0.2, 0.5)
        np.testing.assert_allclose(
            velocity_r(sched, 3.0 * x0hat, 3.0 * x1, 0.2, 0.5), 3.0 * base, atol=1e-12
        )

    def test_velocity_r_matches_pair(self):
        sched = GvpSchedule(0.4, 1.0)
        rng = np.random.default_rng(3)
        x, x0hat, x1 = rng.normal(size=(3, 3))
        pair = velocities(sched, x, x0hat, x1, -0.2, 0.9)
        alone = velocity_r(sched, x0hat, x1, -0.2, 0.9)
        assert np.array_equal(pair.v_r, alone)

    def test_joint_linearity(self):
        sched = GvpSchedule(-0.3, 1.0)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(3, 5))
        va = velocities(sched, *a, 0.1, 0.7)
        vb = velocities(sched, *b, 0.1, 0.7)
        vsum = velocities(sched, *(2.0 * a - 0.5 * b), 0.1, 0.7)
        np.testing.assert_allclose(vsum.v_g, 2.0 * va.v_g - 0.5 * vb.v_g, atol=1e-12)
        np.testing.assert_allclose(vsum.v_r, 2.0 * va.v_r - 0.5 * vb.v_r, atol=1e-12)


class TestEulerIntegrate:
    def test_regression_path_with_cheat_oracle(self):
        """The regression flow has the closed-form solution alpha*x0+beta*x1;
        forward Euler converges to x0 at first order (error ~ phi/n)."""
        sched = GvpSchedule(0.0, 1.0)
        x0 = np.array([0.8, -0.4])
        x1 = np.array([-0.2, 1.1])
        den = CheatDenoiser(x0)
        traj = Regression(phi=sched.phi)
        z = np.zeros(2)
        err1 = np.max(np.abs(euler_integrate(sched, traj, den, x1, z, 1000) - x0))
        err2 = np.max(np.abs(euler_integrate(sched, traj, den, x1, z, 4000) - x0))
        assert err1 < 2e-3
        assert err2 < 5e-4
        assert 3.0 < err1 / err2 < 5.0  # first order in the step count

    def test_intermediate_states_follow_the_mix(self):
        """Stopping the regression flow partway lands on alpha*x0 + beta*x1
        at the stopping point, up to the O(1/n) Euler error."""
        from dataclasses import dataclass

        from rgflow.trajectory import Regression

        @dataclass(frozen=True)
        class TruncatedRegression(Regression):
            r_stop: float = 0.0

            @property
            def end_rg(self):
                return (self.r_stop, 0.0)

            def _raw_point(self, t):
                t = np.asarray(t, dtype=np.float64)
                return self.phi + (self.r_stop - self.phi) * t, np.zeros_like(t)

        sched = GvpSchedule(0.4, 1.0)
        x0 = np.array([0.5, -0.1])
        x1 = np.array([-0.3, 0.8])
        den = CheatDenoiser(x0)
        for r_stop in (0.3 * sched.phi, 0.0, -0.6 * sched.phi):
            traj = TruncatedRegression(phi=sched.phi, r_stop=r_stop)
            got = euler_integrate(sched, traj, den, x1, np.zeros(2), 2000)
            c = sched.coeffs(r_stop, 0.0)
            want = c.alpha * x0 + c.beta * x1
            np.testing.assert_allclose(got, want, atol=2e-3)

    def test_first_order_convergence_on_elliptical(self):
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        traj = Elliptical(phi=sched.phi, delta=math.pi / 4.0)
        rng = np.random.default_rng(8)
        x1 = rng.normal(size=20)
        z = np.zeros(20)
        ref = euler_integrate(sched, traj, den, x1, z, 20_000)
        e1 = np.mean(np.abs(euler_integrate(sched, traj, den, x1, z, 500) - ref))
        e2 = np.mean(np.abs(euler_integrate(sched, traj, den, x1, z, 1000) - ref))
        assert 1.6 <= e1 / e2 <= 2.4

    def test_mlp_bound_once_equals_predict_at_every_step(self):
        """The integrator binds an MLP to x1 and the grid's times once; a
        subclass whose predict only passes through is called at each grid
        point instead, and both give the same bits."""
        calls = []

        class Counted(MlpDenoiser):
            def predict(self, x, x1, r, g):
                calls.append((r, g))
                return super().predict(x, x1, r, g)

        sched = GvpSchedule(0.5, 1.0)
        traj = Elliptical(phi=sched.phi, delta=math.pi / 4.0)
        net = MlpDenoiser(dim=3, hidden=16, emb_dim=8, params={})
        net.reinit(np.random.default_rng(2))
        net.params["W3"] = np.random.default_rng(3).normal(size=net.params["W3"].shape)
        counted = Counted(dim=3, hidden=16, emb_dim=8, params=net.params)
        x1, z = np.random.default_rng(4).normal(size=(2, 5, 3))
        got = euler_integrate(sched, traj, net, x1, z, 40)
        assert got.tobytes() == euler_integrate(sched, traj, counted, x1, z, 40).tobytes()
        grid = traj.discretize(40)
        assert calls == list(zip(grid.r[:-1].tolist(), grid.g[:-1].tolist()))

    @pytest.mark.parametrize("kind", ["elliptical", "regression", "vpath", "bezier"])
    def test_start_at_g0_is_x1_bit_for_bit(self, kind):
        """On a path that starts at g = 0 the first state the denoiser sees
        is x1 itself, as the analytic sampler's is, whatever z holds; at
        rho = 0.5 lam*beta(phi) x1 would round away from it."""
        seen = []

        class Recorder:  # no bind, so predict is called at every step
            def predict(self, x, x1, r, g):
                seen.append(np.array(x, copy=True))
                return np.zeros_like(x)

        sched = GvpSchedule(0.5, 1.0)
        params = {} if kind == "regression" else {"delta": math.pi / 4.0}
        traj = make_trajectory(kind, sched.phi, **params)
        x1, z = np.random.default_rng(5).normal(size=(2, 64))
        assert np.any(sched.beta(sched.phi) * x1 != x1)
        euler_integrate(sched, traj, Recorder(), x1, z, 4)
        assert seen[0].tobytes() == x1.tobytes()

    def test_validation(self):
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        traj = Elliptical(phi=sched.phi, delta=0.3)
        with pytest.raises(DomainError):
            euler_integrate(sched, traj, den, np.ones(2), np.zeros(2), 0)
        for g_floor in (0.0, math.nan, math.inf, math.pi / 2.0, 2.0):
            with pytest.raises(DomainError, match="g_floor"):
                euler_integrate(sched, traj, den, np.ones(2), np.zeros(2), 10, g_floor=g_floor)

    def test_linear_path_consumes_initial_noise(self):
        """A path starting at g = delta > 0 mixes the provided z into the
        initial state; different z must give different endpoints."""
        sched = GvpSchedule(0.5, 1.0)
        den = GaussianOracle(rho=0.5)
        from rgflow import Linear

        traj = Linear(phi=sched.phi, delta=0.5)
        x1 = np.array([1.0])
        a = euler_integrate(sched, traj, den, x1, np.array([0.0]), 500)
        b = euler_integrate(sched, traj, den, x1, np.array([2.0]), 500)
        assert not np.allclose(a, b)
