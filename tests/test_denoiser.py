"""Denoiser contract: oracles, MLP, embeddings, checkpoints."""

import json
import math
import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from functools import lru_cache

from hypothesis import example, given, settings
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
    load_checkpoint,
    load_dataset,
    make_gaussian_pairs,
    make_trajectory,
    restore,
    restore_batch,
    save_checkpoint,
    save_dataset,
    time_embed,
)
from rgflow import denoiser
from rgflow.denoiser import (
    _BLOCK_ROWS,
    _dense_forward,
    _frequencies,
    _gelu_grad,
    _grid_rows,
    _row_blocks,
)
from rgflow.schedule import check_rho, check_sigma_d
from rgflow.trajectory import TRAJECTORY_KINDS

HALF_PI = math.pi / 2.0


class TestTimeEmbed:
    def test_zero_time(self):
        emb = time_embed(0.0, 8)
        np.testing.assert_array_equal(emb[:4], 0.0)
        np.testing.assert_array_equal(emb[4:], 1.0)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        emb = time_embed(rng.uniform(-HALF_PI, HALF_PI, size=100), 32)
        assert np.all(np.abs(emb) <= 1.0)

    def test_injective_on_sampled_grid(self):
        t = np.linspace(-HALF_PI, HALF_PI, 200)
        emb = time_embed(t, 16)
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                assert np.max(np.abs(emb[i] - emb[j])) > 1e-9

    def test_odd_width_rejected(self):
        with pytest.raises(DomainError):
            time_embed(0.5, 7)

    def test_cached_frequencies_match_formula(self):
        """The frequency vector is built once per width, read-only, and
        gives the same features as rebuilding it on every call."""
        t = np.random.default_rng(2).uniform(-HALF_PI, HALF_PI, size=(5, 3))
        for emb_dim in (2, 8, 32):
            omega = 1.0e4 ** (-2.0 * np.arange(emb_dim // 2) / emb_dim)
            phase = t[..., None] * omega
            want = np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)
            assert np.array_equal(time_embed(t, emb_dim), want)
            assert np.array_equal(time_embed(t, emb_dim), want)
        with pytest.raises(ValueError, match="read-only"):
            _frequencies(8)[0] = 1.0


class TestCheatOracle:
    def test_returns_stored_truth(self):
        x0 = np.array([1.0, 2.0])
        den = CheatDenoiser(x0)
        out = den.predict(np.array([9.0, 9.0]), np.array([0.0, 0.0]), 0.3, 0.9)
        assert np.array_equal(out, x0)
        x0s = np.arange(6.0).reshape(3, 2)
        batch = CheatDenoiser(x0s).predict(np.zeros((3, 2)), np.zeros((3, 2)), 0.1, 0.2)
        assert np.array_equal(batch, x0s)

    def test_mismatched_batch_rejected(self):
        """A stored x0 not shaped like the query, a (d,) truth against a
        batch included, is a DimensionMismatch."""
        den = CheatDenoiser(np.zeros((4, 2)))
        for shape in ((3, 2), (4, 3), (2,)):
            with pytest.raises(DimensionMismatch, match="stored x0"):
                den.predict(np.zeros(shape), np.zeros(shape), 0.1, 0.2)
        assert den.predict(np.zeros((4, 2)), np.zeros((4, 2)), 0.1, 0.2).shape == (4, 2)
        for shape in ((3, 2), (1, 2)):
            with pytest.raises(DimensionMismatch, match="stored x0"):
                CheatDenoiser(np.zeros(2)).predict(np.zeros(shape), np.zeros(shape), 0.1, 0.2)

    def test_one_step_restore_recovers_truth(self):
        sched = GvpSchedule(0.4, 1.0)
        x0 = np.array([0.2, -0.7])
        cfg = SamplerConfig(trajectory=Regression(phi=sched.phi), n_steps=1)
        out = restore(sched, CheatDenoiser(x0), np.array([1.0, 1.0]), cfg)
        np.testing.assert_allclose(out, x0, atol=1e-12)


class TestGaussianOracle:
    def test_clean_boundary_returns_state(self):
        den = GaussianOracle(rho=0.5)
        sched = den.sched
        x = np.array([0.3, -0.2])
        x1 = np.array([1.0, 0.5])
        out = den.predict(x, x1, -sched.phi, 0.0)
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_pure_noise_returns_prior_mean(self):
        den = GaussianOracle(rho=0.5)
        x1 = np.array([2.0, -1.0])
        out = den.predict(np.array([9.0, 9.0]), x1, 0.2, HALF_PI)
        np.testing.assert_allclose(out, 0.5 * x1, atol=1e-12)

    def test_independent_prior_mean_is_zero(self):
        den = GaussianOracle(rho=0.0)
        out = den.predict(np.array([3.0]), np.array([5.0]), 0.1, HALF_PI)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_degenerate_corner_returns_prior_mean(self):
        den = GaussianOracle(rho=0.5)
        sched = den.sched
        x1 = np.array([1.0, -2.0])
        out = den.predict(x1, x1, sched.phi, 0.0)
        np.testing.assert_allclose(out, 0.5 * x1, atol=1e-12)

    def test_noiseless_constraint_inverts_exactly(self):
        """On g = 0 the state is a noiseless linear mix, so the posterior
        mean is the exact algebraic inversion for x0."""
        rho = 0.3
        den = GaussianOracle(rho=rho)
        sched = den.sched
        x0 = np.array([0.7])
        x1 = np.array([-0.4])
        r = 0.25 * sched.phi
        c = sched.coeffs(r, 0.0)
        x = c.alpha * x0 + c.beta * x1
        np.testing.assert_allclose(den.predict(x, x1, r, 0.0), x0, atol=1e-9)

    def test_mmse_optimality_monte_carlo(self):
        """The analytic posterior mean beats the untrained predictor by more
        than 3 Monte-Carlo standard errors at every tested (r, g)."""
        rho = 0.5
        ds = make_gaussian_pairs(rho, 10_000, seed=3)
        x0 = ds.x0[:, 0]
        x1 = ds.x1[:, 0]
        sched = GvpSchedule(rho, 1.0)
        oracle = GaussianOracle(rho=rho)
        mlp = MlpDenoiser(dim=1, hidden=16, emb_dim=8)  # zero output head
        rng = np.random.default_rng(4)
        z = rng.normal(size=x0.shape)
        for r_f, g in ((-0.5, 0.2), (0.0, 0.8), (0.5, 1.4)):
            r = r_f * sched.phi
            c = sched.coeffs(r, g)
            x = c.lam * (c.alpha * x0 + c.beta * x1) + c.gamma * z
            err_o = (oracle.predict(x, x1, r, g) - x0) ** 2
            err_m = (mlp.predict(x[:, None], x1[:, None], r, g)[:, 0] - x0) ** 2
            gap = err_m.mean() - err_o.mean()
            se = np.std(err_m - err_o) / math.sqrt(x0.size)
            assert gap > 3.0 * se


class TestScaleEquivariance:
    def test_all_denoisers_scale_with_sigma_d(self):
        """Doubling sigma_d and all inputs doubles every prediction."""
        rho = 0.4
        rng = np.random.default_rng(9)
        x, x1 = rng.normal(size=(2, 3))
        r, g = 0.2, 0.7
        params = None
        for scale in (1.0, 2.0):
            mlp = MlpDenoiser(dim=3, hidden=16, emb_dim=8, sigma_d=scale, params=params)
            mlp.params["W3"] = np.full_like(mlp.params["W3"], 0.05)
            params = {k: v.copy() for k, v in mlp.params.items()}
            if scale == 1.0:
                base = {
                    "gauss": GaussianOracle(rho=rho, sigma_d=1.0).predict(x, x1, r, g),
                    "cheat": CheatDenoiser(x).predict(x, x1, r, g),
                    "mlp": mlp.predict(x, x1, r, g),
                }
            else:
                two = {
                    "gauss": GaussianOracle(rho=rho, sigma_d=2.0).predict(
                        2 * x, 2 * x1, r, g
                    ),
                    "cheat": CheatDenoiser(2 * x).predict(2 * x, 2 * x1, r, g),
                    "mlp": mlp.predict(2 * x, 2 * x1, r, g),
                }
                for key in base:
                    np.testing.assert_allclose(two[key], 2.0 * base[key], atol=1e-10)


class TestMlp:
    def test_default_params_are_reinit_at_seed_0(self):
        """A net built without params holds the bytes reinit draws from
        default_rng(0), under the same keys."""
        for dim, hidden, emb_dim in ((2, 8, 4), (3, 16, 2)):
            net = MlpDenoiser(dim, hidden, emb_dim)
            want = MlpDenoiser(dim, hidden, emb_dim, params={})
            want.reinit(np.random.default_rng(0))
            assert list(net.params) == list(want.params)
            for key, value in want.params.items():
                assert net.params[key].shape == value.shape
                assert net.params[key].tobytes() == value.tobytes(), key

    def test_fresh_net_predicts_zero(self):
        net = MlpDenoiser(dim=2, hidden=8, emb_dim=4)
        rng = np.random.default_rng(0)
        out = net.predict(rng.normal(size=2), rng.normal(size=2), 0.3, 0.4)
        np.testing.assert_array_equal(out, 0.0)

    def test_deterministic(self):
        net = MlpDenoiser(dim=2, hidden=8, emb_dim=4, params={})
        net.reinit(np.random.default_rng(3))
        net.params["W3"][:] = 0.1
        x = np.array([0.5, -0.5])
        a = net.predict(x, x, 0.1, 0.2)
        b = net.predict(x, x, 0.1, 0.2)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        net = MlpDenoiser(dim=2, hidden=8, emb_dim=4)
        with pytest.raises(DimensionMismatch):
            net.predict(np.zeros(3), np.zeros(3), 0.1, 0.2)
        with pytest.raises(DimensionMismatch):
            net.predict(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)), 0.1, 0.2)

    def test_per_item_times(self):
        """Per-item times run through features and forward_batch, as in
        training: each row matches predict at its own times.  predict takes
        one (r, g) and rejects times given per row."""
        net = MlpDenoiser(dim=1, hidden=8, emb_dim=4, params={})
        net.reinit(np.random.default_rng(1))
        net.params["W3"][:] = 0.3
        x = np.zeros((2, 1))
        rs = np.array([0.1, -0.2])
        gs = np.array([0.5, 0.9])
        batched = net.sigma_d * net.forward_batch(net.features(x, x, rs, gs))[0]
        for i in range(2):
            single = net.predict(x[i], x[i], rs[i], gs[i])
            np.testing.assert_allclose(batched[i], single, atol=1e-12)
        for r, g in ((rs, gs), (0.1, gs), (rs[:1], 0.5), (np.array(0.1), gs)):
            with pytest.raises(DimensionMismatch, match="one scalar"):
                net.predict(x, x, r, g)

    @pytest.mark.parametrize("emb_dim", [2, 16, 32])
    def test_scalar_times_match_per_row_times(self, emb_dim):
        """A scalar (r, g), embedded once and broadcast, gives the same
        features bit for bit as the same times passed as one value per row."""
        net = MlpDenoiser(dim=3, hidden=8, emb_dim=emb_dim)
        rng = np.random.default_rng(emb_dim)
        for n in (1, 2, 7, 64):
            x, x1 = rng.normal(size=(2, n, 3))
            for r, g in rng.uniform(-HALF_PI, HALF_PI, size=(5, 2)):
                scalar = net.features(x, x1, r, g)
                rows = net.features(x, x1, np.full(n, r), np.full(n, g))
                assert scalar.tobytes() == rows.tobytes()


def _random_mlp(dim, emb_dim, seed):
    """An MLP with random weights in every layer, so its predictions vary."""
    rng = np.random.default_rng(seed)
    net = MlpDenoiser(dim=dim, hidden=16, emb_dim=emb_dim, sigma_d=1.3, params={})
    net.reinit(rng)
    net.params["W3"] = rng.normal(0.0, 0.3, size=net.params["W3"].shape)
    net.params["b1"] = rng.normal(0.0, 0.3, size=net.params["b1"].shape)
    return net


class TestMlpValidation:
    @pytest.mark.parametrize("sigma_d", [0.0, -1.0, math.inf, math.nan])
    def test_sigma_d_outside_domain_rejected(self, sigma_d):
        with pytest.raises(DomainError, match="sigma_d"):
            MlpDenoiser(dim=2, hidden=4, emb_dim=4, sigma_d=sigma_d)

    @pytest.mark.parametrize("hidden", [0, -4])
    def test_hidden_below_one_rejected(self, hidden):
        for params in (None, {}):
            with pytest.raises(DomainError, match="hidden"):
                MlpDenoiser(dim=2, hidden=hidden, emb_dim=4, params=params)

    @pytest.mark.parametrize("emb_dim", [0, -2, 3])
    def test_emb_dim_below_two_or_odd_rejected(self, emb_dim):
        with pytest.raises(DomainError, match="emb_dim"):
            MlpDenoiser(dim=2, hidden=4, emb_dim=emb_dim)

    def test_checkpoint_with_zero_hidden_rejected(self, tmp_path):
        def mutate(doc):
            doc["widths"][1:3] = [0, 0]
            for key in ("weights", "ema_weights"):
                w = doc[key]
                w["W1"] = [[] for _ in w["W1"]]
                w["b1"], w["W2"], w["b2"], w["W3"] = [], [], [], []

        with pytest.raises(DomainError, match="hidden"):
            load_checkpoint(_rewritten_checkpoint(tmp_path, mutate))


class TestBind:
    @pytest.mark.parametrize("emb_dim", [2, 16, 32])
    def test_predict_is_the_one_step_bind(self, emb_dim):
        """Each bound step equals predict bit for bit, however many times
        the bind covers."""
        net = _random_mlp(3, emb_dim, seed=emb_dim)
        rng = np.random.default_rng(emb_dim)
        times = [(0.3, 0.1), *map(tuple, rng.uniform(-HALF_PI, HALF_PI, size=(6, 2)))]
        for shape in ((3,), (1, 3), (7, 3)):
            x, x1 = rng.normal(size=(2, *shape))
            step = net.bind(x1, times)
            for i, (r, g) in enumerate(times):
                got = net.predict(x, x1, r, g)
                assert got.shape == shape
                assert got.tobytes() == net.bind(x1, [(r, g)])(x, 0).tobytes()
                assert got.tobytes() == step(x, i).tobytes()

    @pytest.mark.parametrize("emb_dim", [2, 16, 32])
    def test_matches_the_training_path(self, emb_dim):
        """Splitting W1 by input block only reorders the first layer's sums:
        predict agrees with sigma_d * forward_batch(features)."""
        net = _random_mlp(3, emb_dim, seed=emb_dim + 1)
        rng = np.random.default_rng(emb_dim + 1)
        x, x1 = rng.normal(size=(2, 9, 3))
        for r, g in rng.uniform(-HALF_PI, HALF_PI, size=(3, 2)):
            core, _ = net.forward_batch(net.features(x, x1, r, g))
            np.testing.assert_allclose(
                net.predict(x, x1, r, g), net.sigma_d * core, rtol=0.0, atol=1e-12
            )

    def test_wrong_width_rejected_before_any_step(self):
        """A restore whose x1 has the wrong width fails in bind, before the
        noisy start draws from the passed generator."""
        net = _random_mlp(2, 8, seed=3)
        with pytest.raises(DimensionMismatch):
            net.bind(np.zeros((4, 3)), [(0.1, 0.2)])
        sched = GvpSchedule(0.5, 1.0)
        cfg = SamplerConfig(trajectory=Linear(phi=sched.phi, delta=0.5), n_steps=4, eta=0.5)
        gen = np.random.default_rng(1)
        state = gen.bit_generator.state
        with pytest.raises(DimensionMismatch):
            restore(sched, net, np.zeros(3), cfg, rng=gen)
        assert gen.bit_generator.state == state
        with pytest.raises(DimensionMismatch):
            restore_batch(sched, net, np.zeros((2, 3)), cfg)

    def test_in_place_weight_update_is_seen(self):
        """Nothing derived from writable weights outlives a run: after an
        in-place update, a restore equals that of a fresh net holding the new
        weights."""
        net = _random_mlp(2, 8, seed=4)
        sched = GvpSchedule(0.5, 1.0)
        cfg = SamplerConfig(trajectory=Linear(phi=sched.phi, delta=0.5), n_steps=5, eta=0.3)
        x1 = np.random.default_rng(4).normal(size=(6, 2))
        before = restore_batch(sched, net, x1, cfg)
        for v in net.params.values():
            v *= 1.1
        fresh = MlpDenoiser(dim=2, hidden=16, emb_dim=8, sigma_d=net.sigma_d,
                            params={k: v.copy() for k, v in net.params.items()})
        after = restore_batch(sched, net, x1, cfg)
        assert not np.array_equal(after, before)
        assert after.tobytes() == restore_batch(sched, fresh, x1, cfg).tobytes()

    def test_replaced_predict_is_called_at_every_step(self, monkeypatch):
        """A subclass's predict, or a wrapper set on the class, sees every
        step of a restore, and a wrapper that only passes through leaves the
        result unchanged."""
        sched = GvpSchedule(0.5, 1.0)
        cfg = SamplerConfig(trajectory=Linear(phi=sched.phi, delta=0.5), n_steps=5, eta=0.3)
        x1 = np.random.default_rng(5).normal(size=(3, 2))
        net = _random_mlp(2, 8, seed=5)
        calls = []

        class Shifted(MlpDenoiser):
            def predict(self, x, x1, r, g):
                calls.append((r, g))
                return super().predict(x, x1, r, g) + 1.0

        shifted = Shifted(dim=2, hidden=16, emb_dim=8, sigma_d=net.sigma_d, params=net.params)
        plain = restore_batch(sched, net, x1, cfg)
        assert not np.array_equal(restore_batch(sched, shifted, x1, cfg), plain)
        assert len(calls) == 5

        calls.clear()
        own = MlpDenoiser.predict

        def wrapped(self, x, x1, r, g):
            calls.append((r, g))
            return own(self, x, x1, r, g)

        monkeypatch.setattr(MlpDenoiser, "predict", wrapped)
        assert restore_batch(sched, net, x1, cfg).tobytes() == plain.tobytes()
        assert len(calls) == 5
        with pytest.raises(DimensionMismatch):
            net.bind(np.zeros(3), [(0.1, 0.2)])


    def test_cached_grid_rows_are_read_only(self):
        times = ((0.25, 0.5), (0.1, 0.3))
        rows = _grid_rows(times, 8)
        assert rows.shape == (2, 1, 16)
        for row, (r, g) in zip(rows, times):
            assert np.array_equal(row[0], np.concatenate([time_embed(r, 8), time_embed(g, 8)]))
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0, 0] = 1.0


# The perfbench restore modes: (trajectory kind, n_steps, eta).
_MODES = {"disi-r": ("regression", 1, 0.0), "disi-g": ("elliptical", 10, 0.0),
          "eta05": ("elliptical", 15, 0.5)}


def _mode_config(sched, mode, seed=6):
    kind, n_steps, eta = _MODES[mode]
    traj = (Regression(phi=sched.phi) if kind == "regression"
            else Elliptical(phi=sched.phi, delta=math.pi / 8))
    return SamplerConfig(trajectory=traj, n_steps=n_steps, eta=eta, seed=seed)


def _loaded(tmp_path, seed=21, sigma_d=1.3, name="ck.json"):
    """A checkpoint of a random MLP, with EMA weights, as load_checkpoint
    returns it."""
    net = _random_mlp(2, 8, seed=seed)
    net.sigma_d = sigma_d
    path = tmp_path / name
    save_checkpoint(path, net, rho=0.5, ema_params=net.params)
    return load_checkpoint(path)


@lru_cache(maxsize=None)
def _loaded_bench_size(dim, sigma_d):
    """load_checkpoint's net for a random MLP of perfbench's size, hidden
    128 and emb 32, whose products take the benchmark's BLAS kernels."""
    rng = np.random.default_rng(dim)
    net = MlpDenoiser(dim=dim, hidden=128, emb_dim=32, sigma_d=sigma_d, params={})
    net.reinit(rng)
    for key in ("W3", "b1", "b3"):
        net.params[key] = rng.normal(0.0, 0.3, size=net.params[key].shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.json")
        save_checkpoint(path, net, rho=0.5)
        return load_checkpoint(path).net


def _writable_copy(net):
    return MlpDenoiser(dim=net.dim, hidden=net.hidden, emb_dim=net.emb_dim,
                       sigma_d=net.sigma_d, params={k: v.copy() for k, v in net.params.items()})


class TestLoadedNet:
    """A loaded net holds read-only tensors, and its bind keeps each time
    grid's first-layer rows while params holds those same immutable W1 and b1."""

    def test_every_tensor_is_read_only(self, tmp_path):
        ck = _loaded(tmp_path)
        for net in (ck.net, ck.ema_net):
            assert set(net.params) == {"W1", "b1", "W2", "b2", "W3", "b3"}
            for a in net.params.values():
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a *= 2.0
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 1.0

    @pytest.mark.parametrize("sigma_d", [1.0, 1.3])
    def test_restores_equal_a_writable_copy(self, tmp_path, sigma_d):
        """Byte-equal results in every perfbench mode, one-point and batched,
        on the first call over a grid and on later ones, with the modes'
        grids interleaved."""
        net = _loaded(tmp_path, sigma_d=sigma_d).denoiser()
        copy = _writable_copy(net)
        sched = GvpSchedule(0.5, sigma_d)
        x1 = np.random.default_rng(22).normal(size=(2000, 2)) * sigma_d
        for _ in range(3):
            for mode in _MODES:
                cfg = _mode_config(sched, mode)
                got, want = (restore(sched, n, x1[7], cfg) for n in (net, copy))
                assert got.shape == (2,) and got.tobytes() == want.tobytes()
                for rows in (1, 257, 2000):
                    got, want = (restore_batch(sched, n, x1[:rows], cfg) for n in (net, copy))
                    assert got.shape == (rows, 2) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 2)])
    def test_rows_computed_once_per_grid_only_for_immutable_weights(self, tmp_path,
                                                                     monkeypatch, shape):
        """Ten binds over one grid, for a vector, one row and two or more
        rows (the erf kernel), embed it once on a loaded net and ten times
        on a writable net, or on one whose W1 alone is a read-only view of a
        writable array; predict keeps nothing."""
        loaded = _loaded(tmp_path).net
        writable = _writable_copy(loaded)
        viewed = _writable_copy(loaded)
        viewed.params = dict(loaded.params, W1=viewed.params["W1"].view())
        viewed.params["W1"].flags.writeable = False
        calls = []
        grid_rows = denoiser._grid_rows

        def spy(times, emb_dim):
            calls.append(times)
            return grid_rows(times, emb_dim)

        monkeypatch.setattr(denoiser, "_grid_rows", spy)
        times = [(0.3, 0.1), (0.2, 0.4)]
        x1 = np.zeros(shape)
        for net, want in ((loaded, 1), (writable, 10), (viewed, 10)):
            calls.clear()
            steps = [net.bind(x1, times) for _ in range(10)]
            assert len(calls) == want
            assert (tuple(times) in net._rows) == (want == 1)
            assert {s(x1, 1).tobytes() for s in steps} == {net.predict(x1, x1, 0.2, 0.4).tobytes()}
        fresh = _loaded(tmp_path, name="fresh.json").net
        fresh.predict(x1, x1, 0.3, 0.1)
        assert fresh._rows == {}
        calls.clear()
        fresh.bind(x1, [(0.3, 0.1)])
        assert len(calls) == 1

    def test_new_weights_are_seen(self, tmp_path):
        """A new read-only array under any one of the six params keys, a
        whole new params dict, or a read-only W2 made writable and changed
        in place, is read by the next bind: a vector, a one-row and a
        multi-row restore each equal those of a fresh writable copy."""
        ck = _loaded(tmp_path)
        net = ck.net
        rng = np.random.default_rng(23)
        other = {}
        for key, a in net.params.items():
            other[key] = a = rng.normal(0.0, 0.5, size=a.shape)
            a.flags.writeable = False
        sched = GvpSchedule(0.5, net.sigma_d)
        cfg = _mode_config(sched, "eta05")
        x1 = np.random.default_rng(24).normal(size=(5, 2))
        results = []

        def check():
            copy = _writable_copy(net)
            got = []
            for n in (net, copy):
                got.append((restore(sched, n, x1[0], cfg).tobytes(),
                            restore_batch(sched, n, x1[:1], cfg).tobytes(),
                            restore_batch(sched, n, x1, cfg).tobytes()))
            assert got[0] == got[1]
            results.append(got[0])

        check()
        for key in ("W1", "b1", "W2", "b2", "W3", "b3"):
            net.params[key] = other[key]
            check()
        net.params = dict(ck.ema_net.params)  # the first weights again
        check()
        net.params = other
        check()
        other["W2"].flags.writeable = True  # W2 is read at each bind
        other["W2"] *= 1.5
        check()
        assert results[7] == results[0] and results[8] == results[6]
        assert len(set(results)) == 8

    def test_kept_grids_are_bounded(self, tmp_path, monkeypatch):
        """Of 300 distinct grids a net keeps at most 256, the last one among
        them."""
        net = _loaded(tmp_path).net
        x1 = np.zeros(2)
        for k in range(300):
            net.bind(x1, [(0.001 * k, 0.2)])
            assert 0 < len(net._rows) <= 256
        monkeypatch.setattr(denoiser, "_grid_rows", None)  # any embedding would fail
        net.bind(x1, [(0.001 * 299, 0.2)])

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(sorted(_MODES)), sigma_d=st.sampled_from([1.0, 0.7]),
           dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
           item=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 10.0))
    def test_one_point_equals_its_one_row_batch(self, mode, sigma_d, dim, seed, item, scale):
        """Determinism under batching through a loaded net of perfbench's
        size: restore of item i's point on its own stream equals
        restore_batch of that one row at item_offset i, bit for bit, so the
        vector path rounds as the one-row batch does.  The point as the
        first of two rows, which take the erf GELU, agrees within 1e-9."""
        net = _loaded_bench_size(dim, sigma_d)
        sched = GvpSchedule(0.5, sigma_d)
        cfg = _mode_config(sched, mode, seed=seed)
        x1 = np.random.default_rng([seed, item]).normal(0.0, scale, size=dim)
        got = restore(sched, net, x1, cfg, rng=np.random.default_rng([seed, item]))
        want = restore_batch(sched, net, x1[None], cfg, item_offset=item)
        assert got.shape == (dim,) and want.shape == (1, dim)
        assert got.tobytes() == want[0].tobytes()
        pair = restore_batch(sched, net, np.stack([x1, -x1]), cfg, item_offset=item)
        np.testing.assert_allclose(pair[0], got, rtol=1e-9, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(TRAJECTORY_KINDS)),
           delta=st.one_of(st.sampled_from([0.0, math.pi / 8, HALF_PI]),
                           st.floats(0.0, HALF_PI)),
           eta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           n_steps=st.integers(1, 15),
           seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96 - 1),
                          st.integers(2**96, 2**160),
                          st.sampled_from([2**32 - 1, 2**32, 2**96 - 1, 2**96])),
           den=st.sampled_from(["oracle", "loaded"]))
    @example(kind="elliptical", delta=math.pi / 8, eta=0.5, n_steps=15, seed=2**96,
             den="loaded")
    def test_restore_is_its_one_row_batch(self, kind, delta, eta, n_steps, seed, den):
        """restore(x1) without a generator is restore_batch(x1[None])[0] bit
        for bit, item 0's stream default_rng([seed, 0]), on either side of
        2**32 and of 2**96 (where default_rng(seed) stops being that
        stream), on the Gaussian oracle and a loaded net of perfbench's
        size; a rejected configuration is rejected by both."""
        sched = GvpSchedule(0.5, 1.0)
        net = GaussianOracle(rho=0.5) if den == "oracle" else _loaded_bench_size(2, 1.0)
        params = {} if kind == "regression" else {"delta": delta}
        traj = make_trajectory(kind, sched.phi, **params)
        cfg = SamplerConfig(trajectory=traj, n_steps=n_steps, eta=eta, seed=seed)
        x1 = np.random.default_rng(n_steps).normal(size=2)
        if traj.lifts and traj.starts_noiseless and n_steps == 1 and eta != 1.0:
            for run in (restore, restore_batch):
                with pytest.raises(ConfigError):
                    run(sched, net, x1 if run is restore else x1[None], cfg)
            return
        got = restore(sched, net, x1, cfg)
        assert got.tobytes() == restore_batch(sched, net, x1[None], cfg)[0].tobytes()

    def test_threads_binding_one_net(self, tmp_path):
        """Six threads binding one loaded net over 100 grids each, under a
        short switch interval, leave it within 256 grids, and every bound
        step equals predict."""
        net = _loaded(tmp_path).net
        x1 = np.array([0.4, -0.3])
        wrong = []

        def work(first):
            for k in range(first, first + 100):
                r = 0.001 * k
                got = net.bind(x1, [(r, 0.2)])(x1, 0)
                if got.tobytes() != net.predict(x1, x1, r, 0.2).tobytes():
                    wrong.append(r)
                if len(net._rows) > 256:
                    wrong.append(len(net._rows))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(50 * i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert 0 < len(net._rows) <= 256


class TestBlocks:
    """The step predictor runs a batch in blocks of at most _BLOCK_ROWS + 1
    rows, cut at multiples of _BLOCK_ROWS."""

    SIZES = (2, 255, 256, 257, 511, 512, 513, 2001)

    def test_block_cuts(self):
        assert _BLOCK_ROWS == 256
        for n in [*range(0, 1100), 2001, 4097]:
            cuts = _row_blocks(n)
            assert cuts[0].start == 0 and cuts[-1].stop == n
            for a, b in zip(cuts, cuts[1:]):
                assert a.stop == b.start
            for s in cuts:
                assert s.start % _BLOCK_ROWS == 0
                assert s.stop - s.start <= _BLOCK_ROWS + 1
                assert s.stop - s.start != 1 or n == 1
        assert [(s.start, s.stop) for s in _row_blocks(513)] == [(0, 256), (256, 513)]

    def test_step_runs_each_block(self, monkeypatch):
        """Each hidden layer sees one block at a time, never the whole batch.
        bind looks its GELU's ufunc up through denoiser._erf for two or more
        rows and through denoiser._ndtr for one row or a vector, so the spies
        they return see every GELU call of every block, and the other
        kernel's spy sees none."""
        seen = {"_erf": [], "_ndtr": []}
        for name, calls in seen.items():
            real = getattr(denoiser, name)()

            def spy(z, real=real, calls=calls):
                calls.append(z.shape)
                return real(z)

            monkeypatch.setattr(denoiser, name, lambda spy=spy: spy)
        net = _random_mlp(3, 8, seed=6)
        rng = np.random.default_rng(6)
        for shape in (*[(n, 3) for n in self.SIZES], (1, 3), (3,)):
            x, x1 = rng.normal(size=(2, *shape))
            for calls in seen.values():
                calls.clear()
            net.bind(x1, [(0.3, 0.1)])(x, 0)
            kernel, other = ("_erf", "_ndtr") if len(shape) == 2 and shape[0] > 1 else ("_ndtr", "_erf")
            if len(shape) == 1:
                want = [(net.hidden,)] * 2
            else:
                want = [(s.stop - s.start, net.hidden) for s in _row_blocks(shape[0]) for _ in range(2)]
            assert seen[kernel] == want and seen[other] == []

    def test_ndtr_looked_up_once_per_pass(self, monkeypatch):
        """A bind looks its kernel's ufunc up once (erf for two or more rows,
        ndtr for one row or a vector), and forward_batch ndtr once, however
        many steps and blocks then run."""
        lookups = []
        for name in ("_erf", "_ndtr"):
            real = getattr(denoiser, name)

            def counted(name=name, real=real):
                lookups.append(name)
                return real()

            monkeypatch.setattr(denoiser, name, counted)
        net = _random_mlp(3, 8, seed=6)
        x, x1 = np.random.default_rng(6).normal(size=(2, 600, 3))
        for rows, want in ((x1, "_erf"), (x1[:1], "_ndtr"), (x1[0], "_ndtr")):
            lookups.clear()
            step = net.bind(rows, [(0.3, 0.1), (0.2, 0.4)])
            for i in (0, 1, 0):
                step(x[: len(rows)] if rows.ndim == 2 else x[0], i)
            assert lookups == [want]
        lookups.clear()
        net.forward_batch(net.features(x, x1, 0.3, 0.1))
        assert lookups == ["_ndtr"]

    @pytest.mark.parametrize("n", SIZES)
    def test_blocked_equals_each_block_alone(self, n):
        """A bound step and predict equal bit for bit the same predictor run
        on each block's slice, and stay within 1e-12 of
        sigma_d * forward_batch(features(...))."""
        net = _random_mlp(3, 8, seed=n)
        rng = np.random.default_rng(n)
        x, x1 = rng.normal(size=(2, n, 3))
        times = [(0.3, 0.1), tuple(rng.uniform(-HALF_PI, HALF_PI, size=2))]
        step = net.bind(x1, times)
        cases = [(step(x, i), lambda s, i=i: net.bind(x1[s], times)(x[s], i), times[i])
                 for i in range(len(times))]
        cases.append(
            (net.predict(x, x1, 0.3, 0.1), lambda s: net.predict(x[s], x1[s], 0.3, 0.1), (0.3, 0.1))
        )
        for got, alone, (r, g) in cases:
            assert got.shape == (n, 3)
            for s in _row_blocks(n):
                assert got[s].tobytes() == alone(s).tobytes()
            core, _ = net.forward_batch(net.features(x, x1, r, g))
            np.testing.assert_allclose(got, net.sigma_d * core, rtol=0.0, atol=1e-12)

    def test_one_dimensional_input_is_its_one_row_batch(self):
        net = _random_mlp(3, 8, seed=7)
        x, x1 = np.random.default_rng(7).normal(size=(2, 3))
        got = net.predict(x, x1, 0.3, 0.1)
        assert got.shape == (3,)
        assert got.tobytes() == net.predict(x[None], x1[None], 0.3, 0.1)[0].tobytes()
        assert got.tobytes() == net.bind(x1, [(0.3, 0.1)])(x, 0).tobytes()

    def test_empty_batch_and_wrong_width(self):
        net = _random_mlp(3, 8, seed=9)
        empty = np.zeros((0, 3))
        assert net.predict(empty, empty, 0.3, 0.1).shape == (0, 3)
        assert net.bind(empty, [(0.3, 0.1)])(empty, 0).shape == (0, 3)
        wide = np.zeros((600, 4))
        with pytest.raises(DimensionMismatch):
            net.predict(wide, wide, 0.3, 0.1)
        with pytest.raises(DimensionMismatch):
            net.bind(wide, [(0.3, 0.1)])
        step = net.bind(np.zeros((600, 3)), [(0.3, 0.1)])
        with pytest.raises(DimensionMismatch):
            step(np.zeros((599, 3)), 0)
        for rows in (600, 601):
            with pytest.raises(DimensionMismatch, match="one scalar"):
                net.predict(np.zeros((600, 3)), np.zeros((600, 3)), np.zeros(rows), 0.1)


def _reference_step(net, x, x1, r, g):
    """A bound step written out with every scaling done, as a 2-D batch
    cut by _row_blocks: x/sigma_d @ W1_x + x1/sigma_d @ W1_x1 + the one-row
    bias product, the hidden layers, then * sigma_d.  A vector or one row
    takes the GELU z * ndtr(z).  Two or more rows take z' (1 + erf(z')) on
    z' = C z, C = 1/sqrt 2, with C folded into W1's blocks and the bias
    row, C into b2, 1/2 into W2 and C into W3."""
    p, d, sd = net.params, net.dim, net.sigma_d
    xs, x1s = np.atleast_2d(x), np.atleast_2d(x1)
    bias = _grid_rows(((r, g),), net.emb_dim) @ p["W1"][2 * d :] + p["b1"]
    w1_x, w1_x1 = p["W1"][:d], p["W1"][d : 2 * d]
    layers = ((p["W2"], p["b2"]), (p["W3"], p["b3"]))
    ndtr, erf = denoiser._ndtr(), denoiser._erf()
    folded = len(xs) > 1
    if folded:
        c = 1.0 / math.sqrt(2.0)
        w1_x, w1_x1, bias = w1_x * c, w1_x1 * c, bias * c
        layers = ((p["W2"] * 0.5, p["b2"] * c), (p["W3"] * c, p["b3"]))
    out = np.empty_like(xs)
    for s in _row_blocks(len(xs)):
        z = (xs[s] / sd) @ w1_x
        z += (x1s / sd)[s] @ w1_x1
        z += bias[0]
        for w, b in layers:
            if folded:
                z *= 1.0 + erf(z)
            else:
                z *= ndtr(z)
            z = z @ w
            z += b
        z *= sd
        out[s] = z
    return out[0] if np.ndim(x) == 1 else out


class TestBoundStepContract:
    """The bound step's fast path keeps predict's contract bit for bit: its
    hoisted layout, the skipped unit scaling and the type check change no
    output and no error."""

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(3,), (1, 3), *[(n, 3) for n in (2, 255, 256, 257, 258, 513)]]),
           sigma_d=st.sampled_from([1.0, 0.7]), seed=st.integers(0, 2**32 - 1),
           r=st.floats(-HALF_PI, HALF_PI), g=st.floats(0.0, HALF_PI),
           read_only=st.booleans())
    @example(shape=(3,), sigma_d=0.7, seed=1, r=0.4, g=0.2, read_only=True)
    @example(shape=(1, 3), sigma_d=1.0, seed=2, r=-0.4, g=1.2, read_only=True)
    def test_bound_step_equals_predict(self, shape, sigma_d, seed, r, g, read_only):
        """Also for read-only tensors, as load_checkpoint gives them, whose
        first-layer rows a later bind over the grid takes from the net's
        store."""
        net = _random_mlp(3, 8, seed=seed % 97)
        net.sigma_d = sigma_d
        if read_only:
            for key, a in net.params.items():
                net.params[key] = a = a.copy()
                a.flags.writeable = False
        x, x1 = np.random.default_rng(seed).normal(size=(2, *shape))
        times = [(0.3, 0.1), (r, g)]
        steps = [net.bind(x1, times) for _ in range(2)]
        assert (tuple(times) in net._rows) == read_only
        want = _reference_step(net, x, x1, r, g).tobytes()
        for step in steps:
            got = step(x, 1)
            assert got.shape == shape and got.dtype == np.float64
            assert got.tobytes() == net.predict(x, x1, r, g).tobytes()
            assert got.tobytes() == want

    def test_overflowing_net_raises(self):
        """Weights that overflow the hidden activations make a restore raise
        NonFiniteOutput through either GELU kernel: a vector, one row, and
        two or more rows."""
        net = _random_mlp(3, 8, seed=13)
        for v in net.params.values():
            v *= 1e200
        sched = GvpSchedule(0.5, net.sigma_d)
        cfg = _mode_config(sched, "disi-g")
        x1 = np.random.default_rng(13).normal(size=(300, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteOutput):
                restore(sched, net, x1[0], cfg)
            for rows in (1, 2, 300):
                with pytest.raises(NonFiniteOutput):
                    restore_batch(sched, net, x1[:rows], cfg)

    @pytest.mark.parametrize("sigma_d", [1.0, 0.7])
    def test_state_is_converted(self, sigma_d):
        net = _random_mlp(3, 8, seed=10)
        net.sigma_d = sigma_d
        x, x1 = np.random.default_rng(10).normal(size=(2, 4, 3))
        step = net.bind(x1, [(0.3, 0.1)])
        want = step(x, 0).tobytes()
        assert step(x.tolist(), 0).tobytes() == want
        assert step(np.asfortranarray(x), 0).tobytes() == want
        x32 = x.astype(np.float32)
        assert step(x32, 0).tobytes() == step(x32.astype(np.float64), 0).tobytes()
        assert step(x.astype(">f8"), 0).tobytes() == want
        flat = net.bind(x1[0], [(0.3, 0.1)])
        assert flat(list(x[0]), 0).tobytes() == flat(x[0], 0).tobytes()
        assert net.predict(x.tolist(), x1.tolist(), 0.3, 0.1).tobytes() == want

    def test_wrong_shape_raises(self):
        net = _random_mlp(3, 8, seed=11)
        for x1_shape, bad in (((3,), [(1, 3), (4,), (3, 1), ()]),
                              ((1, 3), [(3,), (2, 3), (1, 4)]),
                              ((300, 3), [(299, 3), (300, 4), (900,)])):
            step = net.bind(np.zeros(x1_shape), [(0.3, 0.1)])
            for shape in bad:
                with pytest.raises(DimensionMismatch):
                    step(np.zeros(shape), 0)
                with pytest.raises(DimensionMismatch):
                    net.predict(np.zeros(shape), np.zeros(x1_shape), 0.3, 0.1)
        for x1 in (np.zeros(()), np.zeros((2, 3, 3))):
            with pytest.raises(DimensionMismatch):
                net.bind(x1, [(0.3, 0.1)])
        # A scalar is neither a vector nor a batch, even for a one-wide net.
        with pytest.raises(DimensionMismatch):
            _random_mlp(1, 8, seed=11).bind(np.zeros(()), [(0.3, 0.1)])

    @pytest.mark.parametrize("sigma_d", [1.0, 0.7])
    def test_inputs_unchanged(self, sigma_d):
        net = _random_mlp(3, 8, seed=12)
        net.sigma_d = sigma_d
        for n in (1, 300):
            x, x1 = np.random.default_rng(n).normal(size=(2, n, 3))
            before = x.tobytes(), x1.tobytes()
            net.bind(x1, [(0.3, 0.1)])(x, 0)
            net.bind(x1[0], [(0.3, 0.1)])(x[0], 0)
            net.predict(x, x1, 0.3, 0.1)
            assert (x.tobytes(), x1.tobytes()) == before


class TestGelu:
    def test_matches_erf_reference(self):
        """z * ndtr(z) and its derivative agree with the erf forms out to
        |z| = 40, within 1e-15 * max(1, |z|)."""
        z = np.linspace(-40.0, 40.0, 16001)[:, None]
        params = {"V": np.ones((1, 1)), "c": np.zeros(1), "W": np.ones((1, 1)), "b": np.zeros(1)}
        gelu, (_, pre, cdfs) = _dense_forward(params, (("V", "c"), ("W", "b")), z)
        erf = np.array([math.erf(t / math.sqrt(2.0)) for t in z[:, 0]])[:, None]
        tol = 1e-15 * np.maximum(1.0, np.abs(z))
        want = 0.5 * z * (1.0 + erf)
        want_grad = 0.5 * (1.0 + erf) + z * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        assert np.all(np.abs(gelu - want) <= tol)
        assert np.all(np.abs(_gelu_grad(pre[0], cdfs[0]) - want_grad) <= tol)

    @pytest.mark.parametrize("sigma_d", [1.0, 0.7])
    def test_batch_kernel_matches_erf_reference(self, sigma_d):
        """A batch's folded erf GELU agrees with 0.5 z (1 + erf(z / sqrt 2))
        out to |z| = 40, within 1e-12 * max(1, |z|).  The one-unit net's
        first layer passes z = x / sigma_d; its second adds 100, where the
        GELU is the identity in floats, and its output layer takes the 100
        off again."""
        net = MlpDenoiser(dim=1, hidden=1, emb_dim=2, sigma_d=sigma_d, params={
            "W1": np.array([[1.0], [0.0], [0.0], [0.0], [0.0], [0.0]]), "b1": np.zeros(1),
            "W2": np.ones((1, 1)), "b2": np.array([100.0]),
            "W3": np.ones((1, 1)), "b3": np.array([-100.0])})
        x = np.linspace(-40.0, 40.0, 16001)[:, None] * sigma_d
        got = net.predict(x, np.zeros_like(x), 0.3, 0.1)
        z = x[:, 0] / sigma_d
        erf = np.array([math.erf(t / math.sqrt(2.0)) for t in z])
        want = sigma_d * 0.5 * z * (1.0 + erf)
        assert np.all(np.abs(got[:, 0] - want) <= 1e-12 * np.maximum(1.0, np.abs(z)))


def _rewritten_checkpoint(tmp_path, mutate):
    """Save a small checkpoint with EMA weights, apply mutate to its JSON
    document, and write it back."""
    net = MlpDenoiser(dim=2, hidden=4, emb_dim=4)
    path = tmp_path / "ck.json"
    save_checkpoint(path, net, rho=0.2, ema_params=net.params)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(8)
        net = MlpDenoiser(dim=2, hidden=8, emb_dim=4, sigma_d=1.5, params={})
        net.reinit(rng)
        net.params["W3"] = rng.normal(size=net.params["W3"].shape)
        ema = {k: v * 0.5 for k, v in net.params.items()}
        path = tmp_path / "ck.json"
        save_checkpoint(path, net, rho=0.7482, ema_params=ema)
        ck = load_checkpoint(path)
        assert ck.rho == 0.7482
        x = rng.normal(size=2)
        np.testing.assert_array_equal(
            ck.denoiser(use_ema=False).predict(x, x, 0.1, 0.2),
            net.predict(x, x, 0.1, 0.2),
        )
        assert ck.ema_net is not None

    def test_bit_exact_reserialization(self, tmp_path):
        rng = np.random.default_rng(9)
        net = MlpDenoiser(dim=1, hidden=4, emb_dim=4, params={})
        net.reinit(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, net, rho=0.1)
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.net, rho=ck.rho)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("section", ["weights", "ema_weights"])
    def test_non_finite_weight_rejected(self, tmp_path, section):
        def mutate(doc):
            doc[section]["W1"][0][0] = float("nan")

        with pytest.raises(DomainError):
            load_checkpoint(_rewritten_checkpoint(tmp_path, mutate))

    @pytest.mark.parametrize("key, value", [
        ("sigma_d", -1.0), ("sigma_d", 0.0), ("rho", 1.5), ("rho", -1.0),
    ])
    def test_out_of_range_field_rejected(self, tmp_path, key, value):
        def mutate(doc):
            doc[key] = value

        path = _rewritten_checkpoint(tmp_path, mutate)
        with pytest.raises(DomainError, match=f"checkpoint {path} '{key}': "):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("sigma_d", 0.0), ("sigma_d", -1.0), ("sigma_d", math.inf),
        ("rho", 1.0), ("rho", -1.0), ("rho", math.nan),
    ])
    def test_checkpoint_and_sidecar_reject_in_one_format(self, tmp_path, key, value):
        """A checkpoint's sigma_d or rho and a sidecar's sigma_d or rho_hat
        out of range are rejected by the schedule's own check, in one
        format: `<file> '<field>': <the check's message>`."""
        check = {"sigma_d": check_sigma_d, "rho": check_rho}[key]
        with pytest.raises(DomainError) as owner:
            check(value)
        ck = _rewritten_checkpoint(tmp_path, lambda doc: doc.update({key: value}))
        with pytest.raises(DomainError) as caught:
            load_checkpoint(ck)
        assert str(caught.value) == f"checkpoint {ck} '{key}': {owner.value}"

        field = {"sigma_d": "sigma_d", "rho": "rho_hat"}[key]
        data = tmp_path / "d.csv"
        save_dataset(make_gaussian_pairs(0.5, 10, seed=1), data)
        meta = data.with_suffix(".meta.json")
        meta.write_text(json.dumps({**json.loads(meta.read_text()), field: value}))
        with pytest.raises(DomainError) as caught:
            load_dataset(data)
        assert str(caught.value) == f"sidecar {meta} '{field}': {owner.value}"

    def test_missing_tensor_rejected(self, tmp_path):
        def mutate(doc):
            del doc["ema_weights"]["b3"]

        with pytest.raises(DomainError):
            load_checkpoint(_rewritten_checkpoint(tmp_path, mutate))

    def test_misshaped_tensor_rejected(self, tmp_path):
        def mutate(doc):
            doc["weights"]["b2"].append(0.0)

        with pytest.raises(DimensionMismatch):
            load_checkpoint(_rewritten_checkpoint(tmp_path, mutate))

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        for text in ("not json", "[1, 2]", '{"version": 1, "dims": 2}'):
            path.write_text(text)
            with pytest.raises(DomainError):
                load_checkpoint(path)

    def test_byte_order_mark_is_not_part_of_the_json(self, tmp_path):
        """A UTF-8 byte-order mark before a checkpoint loads as the same
        checkpoint; bytes that are not UTF-8 are still a DomainError."""
        rng = np.random.default_rng(10)
        net = MlpDenoiser(dim=2, hidden=4, emb_dim=4, params={})
        net.reinit(rng)
        plain, bom, again = tmp_path / "plain.json", tmp_path / "bom.json", tmp_path / "again.json"
        save_checkpoint(plain, net, rho=0.3)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        ck = load_checkpoint(bom)
        save_checkpoint(again, ck.net, rho=ck.rho)
        assert again.read_bytes() == plain.read_bytes()
        bom.write_bytes(b"\xff" + plain.read_bytes())
        with pytest.raises(DomainError, match="is not JSON"):
            load_checkpoint(bom)

    def test_ema_optional(self, tmp_path):
        net = MlpDenoiser(dim=1, hidden=4, emb_dim=4)
        path = tmp_path / "c.json"
        save_checkpoint(path, net, rho=0.0)
        ck = load_checkpoint(path)
        assert ck.ema_net is None
        assert ck.denoiser() is ck.net
