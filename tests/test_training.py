"""Time samplers, adaptive-weighted objective, and the training loop."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgflow import (
    AdamW,
    AdaptiveWeight,
    ConfigError,
    DomainError,
    Elliptical,
    EllipticalSpecialist,
    GaussianOracle,
    GvpSchedule,
    LinearSpecialist,
    LogitNormalSampler,
    MlpDenoiser,
    NonFiniteLoss,
    RegressionSpecialist,
    SamplerConfig,
    TrainConfig,
    UniformSampler,
    make_gaussian_pairs,
    make_time_sampler,
    mse,
    restore_batch,
    train,
)
from rgflow import training

HALF_PI = math.pi / 2.0
PHI = GvpSchedule(0.5, 1.0).phi


class TestTimeSamplers:
    def test_single_draw_in_rectangle(self):
        rng = np.random.default_rng(0)
        for kind in (
            EllipticalSpecialist(),
            LinearSpecialist(),
            RegressionSpecialist(),
            UniformSampler(),
            LogitNormalSampler(0.0, 1.0, -0.5, 1.0),
        ):
            d = kind.sample_batch(PHI, rng, 1)
            r, g = float(d["r"][0]), float(d["g"][0])
            assert -PHI <= r <= PHI
            assert 0.0 <= g <= HALF_PI

    def test_elliptical_draws_lie_on_their_path(self):
        rng = np.random.default_rng(1)
        d = EllipticalSpecialist().sample_batch(PHI, rng, 10_000)
        mask = d["delta"] > 0
        res = (d["r"][mask] / PHI) ** 2 + (d["g"][mask] / d["delta"][mask]) ** 2
        np.testing.assert_allclose(res, 1.0, atol=1e-12)

    def test_linear_draws_lie_on_their_path(self):
        rng = np.random.default_rng(2)
        d = LinearSpecialist().sample_batch(PHI, rng, 10_000)
        mask = d["delta"] > 0
        res = d["r"][mask] / (-PHI) + d["g"][mask] / (d["delta"][mask] / 2.0)
        np.testing.assert_allclose(res, 1.0, atol=1e-12)

    def test_regression_draws_stay_noiseless(self):
        rng = np.random.default_rng(3)
        d = RegressionSpecialist().sample_batch(PHI, rng, 10_000)
        assert np.all(d["g"] == 0.0)
        assert np.all(np.abs(d["r"]) <= PHI)

    def test_uniform_marginals_cover_deciles(self):
        rng = np.random.default_rng(4)
        d = UniformSampler().sample_batch(PHI, rng, 100_000)
        for values, lo, hi in ((d["r"], -PHI, PHI), (d["g"], 0.0, HALF_PI)):
            counts, _ = np.histogram(values, bins=10, range=(lo, hi))
            assert np.all(np.abs(counts - 10_000) < 500)

    def test_factory_names(self):
        assert isinstance(make_time_sampler("elliptical"), EllipticalSpecialist)
        ln2 = make_time_sampler("lognorm2")
        assert isinstance(ln2, LogitNormalSampler) and ln2.m_g == -0.5
        with pytest.raises(ConfigError):
            make_time_sampler("cosine")


def _fd_gradients(loss, param_sets, h=1e-5):
    """Central differences of loss() in every entry of each params dict."""
    out = []
    for params in param_sets:
        out.append({})
        for key, p in params.items():
            fd = out[-1][key] = np.empty_like(p)
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + h
                up = loss()
                p[idx] = orig - h
                dn = loss()
                p[idx] = orig
                fd[idx] = (up - dn) / (2.0 * h)
    return out


def _random_nets(rng, sigma_d=1.0, adaptive=True, dim=2):
    """A small denoiser and weight net (None without adaptive weighting) with
    random weights in every layer, the zero-initialised ones too."""
    net = MlpDenoiser(dim=dim, hidden=8, emb_dim=4, sigma_d=sigma_d, params={})
    net.reinit(rng)
    w_net = AdaptiveWeight(emb_dim=4, hidden=6, rng=rng) if adaptive else None
    for each in (net, w_net) if adaptive else (net,):
        each.params = {k: rng.normal(0.0, 0.3, size=p.shape) for k, p in each.params.items()}
    return net, w_net


def _random_batch(rng, net, w_net, n=5):
    """(feats, w_feats, x0) of n random states at random times."""
    r, g = rng.uniform(-PHI, PHI, size=n), rng.uniform(0.0, HALF_PI, size=n)
    feats = net.features(rng.normal(size=(n, net.dim)), rng.normal(size=(n, net.dim)), r, g)
    return feats, None if w_net is None else w_net.features(r, g), rng.normal(size=(n, net.dim))


class TestObjective:
    """training._objective: the one loss `train` reports and descends,
    mean_i [exp(w_i) ||sigma_d core_i - x0_i||^2 - w_i], and its gradients."""

    @pytest.mark.parametrize("sigma_d", [1.0, 0.7])
    @pytest.mark.parametrize("adaptive", [True, False])
    def test_gradients_match_finite_differences(self, sigma_d, adaptive):
        """Every parameter of both nets, or of the denoiser alone (w = 0)."""
        rng = np.random.default_rng(7)
        net, w_net = _random_nets(rng, sigma_d, adaptive)
        batch = _random_batch(rng, net, w_net)
        grads = training._objective(net, w_net, *batch)[1]()
        nets = [net] if w_net is None else [net, w_net]
        assert (grads[1] is None) == (w_net is None)
        fd = _fd_gradients(lambda: training._objective(net, w_net, *batch)[0],
                           [each.params for each in nets])
        for got, want in zip(grads, fd):
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-4, atol=1e-8,
                                           err_msg=key)

    def test_no_weight_net_is_a_zero_weight(self):
        """Without a weight net the loss and the denoiser's gradient are, bit
        for bit, those under a weight net whose output is 0, as at its
        initialisation: the plain mean squared error."""
        rng = np.random.default_rng(8)
        net, _ = _random_nets(rng, 0.7, adaptive=False)
        w_net = AdaptiveWeight(emb_dim=4, hidden=6, rng=rng)
        feats, w_feats, x0 = _random_batch(rng, net, w_net)
        loss, gradients = training._objective(net, None, feats, None, x0)
        w_loss, w_gradients = training._objective(net, w_net, feats, w_feats, x0)
        assert loss == w_loss
        for key, value in gradients()[0].items():
            assert value.tobytes() == w_gradients()[0][key].tobytes(), key
        core, _ = net.forward_batch(feats)
        assert loss == pytest.approx(np.mean(((0.7 * core - x0) ** 2).sum(axis=1)), rel=1e-14)

    def test_unweighted_case(self):
        """A constant prediction (1, 2) against x0 = 0 costs 1 + 4."""
        rng = np.random.default_rng(9)
        net, _ = _random_nets(rng, adaptive=False)
        net.params["W3"][...], net.params["b3"][...] = 0.0, [1.0, 2.0]
        feats, _, x0 = _random_batch(rng, net, None)
        assert training._objective(net, None, feats, None, np.zeros_like(x0))[0] == 5.0

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_exact_fit_gives_zero_denoiser_gradient(self, adaptive):
        rng = np.random.default_rng(5)
        net, w_net = _random_nets(rng, 0.7, adaptive)
        feats, w_feats, _ = _random_batch(rng, net, w_net)
        x0 = net.sigma_d * net.forward_batch(feats)[0]
        net_grads, _ = training._objective(net, w_net, feats, w_feats, x0)[1]()
        assert all(np.all(g == 0.0) for g in net_grads.values())

    def test_exact_fit_pays_negative_weight(self):
        rng = np.random.default_rng(10)
        net, w_net = _random_nets(rng)
        feats, w_feats, _ = _random_batch(rng, net, w_net)
        x0 = net.sigma_d * net.forward_batch(feats)[0]
        w, _ = w_net.forward(w_feats)
        assert training._objective(net, w_net, feats, w_feats, x0)[0] == -np.mean(w)

    def test_weight_plus_ln2_doubles_denoiser_gradient(self):
        rng = np.random.default_rng(6)
        net, w_net = _random_nets(rng, 0.7)
        batch = _random_batch(rng, net, w_net)
        g1, _ = training._objective(net, w_net, *batch)[1]()
        w_net.params["c2"] += math.log(2.0)
        g2, _ = training._objective(net, w_net, *batch)[1]()
        for key in g1:
            np.testing.assert_allclose(g2[key], 2.0 * g1[key], rtol=1e-12, err_msg=key)

    def test_best_weight_is_negative_log_error(self):
        """With squared error `err` on every row and a constant weight w (the
        weight net's bias), exp(w) err - w is least at w = -ln(err): there
        the bias's gradient vanishes and a step either way costs more."""
        err = 0.37
        rng = np.random.default_rng(11)
        net, w_net = _random_nets(rng, dim=1)
        net.params["W3"][...], net.params["b3"][...] = 0.0, math.sqrt(err)
        w_net.params["V2"][...] = 0.0
        feats, w_feats, x0 = _random_batch(rng, net, w_net)

        def at(w):
            w_net.params["c2"][...] = w
            return training._objective(net, w_net, feats, w_feats, np.zeros_like(x0))

        best, gradients = at(-math.log(err))
        assert abs(gradients()[1]["c2"][0]) < 1e-15
        assert best < at(-math.log(err) - 1e-3)[0] and best < at(-math.log(err) + 1e-3)[0]


class TestAdaptiveWeight:
    @pytest.mark.parametrize(
        "name, value",
        [("emb_dim", 0), ("emb_dim", -2), ("emb_dim", 3), ("hidden", 0), ("hidden", -1)],
    )
    def test_bad_sizes_rejected(self, name, value):
        """The weight net checks its sizes as MlpDenoiser does."""
        with pytest.raises(DomainError, match=name):
            AdaptiveWeight(rng=np.random.default_rng(0), **{name: value})

    def test_zero_initialised_output(self):
        w = AdaptiveWeight(rng=np.random.default_rng(0))
        vals, _ = w.forward(w.features(np.array([0.1, -0.3]), np.array([0.2, 1.0])))
        np.testing.assert_array_equal(vals, 0.0)


class TestAdamW:
    SHAPES = {"W1": (40, 32), "b1": (32,), "W2": (32, 3), "b2": (3,)}

    def test_flat_step_matches_per_key_folded_formula(self):
        """Five steps on one flat vector equal, bitwise, the folded AdamW
        update written out per parameter tensor with its own moments."""
        rng = np.random.default_rng(0)
        params = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
        flat = np.concatenate([p.ravel() for p in params.values()])
        lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 1e-2
        opt = AdamW(lr, weight_decay=wd)
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t in range(1, 6):
            grads = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
            root_c2 = math.sqrt(1.0 - b2**t)
            for key, p in params.items():
                gr = grads[key]
                m[key] *= b1
                m[key] += (1.0 - b1) * gr
                v[key] *= b2
                v[key] += (1.0 - b2) * gr * gr
                p *= 1.0 - lr * wd
                p -= lr * root_c2 / (1.0 - b1**t) * (m[key] / (np.sqrt(v[key]) + eps * root_c2))
            opt.step(flat, np.concatenate([grads[k].ravel() for k in params]))
            assert np.array_equal(
                flat, np.concatenate([p.ravel() for p in params.values()])
            )

    @settings(max_examples=30, deadline=None)
    @given(
        lr=st.floats(1e-6, 0.1),
        b1=st.floats(0.0, 0.99),
        b2=st.floats(0.9, 0.9999),
        eps=st.floats(1e-12, 1e-3),
        wd=st.floats(0.0, 0.1),
        grad_scale=st.floats(1e-4, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_agrees_with_textbook_formula(self, lr, b1, b2, eps, wd, grad_scale, seed):
        """Over 200 steps the folded update stays within rounding of
        p -= lr (m_hat / (sqrt(v_hat) + eps) + wd p)."""
        rng = np.random.default_rng(seed)
        flat = rng.normal(size=64)
        ref, m, v = flat.copy(), np.zeros(64), np.zeros(64)
        opt = AdamW(lr, (b1, b2), eps, wd)
        for t in range(1, 201):
            grads = grad_scale * rng.normal(size=64)
            m = b1 * m + (1.0 - b1) * grads
            v = b2 * v + (1.0 - b2) * grads * grads
            m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
            ref = ref - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref)
            opt.step(flat, grads)
        np.testing.assert_allclose(flat, ref, rtol=1e-10, atol=1e-12)

    def test_step_allocates_no_parameter_sized_array(self):
        """After the first step has allocated the moments and scratch
        buffers, a step's traced memory never grows by a parameter vector."""
        rng = np.random.default_rng(1)
        params = rng.normal(size=25_602)
        grads = rng.normal(size=params.size)
        opt = AdamW()
        opt.step(params, grads)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            opt.step(params, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < params.nbytes

    BAD_SETTINGS = {
        "lr=0": ("lr", 0.0), "lr<0": ("lr", -1e-3), "lr=nan": ("lr", math.nan),
        "lr=inf": ("lr", math.inf), "beta1=1": ("betas", (1.0, 0.999)),
        "beta2=1": ("betas", (0.9, 1.0)), "beta1<0": ("betas", (-0.1, 0.999)),
        "beta2=nan": ("betas", (0.9, math.nan)), "eps=0": ("eps", 0.0),
        "eps=nan": ("eps", math.nan), "eps=inf": ("eps", math.inf),
        "wd<0": ("weight_decay", -1e-2), "wd=nan": ("weight_decay", math.nan),
        "wd=inf": ("weight_decay", math.inf),
    }

    @pytest.mark.parametrize("name, value", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
    def test_bad_settings_rejected(self, name, value):
        """Each of these would fill the parameters with NaN or raise
        ZeroDivisionError at the first step."""
        with pytest.raises(ConfigError, match=f"^{name} must"):
            AdamW(**{name: value})

    def test_edge_settings_step_finitely(self):
        params = np.ones(4)
        opt = AdamW(betas=(0.0, 0.0), weight_decay=0.0)
        opt.step(params, np.zeros(4))
        opt.step(params, np.array([1.0, -1.0, 0.0, 2.0]))
        assert np.all(np.isfinite(params))


class TestTrainLoop:
    def test_bitwise_deterministic(self):
        ds = make_gaussian_pairs(0.5, 200, seed=1, dim=1)
        cfg = TrainConfig(n_steps=50, seed=9, hidden=16, emb_dim=8)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        for key in a.denoiser.params:
            assert np.array_equal(a.denoiser.params[key], b.denoiser.params[key])

    def test_one_optimizer_step_per_training_step(self, monkeypatch):
        """The denoiser and the weight net share one AdamW, stepped once per
        training step, with adaptive weighting on or off."""
        calls = []
        step = AdamW.step

        def counted(self, params, grads):
            calls.append(params.size)
            step(self, params, grads)

        monkeypatch.setattr(AdamW, "step", counted)
        ds = make_gaussian_pairs(0.5, 200, seed=1, dim=1)
        for adaptive in (True, False):
            calls.clear()
            cfg = TrainConfig(n_steps=7, seed=9, hidden=16, emb_dim=8,
                              adaptive_weighting=adaptive)
            result = train(ds, cfg)
            sizes = [sum(p.size for p in result.denoiser.params.values())]
            if adaptive:
                sizes.append(sum(p.size for p in result.weight_net.params.values()))
            assert calls == [sum(sizes)] * 7

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_optimizer_gets_the_gradient_of_the_reported_loss(self, monkeypatch, adaptive):
        """Each step hands AdamW, in params order, the gradient of the loss
        that step reports: central differences of its batch's _objective in
        every parameter that the optimizer updates."""
        calls, grads = [], []
        objective, step = training._objective, AdamW.step

        def recorded(net, w_net, feats, w_feats, x0):
            nets = [net] if w_net is None else [net, w_net]
            calls.append(([{k: p.copy() for k, p in each.params.items()} for each in nets],
                          feats.copy(), None if w_feats is None else w_feats.copy(), x0.copy()))
            return objective(net, w_net, feats, w_feats, x0)

        def stepped(self, params, g):
            grads.append(g.copy())
            step(self, params, g)

        monkeypatch.setattr(training, "_objective", recorded)
        monkeypatch.setattr(AdamW, "step", stepped)
        ds = make_gaussian_pairs(0.5, 100, seed=1, dim=2)
        cfg = TrainConfig(n_steps=3, batch_size=4, seed=9, hidden=6, emb_dim=4,
                          learning_rate=1e-2, adaptive_weighting=adaptive)
        result = train(ds, cfg)
        # One call a step, and the last step's batch once more after its update.
        assert len(calls) == len(grads) + 1 == cfg.n_steps + 1
        for i, (param_sets, feats, w_feats, x0) in enumerate(calls[:-1]):
            net = replace(result.denoiser, params=param_sets[0])
            w_net = None
            if adaptive:
                w_net = AdaptiveWeight(rng=np.random.default_rng(0))
                w_net.params = param_sets[1]

            def loss():
                return objective(net, w_net, feats, w_feats, x0)[0]

            assert loss() == result.loss_trace[i]
            fd = _fd_gradients(loss, param_sets)
            want = np.concatenate([v.ravel() for params in fd for v in params.values()])
            np.testing.assert_allclose(grads[i], want, rtol=1e-4, atol=1e-8)

    def test_weight_net_frozen_without_adaptive_weighting(self):
        """With adaptive weighting off, the weight net keeps its initial draw:
        its params after 1 and after 50 steps are bitwise equal."""
        ds = make_gaussian_pairs(0.5, 200, seed=1, dim=1)
        nets = [
            train(ds, TrainConfig(n_steps=n, seed=9, hidden=16, emb_dim=8,
                                  adaptive_weighting=False)).weight_net
            for n in (1, 50)
        ]
        for key, value in nets[0].params.items():
            assert np.array_equal(value, nets[1].params[key])

    def test_zero_ema_decay_tracks_weights(self):
        ds = make_gaussian_pairs(0.5, 200, seed=1, dim=1)
        cfg = TrainConfig(n_steps=5, seed=9, hidden=16, emb_dim=8, ema_decay=0.0)
        result = train(ds, cfg)
        for key in result.denoiser.params:
            assert np.array_equal(
                result.ema_denoiser.params[key], result.denoiser.params[key]
            )

    def test_parameter_sets_keep_shapes_and_do_not_alias(self):
        """Each model's params are named views of one flat vector, with the
        documented shapes; the raw and EMA sets share no memory."""
        ds = make_gaussian_pairs(0.5, 200, seed=1, dim=2)
        cfg = TrainConfig(n_steps=5, seed=9, hidden=16, emb_dim=8)
        result = train(ds, cfg)
        d_in = 2 * 2 + 2 * 8
        shapes = {"W1": (d_in, 16), "b1": (16,), "W2": (16, 16), "b2": (16,),
                  "W3": (16, 2), "b3": (2,)}
        w_shapes = {"V1": (32, 32), "c1": (32,), "V2": (32, 1), "c2": (1,)}
        for net, want in ((result.denoiser, shapes), (result.ema_denoiser, shapes),
                          (result.weight_net, w_shapes)):
            assert {k: p.shape for k, p in net.params.items()} == want
            flat = net.params[next(iter(want))].base
            assert all(p.base is flat for p in net.params.values())
        raw, ema = result.denoiser.params, result.ema_denoiser.params
        for key in shapes:
            assert not np.shares_memory(raw[key], ema[key])
            before = ema[key].copy()
            raw[key][...] = 7.0
            assert np.array_equal(ema[key], before)
            ema[key][...] = -7.0
            assert np.all(raw[key] == 7.0)

    def test_loss_decreases(self):
        """Short-run progress on the restoration task: the trailing loss
        window falls below half the leading one within 2000 steps."""
        from rgflow import make_scurve_dataset

        ds = make_scurve_dataset(2000, jitter=0.05, strength=1.0, noise=0.25, seed=1)
        result = train(ds, TrainConfig(n_steps=2000, seed=0))
        head = result.loss_trace[:100].mean()
        tail = result.loss_trace[1900:].mean()
        assert tail < 0.5 * head

    def test_adaptive_weight_prefers_low_noise_times(self):
        """After training, the learned weight is larger where the task is
        easier (low g) than where the state is nearly pure noise."""
        ds = make_gaussian_pairs(0.5, 500, seed=3, dim=1)
        cfg = TrainConfig(
            n_steps=4000, seed=1, hidden=32, emb_dim=8,
            time_sampler=UniformSampler(),
        )
        result = train(ds, cfg)
        net = result.weight_net
        w_easy, w_hard = net.forward(net.features([0.0, 0.0], [0.05, 1.5]))[0]
        assert w_easy > w_hard

    def test_trained_net_approaches_posterior_mean(self):
        """On Gaussian pairs the training target's minimizer is the analytic
        posterior mean; a trained net gets close to it on held-out states."""
        rho = 0.5
        ds = make_gaussian_pairs(rho, 2000, seed=4, dim=1)
        # Faster schedule than the reference recipe: matching the closed-form
        # oracle needs a converged net, not the long-horizon EMA settings.
        cfg = TrainConfig(
            n_steps=8000, seed=2, hidden=64, emb_dim=16,
            learning_rate=1e-3, ema_decay=0.999,
        )
        result = train(ds, cfg)
        net = result.ema_denoiser
        oracle = GaussianOracle(rho=rho)
        sched = GvpSchedule(rho, 1.0)
        rng = np.random.default_rng(5)
        hold = make_gaussian_pairs(rho, 2000, seed=55, dim=1)
        x0 = hold.x0
        x1 = hold.x1
        gaps = []
        for r_f, g in ((-0.4, 0.3), (0.0, 0.8), (0.4, 1.2)):
            r = r_f * sched.phi
            c = sched.coeffs(r, g)
            z = rng.normal(size=x0.shape)
            x = c.lam * (c.alpha * x0 + c.beta * x1) + c.gamma * z
            pred = net.predict(x, x1, r, g)
            best = oracle.predict(x, x1, r, g)
            gaps.append(float(((pred - best) ** 2).mean()))
        assert max(gaps) < 0.05

    def test_regression_specialist_fails_off_axis(self):
        """A model trained only on g = 0 collapses when sampled along a noisy
        path, by at least 2x the error of the matched specialist."""
        rho = 0.5
        ds = make_gaussian_pairs(rho, 2000, seed=6, dim=1)
        hold = make_gaussian_pairs(rho, 1000, seed=66, dim=1)
        sched = GvpSchedule(rho, 1.0)
        results = {}
        for name, sampler in (
            ("regression", RegressionSpecialist()),
            ("elliptical", EllipticalSpecialist()),
        ):
            cfg = TrainConfig(
                n_steps=4000, seed=3, hidden=64, emb_dim=16,
                learning_rate=1e-3, ema_decay=0.999, time_sampler=sampler,
            )
            net = train(ds, cfg).ema_denoiser
            sample_cfg = SamplerConfig(
                trajectory=Elliptical(phi=sched.phi, delta=math.pi / 8.0),
                n_steps=15, eta=0.0, seed=7,
            )
            out = restore_batch(sched, net, hold.x1, sample_cfg)
            results[name] = mse(out, hold.x0)
        assert results["regression"] >= 2.0 * results["elliptical"]

    def test_nonfinite_loss_diagnostics(self):
        ds = make_gaussian_pairs(0.5, 100, seed=0, dim=1)
        cfg = TrainConfig(n_steps=20, learning_rate=1e18, seed=0, hidden=8, emb_dim=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NonFiniteLoss, match="step"):
                train(ds, cfg)

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_overflowing_last_update_raises(self, adaptive):
        """A run whose last update overflows the weights raises, rather than
        returning weights whose loss is not finite."""
        ds = make_gaussian_pairs(0.5, 20, seed=0, dim=2)
        cfg = TrainConfig(n_steps=1, learning_rate=1e308, hidden=4, emb_dim=2,
                          adaptive_weighting=adaptive)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss, match="after step 0"):
                train(ds, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(ema_decay=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        for seed in (-1, 0.5, True):
            with pytest.raises(ConfigError, match="seed"):
                TrainConfig(seed=seed)


class TestChunkedInputs:
    """`train` builds the inputs of _CHUNK_ROWS // batch_size steps at once;
    its outputs must not show where the chunks end."""

    CHUNK = training._CHUNK_ROWS // 16

    @staticmethod
    def run(n_steps, rng=None, **kw):
        ds = make_gaussian_pairs(0.5, 300, seed=1, dim=2)
        cfg = TrainConfig(n_steps=n_steps, seed=9, hidden=16, emb_dim=8, **kw)
        return train(ds, cfg, rng=rng)

    def test_trace_is_a_prefix_of_a_longer_run(self):
        """The loss trace of an n-step run is bitwise the first n entries of
        a 300-step run with the same seed, on either side of a chunk's end."""
        full = self.run(300).loss_trace
        for n in (1, 50, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1):
            assert self.run(n).loss_trace.tobytes() == full[:n].tobytes(), n

    @pytest.mark.parametrize("sampler", [EllipticalSpecialist(), LogitNormalSampler()])
    @pytest.mark.parametrize("n_steps", [1, CHUNK + 1, 2 * CHUNK])
    def test_generator_left_as_by_per_step_draws(self, sampler, n_steps):
        """A completed run leaves the caller's generator in the state of one
        that drew the initial weights, then each step's pair indices, times
        and noise, in that order."""
        rng = np.random.default_rng(3)
        self.run(n_steps, rng=rng, time_sampler=sampler)
        ref = np.random.default_rng(3)
        MlpDenoiser(dim=2, hidden=16, emb_dim=8, params={}).reinit(ref)
        AdaptiveWeight(rng=ref)
        phi = GvpSchedule(0.5, 1.0).phi
        for _ in range(n_steps):
            ref.integers(0, 300, size=16)
            sampler.sample_batch(phi, ref, 16)
            ref.normal(0.0, 1.0, size=(16, 2))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_backward_into_buffers_equals_new_dicts(self):
        """The backward passes give the same gradient bits whether they
        return new arrays or write into the caller's (as `train` has them
        write into views of one flat buffer), and return `out` itself."""
        rng = np.random.default_rng(4)
        net = MlpDenoiser(dim=2, hidden=8, emb_dim=4, params={})
        net.reinit(rng)
        w_net = AdaptiveWeight(emb_dim=4, hidden=8, rng=rng)
        w_net.params["V2"] = rng.normal(size=w_net.params["V2"].shape)
        r, g = rng.uniform(0.0, 1.0, size=(2, 5))
        _, cache = net.forward_batch(net.features(rng.normal(size=(5, 2)),
                                                  rng.normal(size=(5, 2)), r, g))
        _, w_cache = w_net.forward(w_net.features(r, g))
        d_core, d_w = rng.normal(size=(5, 2)), rng.normal(size=5)
        for fresh, fill in ((net.backward_batch(cache, d_core),
                             lambda out: net.backward_batch(cache, d_core, out=out)),
                            (w_net.backward(w_cache, d_w),
                             lambda out: w_net.backward(w_cache, d_w, out=out))):
            out = {k: np.full_like(v, np.nan) for k, v in fresh.items()}
            assert fill(out) is out
            for key, value in fresh.items():
                assert out[key].tobytes() == value.tobytes(), key
