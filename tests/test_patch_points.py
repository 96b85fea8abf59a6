"""The names perfbench's tracer wraps must stay where it looks them up.

`perfbench/tracer.py` replaces each name through its owner's `__dict__`
(module attributes for functions, class attributes for methods, and
`rgflow.sampler.np` for the generators that `default_rng` builds), so a
rename or a move breaks the traced benchmark with a KeyError.  perfbench's
own tests are not collected with this suite, so this one pins the names here.
"""

import pytest

from rgflow import cli, denoiser, process, sampler, schedule, toydata, training, trajectory

PATCHED = [
    (sampler, name)
    for name in (
        "restore_batch", "restore", "hybrid_step", "boot_step", "regression_step", "kappa", "np",
    )
] + [
    (schedule.GvpSchedule, "coeffs"),
    (denoiser.MlpDenoiser, "predict"),
    (denoiser.MlpDenoiser, "features"),
    (denoiser.MlpDenoiser, "forward_batch"),
    (denoiser.MlpDenoiser, "backward_batch"),
    (denoiser, "load_checkpoint"),
    (denoiser, "save_checkpoint"),
    (training, "train"),
    (training.AdamW, "step"),
    (training.AdaptiveWeight, "forward"),
    (training.AdaptiveWeight, "backward"),
] + [
    (cls, "sample_batch")
    for cls in (*training.TIME_SAMPLERS.values(), training.LogitNormalSampler)
] + [
    (toydata, name) for name in ("make_scurve_dataset", "save_dataset", "load_dataset")
] + [
    (process, name) for name in ("interpolate", "sample_noise", "empirical_variance")
] + [
    (trajectory.Trajectory, "discretize"),
    (trajectory.Trajectory, "point"),
    (cli, "main"),
    (cli, "save_checkpoint"),
]


@pytest.mark.parametrize(
    "owner, name", PATCHED, ids=[f"{o.__name__}.{n}" for o, n in PATCHED]
)
def test_traced_name_defined_on_its_owner(owner, name):
    assert name in owner.__dict__
    assert callable(owner.__dict__[name]) or name == "np"


def test_item_noise_replaced_by_name_sees_each_drawing_run(monkeypatch):
    """restore_batch looks `sampler._item_noise` up at draw time, so a
    replacement set on the module (as a tracer would set it) sees each
    drawing run once, with the whole batch, on either side of the
    fast-seeding crossover; a run that draws nothing does not call it."""
    import numpy as np

    assert callable(sampler.__dict__["_item_noise"])
    calls = []
    real = sampler._item_noise

    def wrapped(seed, first, n_draws, shape, sigma_d):
        calls.append((seed, first, n_draws, shape))
        return real(seed, first, n_draws, shape, sigma_d)

    monkeypatch.setattr(sampler, "_item_noise", wrapped)
    sched = schedule.GvpSchedule(0.5, 1.0)
    traj = trajectory.Elliptical(phi=sched.phi, delta=0.5)
    den = denoiser.GaussianOracle(rho=0.5)
    boot_only = sampler.SamplerConfig(trajectory=traj, n_steps=1, eta=1.0)
    cfg = sampler.SamplerConfig(trajectory=traj, n_steps=4, eta=0.5, seed=7)
    for rows in (3, 40):
        calls.clear()
        x1 = np.ones((rows, 2))
        sampler.restore_batch(sched, den, x1, boot_only)
        assert calls == []
        sampler.restore_batch(sched, den, x1, cfg, item_offset=2)
        assert calls == [(7, 2, sampler.plan(sched, cfg).n_draws, (rows, 2))]


def test_replaced_predict_sees_every_blocked_step(monkeypatch):
    """`MlpDenoiser.bind` is defined on the class, and a `predict` replaced
    on the class (as the tracer replaces it) still sees every step of a
    restore_batch whose batch spans several blocks, each call with the whole
    batch."""
    import numpy as np

    assert callable(denoiser.MlpDenoiser.__dict__["bind"])
    net = denoiser.MlpDenoiser(dim=2, hidden=8, emb_dim=4, params={})
    net.reinit(np.random.default_rng(0))
    sched = schedule.GvpSchedule(0.5, 1.0)
    cfg = sampler.SamplerConfig(
        trajectory=trajectory.Elliptical(phi=sched.phi, delta=0.5), n_steps=6, eta=0.5
    )
    x1 = np.random.default_rng(1).normal(size=(600, 2))
    plain = sampler.restore_batch(sched, net, x1, cfg)
    rows = []
    own = denoiser.MlpDenoiser.predict

    def wrapped(self, x, x1, r, g):
        rows.append(len(x))
        return own(self, x, x1, r, g)

    monkeypatch.setattr(denoiser.MlpDenoiser, "predict", wrapped)
    assert sampler.restore_batch(sched, net, x1, cfg).tobytes() == plain.tobytes()
    assert rows == [600] * 6
