"""rgflow: restoration with a two-time (regression r, generation g) interpolant.

A variance-preserving coefficient schedule mixes a clean/degraded pair and
Gaussian noise under two independent time axes; trajectories through the
(r, g) rectangle trade regression fidelity against generative synthesis; an
analytic hybrid sampler integrates any such path in few steps.  A toy MLP
training pipeline and Gaussian closed-form oracles make the whole chain
verifiable end to end.  `import rgflow` loads no submodule: each exported
name and each submodule is imported on first use (PEP 562).
"""

import importlib

_EXPORTS = {
    "denoiser": "CheatDenoiser Checkpoint GaussianOracle MlpDenoiser load_checkpoint "
                "save_checkpoint time_embed",
    "dynamics": "VelocityPair euler_integrate velocities velocity_r",
    "errors": "ConfigError DimensionMismatch DomainError EmptyDataset InsufficientData "
              "NonFiniteLoss NonFiniteOutput RgflowError SingularStart SingularTime",
    "process": "empirical_variance forward_state interpolate sample_noise",
    "sampler": "SamplerConfig boot_step hybrid_step kappa regression_step restore restore_batch",
    "schedule": "CoeffDerivs CoeffSet GvpSchedule",
    "sweep": "run_sweep",
    "toydata": "ToyDataset degrade energy_distance estimate_rho load_dataset make_gaussian_pairs "
               "make_scurve make_scurve_dataset mse save_dataset standardize",
    "training": "AdaptiveWeight AdamW EllipticalSpecialist LinearSpecialist LogitNormalSampler "
                "RegressionSpecialist TrainConfig TrainResult UniformSampler make_time_sampler train",
    "trajectory": "Elliptical Linear QuadBezier Regression TimeGrid Trajectory VPath "
                  "make_trajectory",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "verify"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
