"""rgflow: restoration with a two-time (regression r, generation g) interpolant.

A variance-preserving coefficient schedule mixes a clean/degraded pair and
Gaussian noise under two independent time axes; trajectories through the
(r, g) rectangle trade regression fidelity against generative synthesis; an
analytic hybrid sampler integrates any such path in few steps.  A toy MLP
training pipeline and Gaussian closed-form oracles make the whole chain
verifiable end to end.
"""

from .denoiser import (
    CheatDenoiser,
    Checkpoint,
    GaussianOracle,
    MlpDenoiser,
    load_checkpoint,
    mlp_backward,
    save_checkpoint,
    time_embed,
)
from .dynamics import VelocityPair, euler_integrate, velocities, velocity_r
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    InsufficientData,
    NonFiniteLoss,
    NonFiniteOutput,
    RgflowError,
    SingularStart,
    SingularTime,
)
from .process import (
    empirical_variance,
    forward_state,
    interpolate,
    sample_noise,
)
from .sampler import (
    SamplerConfig,
    boot_step,
    hybrid_step,
    kappa,
    regression_step,
    restore,
    restore_batch,
)
from .schedule import (
    CoeffDerivs,
    CoeffSet,
    GvpSchedule,
)
from .sweep import run_sweep
from .toydata import (
    ToyDataset,
    degrade,
    energy_distance,
    estimate_rho,
    load_dataset,
    make_gaussian_pairs,
    make_scurve,
    make_scurve_dataset,
    mse,
    save_dataset,
    standardize,
)
from .training import (
    AdaptiveWeight,
    AdamW,
    EllipticalSpecialist,
    LinearSpecialist,
    LogitNormalSampler,
    RegressionSpecialist,
    TrainConfig,
    TrainResult,
    UniformSampler,
    make_time_sampler,
    train,
)
from .trajectory import (
    Elliptical,
    Linear,
    QuadBezier,
    Regression,
    TimeGrid,
    Trajectory,
    VPath,
    make_trajectory,
    path_continuity_order,
)

__version__ = "0.1.0"
