"""Matrix-aware optimizer toolkit.

Spectral-norm decomposition diagnostics, the row-magnitude/direction
reparameterized optimizer family with its Muon/AdamW/Signum baselines,
convergence-bound checkers, gradient-noise estimators, and a deterministic
experiment harness, all over dense float64 numpy arrays.
"""

from .diagnostics import (
    DecompReport,
    NoiseReport,
    dual_norm,
    effective_rank,
    noise_coefficients,
    spectral_decomposition,
    zeta_constants,
)
from .errors import (
    ConfigError,
    NonFiniteError,
    StepAllError,
    ZeroRowError,
)
from .linalg import (
    nuclear_norm,
    row_norms,
    svd,
    vec_l1,
)
from .optimizers import (
    HyperParams,
    Layer,
    adamw_step,
    init_layers,
    muon_step,
    muown_fixed_step,
    muown_signum_step,
    muown_step,
    signum_step,
    step_all,
)
from .orthogonalize import (
    AGGRESSIVE_COEFFS,
    CLASSIC_COEFFS,
    NSConfig,
    newton_schulz,
    polar_exact,
)
from .reparam import ReparamView, grad_R, grad_g, init_view, recompose
from .shardsim import ShardPlan, make_plan, run_sharded

__version__ = "0.1.0"
