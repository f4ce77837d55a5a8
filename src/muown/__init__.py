"""Matrix-aware optimizer toolkit.

Spectral-norm decomposition diagnostics, the row-magnitude/direction
reparameterized optimizer family with its Muon/AdamW/Signum baselines,
convergence-bound checkers, gradient-noise estimators, and a deterministic
experiment harness, all over dense float64 numpy arrays. The root exports the
README's library surface; every other name is imported from its module.
"""

from .diagnostics import effective_rank, spectral_decomposition
from .errors import StepAllError
from .optimizers import HyperParams, init_layers, step_all
from .reparam import ReparamView, grad_R, grad_g, init_view, recompose

__version__ = "0.1.0"
