"""Gaussian belief propagation for distributed linear Gaussian models.

The package covers the full pipeline: model definition and validation,
factor graph construction, the message-passing engine itself, and the
convergence analysis toolkit (information-matrix fixed points with lower
and upper bounds, spectral test for the mean recursion, contraction-rate
estimation, and the walk-summability bridge from scalar Gaussian MRFs).
"""

from gabp.model import (
    VariableSpec,
    FactorSpec,
    LinearGaussianModel,
    validate_model,
    centralized_solve,
    random_model,
)
from gabp.graph import FactorGraph, build_factor_graph, classify_topology
from gabp.bp import BpOptions, run_bp, compute_beliefs, make_init
from gabp.analysis import (
    compute_bounds,
    information_fixed_point,
    assemble_q,
    two_phase_mean_recursion,
    decide_mean_convergence,
    fit_contraction_rate,
    certify,
)
from gabp.mrf import (
    normalize_mrf,
    check_walk_summability,
    factor_width_two,
    mrf_to_linear_gaussian,
)
from gabp.numerics import is_pd, is_psd, part_metric, spectral_radius

__version__ = "0.1.0"

__all__ = [
    "VariableSpec",
    "FactorSpec",
    "LinearGaussianModel",
    "validate_model",
    "centralized_solve",
    "random_model",
    "FactorGraph",
    "build_factor_graph",
    "classify_topology",
    "BpOptions",
    "run_bp",
    "compute_beliefs",
    "make_init",
    "compute_bounds",
    "information_fixed_point",
    "assemble_q",
    "two_phase_mean_recursion",
    "decide_mean_convergence",
    "fit_contraction_rate",
    "certify",
    "normalize_mrf",
    "check_walk_summability",
    "factor_width_two",
    "mrf_to_linear_gaussian",
    "is_pd",
    "is_psd",
    "part_metric",
    "spectral_radius",
    "__version__",
]
