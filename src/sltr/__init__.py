"""Sparse + low-rank tensor regression via parallel proximal splitting."""

from .data import Dataset
from .evaluation import (
    CvReport,
    auc,
    coefficient_error,
    default_grid,
    kfold_cv,
    mse,
    theorem_bound,
    three_mode_bound,
    unfolding_ranks,
)
from .exceptions import DivergenceError, FormatError, NumericalError, SltrError
from .linalg import Backbone, SvdFactors, backbone, spectral_norm, svd
from .prox import ConstraintCenter, project_linf_ball, project_spectral_ball, prox_l1, prox_nuclear
from .simulate import SimSpec, generate
from .solver import (
    Certificate,
    FitResult,
    ModeTrace,
    SolverConfig,
    fit,
    objective_and_gaps,
    predict,
    solve_subproblem,
)
from .tensor import Tensor, fold, inner, unfold

__version__ = "0.1.0"

__all__ = [
    "Backbone",
    "Certificate",
    "ConstraintCenter",
    "CvReport",
    "Dataset",
    "DivergenceError",
    "FitResult",
    "FormatError",
    "ModeTrace",
    "NumericalError",
    "SimSpec",
    "SltrError",
    "SolverConfig",
    "SvdFactors",
    "Tensor",
    "auc",
    "backbone",
    "coefficient_error",
    "default_grid",
    "fit",
    "fold",
    "generate",
    "inner",
    "kfold_cv",
    "mse",
    "objective_and_gaps",
    "predict",
    "project_linf_ball",
    "project_spectral_ball",
    "prox_l1",
    "prox_nuclear",
    "solve_subproblem",
    "spectral_norm",
    "svd",
    "theorem_bound",
    "three_mode_bound",
    "unfold",
    "unfolding_ranks",
]
