"""LATE estimation with a misclassified binary treatment.

Closed-form identification via an exogenous variable, GMM inference with
sandwich covariance, naive IV/OLS baselines, and a Monte Carlo harness.
"""
from .data import CellStats, Dataset, Mode, ParamVector, cell_stats, validate
from .gmm import Estimate, GmmConfig, confidence_intervals, estimate, sandwich_cov
from .identification import IdentifyResult, forward_cell_stats, identify
from .simulation import DesignSpec, McSummary, generate, run_study, true_params

__all__ = [
    "CellStats",
    "Dataset",
    "DesignSpec",
    "Estimate",
    "GmmConfig",
    "IdentifyResult",
    "McSummary",
    "Mode",
    "ParamVector",
    "cell_stats",
    "confidence_intervals",
    "estimate",
    "forward_cell_stats",
    "generate",
    "identify",
    "run_study",
    "sandwich_cov",
    "true_params",
    "validate",
]
