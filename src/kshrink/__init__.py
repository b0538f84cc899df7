"""Shrinkage estimation for several Gaussian mean vectors.

The package estimates k mean vectors from one observation vector per group
plus an independent chi-square scale statistic, under weighted quadratic
loss. It provides James-Stein type, preliminary-test, empirical Bayes and
hierarchical Bayes estimators, an unbiased estimator of the risk for the
general shrinkage class, minimaxity condition checkers, and a deterministic
Monte Carlo harness that tabulates relative risk improvements.
"""

from .model import (
    CanonicalModel,
    Hyperparameters,
    LossSpec,
    canonicalize_ksample,
    canonicalize_regression,
    pooled_summary,
)
from .numerics import (
    HbExponents,
    f_quantile,
    hb1_phi,
    hb2_factors,
)
from .estimators import (
    ESTIMATORS,
    EstimateSet,
    ShrinkageFunctions,
    estimate_eb1,
    estimate_eb2,
    estimate_general,
    estimate_hb1,
    estimate_hb2,
    estimate_js1,
    estimate_js2,
    estimate_pt,
    estimate_pt_star,
)
from .risk import (
    check_hb1_conditions,
    check_hb2_conditions,
    loss,
    prial,
    uer,
)
from .montecarlo import (
    ExperimentConfig,
    MeanConfig,
    RiskTable,
    run_experiment,
    sample_canonical,
    uer_members,
    validate_identities,
    validate_uer,
)
from .config import ConfigError, experiment_from_document, load_document
from .datasets import (
    ParseError,
    read_ksample_csv,
    read_regression_csv,
    write_ksample_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalModel",
    "LossSpec",
    "Hyperparameters",
    "canonicalize_ksample",
    "canonicalize_regression",
    "pooled_summary",
    "HbExponents",
    "f_quantile",
    "hb1_phi",
    "hb2_factors",
    "EstimateSet",
    "ShrinkageFunctions",
    "ESTIMATORS",
    "estimate_js1",
    "estimate_js2",
    "estimate_pt",
    "estimate_pt_star",
    "estimate_eb1",
    "estimate_eb2",
    "estimate_hb1",
    "estimate_hb2",
    "estimate_general",
    "loss",
    "uer",
    "check_hb1_conditions",
    "check_hb2_conditions",
    "prial",
    "ExperimentConfig",
    "MeanConfig",
    "RiskTable",
    "sample_canonical",
    "run_experiment",
    "uer_members",
    "validate_uer",
    "validate_identities",
    "ConfigError",
    "load_document",
    "experiment_from_document",
    "ParseError",
    "read_ksample_csv",
    "write_ksample_csv",
    "read_regression_csv",
]
