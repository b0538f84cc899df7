"""Loss, unbiased risk estimation, and minimaxity condition checks.

The unbiased risk estimator covers the whole double-shrinkage class: given
the two shrink factors and their six partial derivatives at the observed
statistics, it returns a quantity whose expectation equals the risk. The
condition checkers encode the sufficient minimaxity inequalities for the
two hierarchical estimators under inverse-scale loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import EstimateSet
from .model import CanonicalModel, LossSpec, TrueParameters

__all__ = [
    "UerInputs",
    "ConditionReport",
    "loss",
    "uer",
    "check_hb1_conditions",
    "check_hb2_conditions",
    "prial",
]


def loss(
    estimate: EstimateSet | np.ndarray, truth: TrueParameters, ls: LossSpec
) -> float | np.ndarray:
    """Realized weighted quadratic loss of an estimate set.

    sum_i (mu_hat_i - mu_i)' q[i] (mu_hat_i - mu_i) / sigma2. An (R, k, p)
    array of estimates gives the (R,) array of their losses.
    """
    mu_hat = estimate.mu_hat if isinstance(estimate, EstimateSet) else np.asarray(estimate)
    if mu_hat.shape[-2:] != truth.mu.shape:
        raise ValueError(f"estimate shape {mu_hat.shape} does not match truth {truth.mu.shape}")
    diff = mu_hat - truth.mu
    out = np.einsum("...ka,kab,...kb->...", diff, ls.q, diff) / truth.sigma2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class UerInputs:
    """Everything the unbiased risk estimator reads.

    Statistics and factor values may be floats or equally-shaped ndarrays
    (the estimator is written with elementwise operations throughout).

    f_stat, g_stat: the two pooled statistics, strictly positive.
    scale_sum: the pooled scale statistic.
    p, k, n: model dimensions and scale degrees of freedom.
    trace_sum: sum_i tr(v[i] q[i]), the risk of the unshrunk estimator.
    phi, psi: shrink factors at (f_stat, g_stat, scale_sum).
    phi_f, phi_g, phi_s, psi_f, psi_g, psi_s: partial derivatives of the
        factors with respect to the three arguments, same point.
    """

    f_stat: float | np.ndarray
    g_stat: float | np.ndarray
    scale_sum: float | np.ndarray
    p: int
    k: int
    n: int
    trace_sum: float
    phi: float | np.ndarray
    psi: float | np.ndarray
    phi_f: float | np.ndarray
    phi_g: float | np.ndarray
    phi_s: float | np.ndarray
    psi_f: float | np.ndarray
    psi_g: float | np.ndarray
    psi_s: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("f_stat", "g_stat", "scale_sum"):
            if np.any(np.asarray(getattr(self, name)) <= 0.0):
                raise ValueError(f"{name} must be strictly positive")
        for name in ("phi", "psi", "phi_f", "phi_g", "phi_s", "psi_f", "psi_g", "psi_s"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name)))):
                raise ValueError(f"{name} must be finite")


def uer(u: UerInputs) -> float | np.ndarray:
    """Unbiased estimator of the risk of a double-shrinkage estimator.

    Expectation (over the model, at any truth) equals the risk of the
    class member whose factors and derivatives are supplied. Scalar in,
    scalar out; ndarray fields give one value per entry.
    """
    d1 = u.p * (u.k - 1)
    f, g, s = u.f_stat, u.g_stat, u.scale_sum
    phi, psi = u.phi, u.psi
    mean_block = (
        -(2.0 * (d1 - 2.0) - (u.n + 2.0) * phi) * phi / f
        - 4.0 * u.phi_f
        - 4.0 * phi * (f * u.phi_f + g * u.phi_g) / f
        + 4.0 * s * phi * u.phi_s / f
    )
    zero_block = (
        -(2.0 * (u.p - 2.0) - (u.n + 2.0) * psi) * psi / g
        - 4.0 * u.psi_g
        - 4.0 * psi * (f * u.psi_f + g * u.psi_g) / g
        + 4.0 * s * psi * u.psi_s / g
    )
    out = u.trace_sum + mean_block + zero_block
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a sufficient-condition check.

    minimax: all inequalities hold.
    proper_prior: the hyperparameters make the underlying prior proper
        (only meaningful for the joint checker; None otherwise).
    margins: named slack values, nonnegative exactly when the
        corresponding inequality holds.
    """

    minimax: bool
    margins: dict[str, float]
    proper_prior: bool | None = None


def check_hb1_conditions(
    a: float, c: float, p: int, k: int, n: int
) -> ConditionReport:
    """Sufficient conditions for the residual-shrink hierarchical estimator.

    Requires p(k-1) >= 3, a + c < n/2, and the linear constraint
    (2p(k-1) + n - 2) a + 2 (p(k-1) - 2) c <= (n-2) p(k-1)/2 - 2n.
    The stricter n/2 bound on a + c is the one enforced; the margin
    against (n+2)/2 is also reported for reference.
    """
    d1 = p * (k - 1)
    dim_margin = float(d1 - 3)
    ac_margin = 0.5 * n - (a + c)
    lhs = (2.0 * d1 + n - 2.0) * a + 2.0 * (d1 - 2.0) * c
    rhs = 0.5 * (n - 2.0) * d1 - 2.0 * n
    margins = {
        "dimension": dim_margin,
        "a_plus_c": ac_margin,
        "a_plus_c_stated": 0.5 * (n + 2.0) - (a + c),
        "linear": rhs - lhs,
        "linear_lhs": lhs,
        "linear_rhs": rhs,
    }
    ok = dim_margin >= 0.0 and ac_margin > 0.0 and lhs <= rhs
    return ConditionReport(minimax=bool(ok), margins=margins)


def check_hb2_conditions(
    a: float, b: float, c: float, p: int, k: int, n: int
) -> ConditionReport:
    """Sufficient conditions for the joint hierarchical estimator.

    Requires p(k-1) >= 3 and p >= 3, a + b + c < n/2, and two linear
    constraints: one bounding the shrink toward the pooled mean,
    (2p(k-1) + n - 2) a + 2 (p(k-1) - 2)(b + c) <= p(k-1)(n-2)/2 - 2n,
    and one bounding the zero-shrink of the pooled mean,
    (2p + n - 2) b + 2 (p - 2)(a + c) <= p(n-2)/2 - 2n.
    Also reports whether the hyperparameters give a proper prior
    (a > 0, b > 0, c > 1), which is informational, not part of minimax.
    """
    d1 = p * (k - 1)
    dim_margin = float(min(d1 - 3, p - 3))
    abc_margin = 0.5 * n - (a + b + c)
    lhs1 = (2.0 * d1 + n - 2.0) * a + 2.0 * (d1 - 2.0) * (b + c)
    rhs1 = 0.5 * d1 * (n - 2.0) - 2.0 * n
    lhs2 = (2.0 * p + n - 2.0) * b + 2.0 * (p - 2.0) * (a + c)
    rhs2 = 0.5 * p * (n - 2.0) - 2.0 * n
    margins = {
        "dimension": dim_margin,
        "a_plus_b_plus_c": abc_margin,
        "mean_shrink_linear": rhs1 - lhs1,
        "mean_shrink_lhs": lhs1,
        "mean_shrink_rhs": rhs1,
        "zero_shrink_linear": rhs2 - lhs2,
        "zero_shrink_lhs": lhs2,
        "zero_shrink_rhs": rhs2,
    }
    ok = dim_margin >= 0.0 and abc_margin > 0.0 and lhs1 <= rhs1 and lhs2 <= rhs2
    proper = a > 0.0 and b > 0.0 and c > 1.0
    return ConditionReport(minimax=bool(ok), margins=margins, proper_prior=proper)


def prial(risk_reference: float, risk_estimator) -> float | np.ndarray:
    """Percentage reduction in average loss relative to a reference risk."""
    if not risk_reference > 0.0:
        raise ValueError(f"reference risk must be positive, got {risk_reference}")
    out = 100.0 * (risk_reference - np.asarray(risk_estimator)) / risk_reference
    return float(out) if np.ndim(risk_estimator) == 0 else out
