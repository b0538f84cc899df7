"""Loss, unbiased risk estimation, and minimaxity condition checks.

The unbiased risk estimator covers the whole double-shrinkage class: given
a class member (estimators.ShrinkageFunctions) and the observed statistics,
it evaluates the member's two shrink factors and their six partial
derivatives there, once, and returns a quantity whose expectation equals
the member's risk: one term per factor, evaluated one term at a time. No
other code evaluates the partials. The condition checkers encode the
sufficient minimaxity inequalities of the hierarchical estimators under
inverse-scale loss, one linear constraint per shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import EstimateSet, ShrinkageFunctions
from .model import CanonicalModel, LossSpec, TrueParameters, quad_forms

__all__ = [
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

    sum_i (mu_hat_i - mu_i)' q[i] (mu_hat_i - mu_i) / sigma2, formed from the
    errors scaled by sqrt(sigma2), so it overflows only when the loss
    does. An (R, k, p) array of estimates gives the (R,) array of their
    losses, against one (k, p) truth or an (R, k, p) truth per replicate.
    """
    mu_hat = estimate.mu_hat if isinstance(estimate, EstimateSet) else np.asarray(estimate)
    mu = truth.mu
    if mu_hat.shape[-2:] != mu.shape[-2:] or mu.shape[:-2] not in ((), mu_hat.shape[:-2]):
        raise ValueError(f"estimate shape {mu_hat.shape} does not match truth {mu.shape}")
    diff = mu_hat - mu
    diff /= math.sqrt(truth.sigma2)
    out = quad_forms(diff.reshape((-1,) + mu.shape[-2:]), ls.q)
    return float(out[0]) if diff.ndim == 2 else out.reshape(diff.shape[:-2])


def uer(
    sf: ShrinkageFunctions,
    f: float | np.ndarray,
    g: float | np.ndarray,
    s: float | np.ndarray,
    *,
    p: int,
    k: int,
    n: int,
    trace_sum: float,
) -> float | np.ndarray:
    """Unbiased estimator of the risk of the double-shrinkage class member sf.

    f, g, s: the residual, pooled-norm and scale statistics, floats or
        equally-shaped ndarrays, each finite and strictly positive.
    p, k, n: model dimensions and scale degrees of freedom.
    trace_sum: sum_i tr(v[i] q[i]), the risk of the unshrunk estimator.

    This is the one place that evaluates a member's factors phi, psi and
    their six partial derivatives for a risk estimate: each once, at
    (f, g, s), and each must be finite. A member that lacks a partial is
    rejected. It is trace_sum plus phi's, then psi's _uer_term (one factor's
    functions at a time), whose expectation at any truth is the member's
    risk. Scalar in, scalar out; ndarray statistics give one value each.
    """
    if missing := sf.missing_partials():
        raise ValueError(f"the member lacks the partial derivatives {', '.join(missing)}")
    for name, stat in (("f", f), ("g", g), ("s", s)):
        stat = np.asarray(stat)
        if not np.all((stat > 0.0) & (stat < np.inf)):
            raise ValueError(f"statistic {name} must be finite and strictly positive")
    out = trace_sum + _uer_term(sf, "phi", 0, p * (k - 1), n, f, g, s)
    out += _uer_term(sf, "psi", 1, p, n, f, g, s)
    return float(out) if np.ndim(out) == 0 else out


def _uer_term(sf: ShrinkageFunctions, factor: str, own: int, d: int, n: int, f, g, s):
    """The term of factor h (phi or psi), dimension d, own statistic u = (f, g, s)[own]:

    -(2(d-2) - (n+2) h) h/u - 4 h_u - 4 h (f h_f + g h_g)/u + 4 (s h_s) h/u.
    """
    names = (factor, f"{factor}_f", f"{factor}_g", f"{factor}_s")
    values = [getattr(sf, name)(f, g, s) for name in names]
    for name, value in zip(names, values):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    h, h_f, h_g, h_s = values
    u, h_u = (f, g, s)[own], values[1 + own]
    return (
        -(2.0 * (d - 2.0) - (n + 2.0) * h) * h / u
        - 4.0 * h_u
        - 4.0 * h * (f * h_f + g * h_g) / u
        + 4.0 * (s * h_s) * h / u
    )


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


def _minimax_constraint(d: int, own: float, rest: float, n: int) -> tuple[float, float]:
    """lhs, rhs of (2d + n - 2) own + 2 (d - 2) rest <= d (n - 2)/2 - 2n, one per shrink."""
    return (2.0 * d + n - 2.0) * own + 2.0 * (d - 2.0) * rest, 0.5 * d * (n - 2.0) - 2.0 * n


def check_hb1_conditions(a: float, c: float, p: int, k: int, n: int) -> ConditionReport:
    """Sufficient conditions for the residual-shrink hierarchical estimator.

    Requires p(k-1) >= 3, a + c < n/2, and the linear constraint
    (_minimax_constraint) at d = p(k-1), own = a, rest = c. The stricter
    n/2 bound on a + c is the one enforced; the margin against (n+2)/2 is
    also reported for reference.
    """
    d1 = p * (k - 1)
    dim_margin = float(d1 - 3)
    ac_margin = 0.5 * n - (a + c)
    lhs, rhs = _minimax_constraint(d1, a, c, n)
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


def check_hb2_conditions(a: float, b: float, c: float, p: int, k: int, n: int) -> ConditionReport:
    """Sufficient conditions for the joint hierarchical estimator.

    Requires p(k-1) >= 3 and p >= 3, a + b + c < n/2, and two linear
    constraints (_minimax_constraint): the shrink toward the pooled mean
    at (p(k-1), a, b + c) and the zero-shrink of the pooled mean at
    (p, b, a + c). Also reports whether the hyperparameters give a proper
    prior (a > 0, b > 0, c > 1), which is informational, not part of minimax.
    """
    d1 = p * (k - 1)
    dim_margin = float(min(d1 - 3, p - 3))
    abc_margin = 0.5 * n - (a + b + c)
    lhs1, rhs1 = _minimax_constraint(d1, a, b + c, n)
    lhs2, rhs2 = _minimax_constraint(p, b, a + c, n)
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
    if not 0.0 < risk_reference < math.inf:
        raise ValueError(f"reference risk must be positive and finite, got {risk_reference}")
    out = 100.0 * (risk_reference - np.asarray(risk_estimator)) / risk_reference
    return float(out) if np.ndim(risk_estimator) == 0 else out
