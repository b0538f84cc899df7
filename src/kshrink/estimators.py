"""The shrinkage estimators.

Every estimator maps the canonical model to a set of mean estimates. The
pooled-mean family (PT, PT*, EB, EB*, HB1, HB2) shrinks each observation
toward the generalized least squares pooled mean, and optionally shrinks
the pooled mean itself toward zero; the James-Stein pair shrinks each group
toward zero on its own. All shrink terms act through the direction matrices
v[i] @ w[i] (= inv(q[i]) inv(v[i])), which reduce to the identity under
inverse-scale loss.

Each estimator is written once, as a batch kernel (BATCH_ESTIMATORS) that
maps an EstimatorSetting and a PooledBatch of R replicates to (R, k, p)
estimates. The single-shot estimate_* functions run it with R = 1; the
Monte Carlo harness runs it on blocks of replicates.

Estimators raise PreconditionError when the model falls outside their
domain (dimension too small for the shrink constants to be positive, or a
loss that the preliminary test cannot calibrate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .model import (
    CanonicalModel,
    Hyperparameters,
    LossSpec,
    PooledBatch,
    PooledConstants,
    PooledSummary,
    pooled_summary,
)
from .numerics import (
    HbExponents,
    ReplicateError,
    f_quantile,
    hb1_shrink_ratio,
    hb2_shrink_ratios,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "PreconditionError",
    "ReplicateError",
    "EstimateSet",
    "ShrinkageFunctions",
    "ESTIMATORS",
    "ESTIMATOR_ORDER",
    "EstimatorSetting",
    "BATCH_ESTIMATORS",
    "batch_general",
    "floored_statistics",
    "resolve_estimator",
    "estimate_unshrunk",
    "estimate_js1",
    "estimate_js2",
    "estimate_pt",
    "estimate_pt_star",
    "estimate_eb1",
    "estimate_eb2",
    "estimate_hb1",
    "estimate_hb2",
    "estimate_general",
]


class PreconditionError(ValueError):
    """The estimator's domain requirements are not met by this model/loss."""


@dataclass(frozen=True)
class EstimateSet:
    """Estimates plus the diagnostics that explain them.

    mu_hat: (k, p) array of estimated means.
    diagnostics: flat scalar diagnostics (statistics, shrink factors,
        threshold decisions), keyed by name.
    """

    mu_hat: np.ndarray
    diagnostics: dict[str, float | bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.array(self.mu_hat, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "mu_hat", arr)


@dataclass(frozen=True)
class ShrinkageFunctions:
    """A member of the general double-shrinkage class.

    phi and psi take (residual_stat, pooled_norm_stat, scale_sum) and return
    the two shrink factors. The partial derivatives (same signature) feed
    the unbiased risk estimator: estimating needs only phi and psi, but
    montecarlo.validate_uer rejects a member that lacks any of the six, and
    there is no finite-difference fallback. All callables must accept
    ndarray inputs elementwise.
    """

    phi: Callable
    psi: Callable
    phi_f: Callable | None = None
    phi_g: Callable | None = None
    phi_s: Callable | None = None
    psi_f: Callable | None = None
    psi_g: Callable | None = None
    psi_s: Callable | None = None

    # The six partial derivatives, in the order UerInputs takes them.
    PARTIALS: ClassVar[tuple[str, ...]] = ("phi_f", "phi_g", "phi_s", "psi_f", "psi_g", "psi_s")

    def missing_partials(self) -> tuple[str, ...]:
        return tuple(name for name in self.PARTIALS if getattr(self, name) is None)

    def has_derivatives(self) -> bool:
        return not self.missing_partials()


@dataclass(frozen=True)
class EstimatorSetting:
    """What the estimators need besides x and s, fixed per configuration.

    pooled: constants of the pooled statistics.
    hyper: tuning constants of the Bayes-motivated estimators.
    tol: degenerate-statistic switch and quadrature controls.
    positive_part: clip the James-Stein retained fractions at zero.
    """

    pooled: PooledConstants
    hyper: Hyperparameters
    tol: Tolerances
    positive_part: bool

    @cached_property
    def pt_threshold(self) -> float:
        """p(k-1)/n times the upper-alpha F(p(k-1), n) quantile, derived once."""
        c = self.pooled
        d1 = c.p * (c.k - 1)
        return d1 / c.n * f_quantile(d1, c.n, self.hyper.alpha)

    @cached_property
    def hb_exponents(self) -> HbExponents:
        c, h = self.pooled, self.hyper
        return HbExponents.from_model(c.p, c.k, c.n, h.a, h.b, h.c)


# A batch kernel maps (setting, batch) to (R, k, p) estimates and a dict of
# diagnostics, each an (R,) array or one value shared by every replicate.
BatchResult = tuple[np.ndarray, dict]


def _capped(t: float, stat: np.ndarray, tol: Tolerances) -> np.ndarray:
    """min(t / stat, 1), at its limit 1 for degenerate statistics."""
    safe = np.maximum(stat, tol.degenerate_stat)
    return np.where(stat > tol.degenerate_stat, np.minimum(t / safe, 1.0), 1.0)


def _toward_pooled(b: PooledBatch) -> np.ndarray:
    """Direction maps applied to each group's deviation from the pooled mean."""
    centered = b.x - b.pooled_mean[:, None, :]
    return np.einsum("kab,rkb->rka", b.constants.directions, centered)


def _toward_zero(b: PooledBatch) -> np.ndarray:
    """Direction maps applied to the pooled mean."""
    return np.einsum("kab,rb->rka", b.constants.directions, b.pooled_mean)


def batch_unshrunk(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    """The observations themselves; the baseline everything is measured against."""
    return b.x, {}


def batch_js1(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    c = st.pooled
    if c.p < 3:
        raise PreconditionError(f"groupwise zero-shrink needs p >= 3, got p={c.p}")
    norms2 = np.einsum("rka,kab,rkb->rk", b.x, c.v_inv, b.x)
    scale = (c.p - 2.0) / (c.n + 2.0)
    retained = 1.0 - np.where(
        norms2 > 0.0, scale * b.s[:, None] / np.where(norms2 > 0.0, norms2, 1.0), 0.0
    )
    if st.positive_part:
        retained = np.maximum(retained, 0.0)
    diags = {f"retained_{i}": retained[:, i] for i in range(c.k)}
    return retained[:, :, None] * b.x, {**diags, "positive_part": st.positive_part}


def batch_js2(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    c = st.pooled
    if c.p * c.k < 3:
        raise PreconditionError(f"pooled zero-shrink needs p*k >= 3, got {c.p * c.k}")
    norms2 = np.einsum("rka,kab,rkb->r", b.x, c.v_inv, b.x)
    scale = (c.p * c.k - 2.0) / (c.n + 2.0)
    retained = np.where(
        norms2 > 0.0, 1.0 - scale * b.s / np.where(norms2 > 0.0, norms2, 1.0), 1.0
    )
    if st.positive_part:
        retained = np.maximum(retained, 0.0)
    return retained[:, None, None] * b.x, {"retained": retained, "positive_part": st.positive_part}


def batch_pt(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    """Preliminary test: pool everything unless the equal-means test rejects.

    The residual statistic is compared with p(k-1)/n times the upper-alpha
    F quantile; above the threshold the observations are kept, at or below
    it every group is replaced by the pooled mean. Requires inverse-scale
    loss so the statistic really is the equal-means F test.
    """
    if not st.pooled.inverse_loss:
        raise PreconditionError(
            "the preliminary-test estimator requires the loss weights to be the "
            "inverses of the scale matrices"
        )
    keep = b.residual_stat > st.pt_threshold
    mu_hat = np.where(keep[:, None, None], b.x, b.pooled_mean[:, None, :])
    return mu_hat, {
        "residual_stat": b.residual_stat,
        "threshold": st.pt_threshold,
        "kept_separate": keep,
    }


def batch_pt_star(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    """Preliminary test with the pooled mean itself shrunk toward zero.

    Whatever the test decides, the capped factor
    min((p-2) / ((n+2) pooled_norm_stat), 1) of the pooled mean is removed
    from every group; a vanishing pooled norm means a vanishing pooled
    mean, so the cap branch subtracts zero.
    """
    c = st.pooled
    if c.p < 3:
        raise PreconditionError(f"pooled-mean zero-shrink needs p >= 3, got p={c.p}")
    mu_hat, diags = batch_pt(st, b)
    factor = _capped((c.p - 2.0) / (c.n + 2.0), b.pooled_norm_stat, st.tol)
    mu_hat = mu_hat - factor[:, None, None] * b.pooled_mean[:, None, :]
    return mu_hat, {**diags, "pooled_norm_stat": b.pooled_norm_stat, "zero_shrink": factor}


def batch_eb1(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    """Empirical shrink toward the pooled mean with a capped factor.

    Removes min((p(k-1)-2) / ((n+2) residual_stat), 1) of each group's
    deviation from the pooled mean, mapped through the direction matrices.
    """
    c = st.pooled
    d1 = c.p * (c.k - 1)
    if d1 < 3:
        raise PreconditionError(f"pooled-mean shrink needs p(k-1) >= 3, got {d1}")
    factor = _capped((d1 - 2.0) / (c.n + 2.0), b.residual_stat, st.tol)
    mu_hat = b.x - factor[:, None, None] * _toward_pooled(b)
    return mu_hat, {"residual_stat": b.residual_stat, "mean_shrink": factor}


def batch_eb2(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    """The capped empirical shrink plus a capped zero-shrink of the pooled mean."""
    c = st.pooled
    if c.p < 3:
        raise PreconditionError(f"pooled-mean zero-shrink needs p >= 3, got p={c.p}")
    mu_hat, diags = batch_eb1(st, b)
    factor = _capped((c.p - 2.0) / (c.n + 2.0), b.pooled_norm_stat, st.tol)
    mu_hat = mu_hat - factor[:, None, None] * _toward_zero(b)
    return mu_hat, {**diags, "pooled_norm_stat": b.pooled_norm_stat, "zero_shrink": factor}


def batch_hb1(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    """Hierarchical shrink toward the pooled mean with a smooth factor.

    The shrink fraction is the incomplete-beta ratio of hb1_phi divided by
    the residual statistic; it interpolates smoothly between full pooling
    at small residual and the capped empirical behavior at large residual.
    """
    c, h = st.pooled, st.hyper
    try:
        ratio = hb1_shrink_ratio(
            b.residual_stat, c.p, c.k, c.n, h.a, h.c, c.loss.eig_floor, st.tol
        )
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    mu_hat = b.x - ratio[:, None, None] * _toward_pooled(b)
    return mu_hat, {"residual_stat": b.residual_stat, "mean_shrink": ratio}


def batch_hb2(st: EstimatorSetting, b: PooledBatch) -> BatchResult:
    """Hierarchical shrink toward the pooled mean and of the pooled mean.

    Both shrink fractions come from ratios of the joint truncated
    integrals (hb2_factors); they play the roles of the two capped factors
    of the empirical pair but vary smoothly with both statistics.
    """
    tol = st.tol
    try:
        phi, psi = hb2_shrink_ratios(
            b.residual_stat, b.pooled_norm_stat, b.s, st.hb_exponents, st.hyper.big_l,
            rel_tol=tol.quad_rel, tol=tol,
        )
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    mu_hat = (
        b.x
        - phi[:, None, None] * _toward_pooled(b)
        - psi[:, None, None] * _toward_zero(b)
    )
    return mu_hat, {
        "residual_stat": b.residual_stat,
        "pooled_norm_stat": b.pooled_norm_stat,
        "mean_shrink": phi,
        "zero_shrink": psi,
    }


def floored_statistics(b: PooledBatch, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) floored at tol.degenerate_stat: where class members are evaluated."""
    return (
        np.maximum(b.residual_stat, tol.degenerate_stat),
        np.maximum(b.pooled_norm_stat, tol.degenerate_stat),
    )


def batch_general(st: EstimatorSetting, b: PooledBatch, sf: ShrinkageFunctions) -> BatchResult:
    f, g = floored_statistics(b, st.tol)
    phi = np.asarray(sf.phi(f, g, b.s), dtype=float)
    psi = np.asarray(sf.psi(f, g, b.s), dtype=float)
    mu_hat = (
        b.x
        - (phi / f)[:, None, None] * _toward_pooled(b)
        - (psi / g)[:, None, None] * _toward_zero(b)
    )
    return mu_hat, {
        "residual_stat": b.residual_stat,
        "pooled_norm_stat": b.pooled_norm_stat,
        "phi": phi,
        "psi": psi,
    }


def _first(value) -> float | bool:
    """A diagnostic's value for the first replicate, as a Python scalar."""
    item = np.ravel(value)[0]
    return bool(item) if item.dtype == bool else float(item)


def _single(
    kernel: Callable,
    model: CanonicalModel,
    ls: LossSpec,
    summary: PooledSummary | None,
    hyper: Hyperparameters | None,
    tol: Tolerances,
    positive_part: bool = False,
) -> EstimateSet:
    """Run a batch kernel on one model, the R = 1 case."""
    ps = summary if summary is not None else pooled_summary(model, ls, tol)
    setting = EstimatorSetting(ps.constants, hyper or Hyperparameters(), tol, positive_part)
    batch = PooledBatch(ps.constants, model.x[None], np.array([model.s]), ps.pooled_mean[None],
                        np.array([ps.residual_stat]), np.array([ps.pooled_norm_stat]))
    mu_hat, diags = kernel(setting, batch)
    return EstimateSet(mu_hat[0], {key: _first(value) for key, value in diags.items()})


def _single_shot(kernel: Callable) -> Callable:
    """The one-model estimator estimate_<name> for kernel batch_<name>: R = 1."""

    def estimate(
        model: CanonicalModel,
        ls: LossSpec,
        summary: PooledSummary | None = None,
        hyper: Hyperparameters | None = None,
        tol: Tolerances = DEFAULT,
    ) -> EstimateSet:
        return _single(kernel, model, ls, summary, hyper, tol)

    estimate.__name__ = estimate.__qualname__ = kernel.__name__.replace("batch_", "estimate_")
    estimate.__doc__ = kernel.__doc__
    return estimate


def estimate_js1(
    model: CanonicalModel,
    ls: LossSpec,
    summary: PooledSummary | None = None,
    hyper: Hyperparameters | None = None,
    positive_part: bool = False,
    tol: Tolerances = DEFAULT,
) -> EstimateSet:
    """Groupwise shrink toward zero, each group scaled by its own norm.

    Group i keeps the fraction 1 - (p-2) s / ((n+2) |x_i|^2) of its
    observation, the squared norm taken in the inv(v[i]) metric. A group at
    exactly zero is left alone. ``positive_part`` clips negative retained
    fractions to zero (exploratory variant, off by default).
    """
    return _single(batch_js1, model, ls, summary, hyper, tol, positive_part)


def estimate_js2(
    model: CanonicalModel,
    ls: LossSpec,
    summary: PooledSummary | None = None,
    hyper: Hyperparameters | None = None,
    positive_part: bool = False,
    tol: Tolerances = DEFAULT,
) -> EstimateSet:
    """Shrink all groups toward zero by one factor pooled over groups."""
    return _single(batch_js2, model, ls, summary, hyper, tol, positive_part)


estimate_unshrunk = _single_shot(batch_unshrunk)
estimate_pt = _single_shot(batch_pt)
estimate_pt_star = _single_shot(batch_pt_star)
estimate_eb1 = _single_shot(batch_eb1)
estimate_eb2 = _single_shot(batch_eb2)
estimate_hb1 = _single_shot(batch_hb1)
estimate_hb2 = _single_shot(batch_hb2)


def estimate_general(
    model: CanonicalModel,
    ls: LossSpec,
    sf: ShrinkageFunctions,
    summary: PooledSummary | None = None,
    tol: Tolerances = DEFAULT,
) -> EstimateSet:
    """Any member of the double-shrinkage class.

    Applies x_i - (phi/f) d_i (x_i - pooled) - (psi/g) d_i pooled with the
    direction maps d_i. Statistics below the degenerate threshold are
    floored before dividing, so members whose factors vanish there (all the
    built-ins) stay well-defined.
    """
    return _single(lambda st, b: batch_general(st, b, sf), model, ls, summary, None, tol)


ESTIMATORS: dict[str, Callable] = {
    "X": estimate_unshrunk,
    "JS1": estimate_js1,
    "JS2": estimate_js2,
    "PT": estimate_pt,
    "PT*": estimate_pt_star,
    "EB": estimate_eb1,
    "EB*": estimate_eb2,
    "HB1": estimate_hb1,
    "HB2": estimate_hb2,
}

_ALIASES = {"EB1": "EB", "EB2": "EB*"}

BATCH_ESTIMATORS: dict[str, Callable] = {
    "X": batch_unshrunk,
    "JS1": batch_js1,
    "JS2": batch_js2,
    "PT": batch_pt,
    "PT*": batch_pt_star,
    "EB": batch_eb1,
    "EB*": batch_eb2,
    "HB1": batch_hb1,
    "HB2": batch_hb2,
}

ESTIMATOR_ORDER = ("JS1", "JS2", "PT", "PT*", "EB", "EB*", "HB1", "HB2")


def resolve_estimator(name: str) -> tuple[str, Callable]:
    """Map a user-supplied estimator name (or alias) to (canonical, callable)."""
    canon = _ALIASES.get(name, name)
    if canon not in ESTIMATORS:
        known = ", ".join(list(ESTIMATORS) + list(_ALIASES))
        raise KeyError(f"unknown estimator {name!r}; known: {known}")
    return canon, ESTIMATORS[canon]
