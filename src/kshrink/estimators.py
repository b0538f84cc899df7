"""The shrinkage estimators.

Every estimator maps the canonical model to a set of mean estimates. The
pooled-mean family (PT, PT*, EB, EB*, HB1, HB2) shrinks each observation
toward the generalized least squares pooled mean, and optionally shrinks
the pooled mean itself toward zero; the James-Stein pair shrinks each group
toward zero on its own. All shrink terms act through the direction matrices
v[i] @ w[i] (= inv(q[i]) inv(v[i])), which reduce to the identity under
inverse-scale loss.

Each estimator is written once, as a batch kernel (BATCH_ESTIMATORS) that
maps the Hyperparameters and a PooledBatch of R replicates to (R, k, p)
estimates; the batch carries the per-model constants (its PooledConstants,
and through them the LossSpec). The single-shot estimate_* functions run
it on the one-row batch of pooled_summary, which a caller may pass in so
that several estimators share it; the Monte Carlo harness runs it on
blocks of replicates. EB and EB* are class members (ShrinkageFunctions)
built by eb_members, which their kernels, PT*'s zero-shrink and
validate_uer share; they, HB1, HB2 and estimate_general return through one
shrink step, _shrink.

Estimators raise PreconditionError when the model falls outside their
domain (dimension too small for the shrink constants to be positive, or a
loss that the preliminary test cannot calibrate: one not built as
inverse-scale, LossSpec.inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, ClassVar, Iterable

import numpy as np

from .model import (
    CanonicalModel,
    Hyperparameters,
    LossSpec,
    PooledBatch,
    PooledConstants,
    _freeze,
    pooled_summary,
    quad_forms,
)
from .numerics import (
    HbExponents,
    ReplicateError,
    f_quantile,
    hb1_shrink_ratio,
    hb2_shrink_ratios,
)
from .tolerances import DEGENERATE_STAT

__all__ = [
    "PreconditionError",
    "ReplicateError",
    "EstimateSet",
    "ShrinkageFunctions",
    "ESTIMATORS",
    "ESTIMATOR_ORDER",
    "BATCH_ESTIMATORS",
    "batch_general",
    "eb_members",
    "floored_statistics",
    "resolve_estimator",
    "canonical_estimators",
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
        object.__setattr__(self, "mu_hat", _freeze(self.mu_hat))


@dataclass(frozen=True)
class ShrinkageFunctions:
    """A member of the general double-shrinkage class.

    phi and psi take (residual_stat, pooled_norm_stat, scale_sum) and return
    the two shrink factors. The partial derivatives (same signature) are
    read only by risk.uer, which takes the member itself and evaluates all
    eight functions once per risk estimate: estimating needs only phi and
    psi, but risk.uer and montecarlo.validate_uer reject a member that
    lacks any of the six, and there is no finite-difference fallback. All
    callables must accept ndarray inputs elementwise. EB and EB* are
    members (eb_members).
    """

    phi: Callable
    psi: Callable
    phi_f: Callable | None = None
    phi_g: Callable | None = None
    phi_s: Callable | None = None
    psi_f: Callable | None = None
    psi_g: Callable | None = None
    psi_s: Callable | None = None

    # The six partial derivatives: of phi, then of psi, each by f, g and s.
    PARTIALS: ClassVar[tuple[str, ...]] = ("phi_f", "phi_g", "phi_s", "psi_f", "psi_g", "psi_s")

    def missing_partials(self) -> tuple[str, ...]:
        return tuple(name for name in self.PARTIALS if getattr(self, name) is None)


# A batch kernel maps (hyper, batch) to (R, k, p) estimates and a dict of
# diagnostics, each an (R,) array or one value shared by every replicate.
BatchResult = tuple[np.ndarray, dict]


def batch_unshrunk(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """The observations themselves; the baseline everything is measured against."""
    return b.x, {}


def batch_js1(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """Groupwise shrink toward zero, each group scaled by its own norm.

    Group i keeps the fraction 1 - (p-2) s / ((n+2) |x_i|^2) of its
    observation, the squared norm taken in the inv(v[i]) metric. A group at
    exactly zero is left alone.
    """
    c = b.constants
    if c.p < 3:
        raise PreconditionError(f"groupwise zero-shrink needs p >= 3, got p={c.p}")
    norms2 = quad_forms(b.x, c.loss.v_inv, per_group=True)
    scale = (c.p - 2.0) / (c.n + 2.0)
    retained = 1.0 - np.where(
        norms2 > 0.0, scale * b.s[:, None] / np.where(norms2 > 0.0, norms2, 1.0), 0.0
    )
    return retained[:, :, None] * b.x, {f"retained_{i}": retained[:, i] for i in range(c.k)}


def batch_js2(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """Shrink all groups toward zero by one factor pooled over groups."""
    c = b.constants
    if c.p * c.k < 3:
        raise PreconditionError(f"pooled zero-shrink needs p*k >= 3, got {c.p * c.k}")
    norms2 = quad_forms(b.x, c.loss.v_inv)
    scale = (c.p * c.k - 2.0) / (c.n + 2.0)
    retained = np.where(
        norms2 > 0.0, 1.0 - scale * b.s / np.where(norms2 > 0.0, norms2, 1.0), 1.0
    )
    return retained[:, None, None] * b.x, {"retained": retained}


def batch_pt(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """Preliminary test: pool everything unless the equal-means test rejects.

    The residual statistic is compared with p(k-1)/n times the upper-alpha
    F quantile; above the threshold the observations are kept, at or below
    it every group is replaced by the pooled mean. Requires a loss built as
    inverse-scale (LossSpec.inverse), so the statistic really is the
    equal-means F test. A quantile that is not a finite positive float
    leaves the test uncalibrated, so it raises PreconditionError.
    """
    c = b.constants
    if not c.loss.inverse:
        raise PreconditionError(
            "the preliminary-test estimator requires the loss weights to be the "
            "inverses of the scale matrices"
        )
    d1 = c.p * (c.k - 1)
    try:
        threshold = d1 / c.n * f_quantile(d1, c.n, hyper.alpha)
    except ArithmeticError as exc:
        raise PreconditionError(str(exc)) from exc
    keep = b.residual_stat > threshold
    mu_hat = np.where(keep[:, None, None], b.x, b.pooled_mean[:, None, :])
    return mu_hat, {
        "residual_stat": b.residual_stat,
        "threshold": threshold,
        "kept_separate": keep,
    }


def _zero(f, g, s):
    """The zero factor, and the zero partial derivative."""
    return np.zeros_like(np.asarray(f, dtype=float))


def _capped(t: float, i: int) -> tuple[Callable, Callable]:
    """min(t, u) and its almost-everywhere slope in u, where u is argument i of (f, g, s)."""

    def factor(*fgs):
        return np.minimum(t, np.asarray(fgs[i], dtype=float))

    def slope(*fgs):
        return np.where(np.asarray(fgs[i], dtype=float) < t, 1.0, 0.0)

    return factor, slope


@cache
def eb_members(p: int, k: int, n: int) -> tuple[ShrinkageFunctions, ShrinkageFunctions]:
    """EB and EB* as class members, with their partials.

    phi = min((p(k-1)-2) / (n+2), f); psi = 0 for EB, min((p-2) / (n+2), g)
    for EB*. Their partials are the almost-everywhere slopes, all the risk
    identity needs. The kernels reject dimensions where a cap is not positive.
    """
    phi, phi_f = _capped((p * (k - 1) - 2.0) / (n + 2.0), 0)
    psi, psi_g = _capped((p - 2.0) / (n + 2.0), 1)
    eb = ShrinkageFunctions(
        phi=phi, psi=_zero,
        phi_f=phi_f, phi_g=_zero, phi_s=_zero,
        psi_f=_zero, psi_g=_zero, psi_s=_zero,
    )
    return eb, replace(eb, psi=psi, psi_g=psi_g)


def _need_mean_shrink(c: PooledConstants) -> None:
    d1 = c.p * (c.k - 1)
    if d1 < 3:
        raise PreconditionError(f"pooled-mean shrink needs p(k-1) >= 3, got {d1}")


def _need_zero_shrink(c: PooledConstants) -> None:
    if c.p < 3:
        raise PreconditionError(f"pooled-mean zero-shrink needs p >= 3, got p={c.p}")


def batch_pt_star(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """Preliminary test with the pooled mean itself shrunk toward zero.

    Whatever the test decides, EB*'s zero-shrink psi/g, capped at 1, of the
    pooled mean is removed from every group.
    """
    c = b.constants
    _need_zero_shrink(c)
    mu_hat, diags = batch_pt(hyper, b)
    f, g = floored_statistics(b)
    zero_shrink = eb_members(c.p, c.k, c.n)[1].psi(f, g, b.s) / g
    mu_hat = mu_hat - zero_shrink[:, None, None] * b.pooled_mean[:, None, :]
    return mu_hat, {**diags, "pooled_norm_stat": b.pooled_norm_stat, "zero_shrink": zero_shrink}


def eb_member(c: PooledConstants, star: bool) -> ShrinkageFunctions:
    """EB's member, or EB*'s if star, where its kernel runs; PreconditionError elsewhere."""
    if star:
        _need_zero_shrink(c)
    _need_mean_shrink(c)
    return eb_members(c.p, c.k, c.n)[star]


def batch_eb1(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """Empirical shrink toward the pooled mean with a capped factor (eb_members)."""
    return batch_general(b, eb_member(b.constants, star=False))


def batch_eb2(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """The capped empirical shrink plus a capped zero-shrink of the pooled mean."""
    return batch_general(b, eb_member(b.constants, star=True))


def batch_hb1(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """Hierarchical shrink toward the pooled mean with a smooth factor.

    The shrink fraction is the incomplete-beta ratio of hb1_phi divided by
    the residual statistic; it interpolates smoothly between full pooling
    at small residual and the capped empirical behavior at large residual.
    """
    c = b.constants
    try:
        ratio = hb1_shrink_ratio(b.residual_stat, c.p, c.k, c.n, hyper.a, hyper.c, c.loss.eig_floor)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    return _shrink(b, ratio)


def batch_hb2(hyper: Hyperparameters, b: PooledBatch) -> BatchResult:
    """Hierarchical shrink toward the pooled mean and of the pooled mean.

    Both shrink fractions come from ratios of the joint truncated
    integrals (hb2_factors); they play the roles of the two capped factors
    of the empirical pair but vary smoothly with both statistics.
    """
    c = b.constants
    try:
        exponents = HbExponents.from_model(c.p, c.k, c.n, hyper.a, hyper.b, hyper.c)
        phi, psi = hb2_shrink_ratios(
            b.residual_stat, b.pooled_norm_stat, b.s, exponents, hyper.big_l
        )
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    return _shrink(b, phi, psi)


def floored_statistics(b: PooledBatch) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) floored at DEGENERATE_STAT: where class members are evaluated."""
    return (
        np.maximum(b.residual_stat, DEGENERATE_STAT),
        np.maximum(b.pooled_norm_stat, DEGENERATE_STAT),
    )


def batch_general(b: PooledBatch, sf: ShrinkageFunctions) -> BatchResult:
    """Member sf's estimates, as estimate_general gives them, on a batch.

    x_i - (phi/f) d_i (x_i - pooled) - (psi/g) d_i pooled with the direction
    maps d_i: the shrink step, with no zero-shrink when psi is EB's zero
    factor. f and g are floored at DEGENERATE_STAT before dividing, so
    members whose factors vanish there (all the built-ins) stay well-defined.
    """
    f, g = floored_statistics(b)
    zero_shrink = None if sf.psi is _zero else np.asarray(sf.psi(f, g, b.s), dtype=float) / g
    return _shrink(b, np.asarray(sf.phi(f, g, b.s), dtype=float) / f, zero_shrink)


def _shrink(b: PooledBatch, mean_shrink: np.ndarray, zero_shrink=None) -> BatchResult:
    """The one shrink step of EB, EB*, HB1, HB2 and every class member (batch_general)."""
    mu_hat = b.x - mean_shrink[:, None, None] * b.toward_pooled
    diags = {"residual_stat": b.residual_stat, "mean_shrink": mean_shrink}
    if zero_shrink is None:
        return mu_hat, diags
    mu_hat -= zero_shrink[:, None, None] * b.toward_zero
    return mu_hat, {**diags, "pooled_norm_stat": b.pooled_norm_stat, "zero_shrink": zero_shrink}


def _first(value) -> float | bool:
    """A diagnostic's value for the first replicate, as a Python scalar."""
    item = np.ravel(value)[0]
    return bool(item) if item.dtype == bool else float(item)


def _single(
    kernel: Callable,
    model: CanonicalModel,
    ls: LossSpec,
    summary: PooledBatch | None,
    hyper: Hyperparameters | None,
) -> EstimateSet:
    """Run a batch kernel on one model: summary is its one-row PooledBatch, the R = 1 case."""
    batch = summary if summary is not None else pooled_summary(model, ls)
    mu_hat, diags = kernel(hyper or Hyperparameters(), batch)
    return EstimateSet(mu_hat[0], {key: _first(value) for key, value in diags.items()})


def _single_shot(kernel: Callable) -> Callable:
    """The one-model estimator estimate_<name> for kernel batch_<name>: R = 1."""

    def estimate(
        model: CanonicalModel,
        ls: LossSpec,
        summary: PooledBatch | None = None,
        hyper: Hyperparameters | None = None,
    ) -> EstimateSet:
        return _single(kernel, model, ls, summary, hyper)

    estimate.__name__ = estimate.__qualname__ = kernel.__name__.replace("batch_", "estimate_")
    estimate.__doc__ = kernel.__doc__
    return estimate


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

ESTIMATORS: dict[str, Callable] = {
    name: _single_shot(kernel) for name, kernel in BATCH_ESTIMATORS.items()
}
estimate_unshrunk = ESTIMATORS["X"]
estimate_js1 = ESTIMATORS["JS1"]
estimate_js2 = ESTIMATORS["JS2"]
estimate_pt = ESTIMATORS["PT"]
estimate_pt_star = ESTIMATORS["PT*"]
estimate_eb1 = ESTIMATORS["EB"]
estimate_eb2 = ESTIMATORS["EB*"]
estimate_hb1 = ESTIMATORS["HB1"]
estimate_hb2 = ESTIMATORS["HB2"]


def estimate_general(
    model: CanonicalModel,
    ls: LossSpec,
    sf: ShrinkageFunctions,
    summary: PooledBatch | None = None,
) -> EstimateSet:
    """Any member of the double-shrinkage class: batch_general on the one-row batch."""
    return _single(lambda hyper, b: batch_general(b, sf), model, ls, summary, None)


_ALIASES = {"EB1": "EB", "EB2": "EB*"}

ESTIMATOR_ORDER = ("JS1", "JS2", "PT", "PT*", "EB", "EB*", "HB1", "HB2")


def resolve_estimator(name: str) -> str:
    """Map a user-supplied estimator name (or alias) to its canonical name."""
    canon = _ALIASES.get(name, name)
    if canon not in ESTIMATORS:
        known = ", ".join(list(ESTIMATORS) + list(_ALIASES))
        raise KeyError(f"unknown estimator {name!r}; known: {known}")
    return canon


def canonical_estimators(names: Iterable[str]) -> tuple[str, ...]:
    """Canonical names of names, aliases resolved, each once in the order it first appears.

    A bare string is refused, not read letter by letter.
    """
    if isinstance(names, str):
        raise ValueError(f"estimators must be a sequence of names, got the string {names!r}")
    return tuple(dict.fromkeys(map(resolve_estimator, names)))
