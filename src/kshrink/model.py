"""Canonical data model for simultaneous estimation of k Gaussian means.

Everything downstream works on one canonical form: per group i an observed
vector ``x[i]`` distributed N_p(mu_i, sigma2 * v[i]), plus a pooled scale
statistic ``s`` with ``s / sigma2`` chi-square on ``n`` degrees of freedom,
independent of the x's. Raw multi-sample or regression data are reduced to
this form by the ``canonicalize_*`` helpers.

Loss is weighted quadratic: sum_i (d_i - mu_i)' Q_i (d_i - mu_i) / sigma2.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .numerics import ReplicateError
from .tolerances import IDENTITY_REL, MAX_CONDITION, SYMMETRY

__all__ = [
    "CanonicalModel",
    "TrueParameters",
    "LossSpec",
    "PooledConstants",
    "PooledBatch",
    "Hyperparameters",
    "canonicalize_ksample",
    "canonicalize_regression",
    "pooled_summary",
]

# Relative tolerance of LossSpec.matches_inverse_v: v[i] q[i] within it of the identity.
_INVERSE_LOSS_REL = 1e-9
# Widest p whose matrix maps run with the replicate axis innermost; see apply_maps.
_LONG_MAPS_MAX_P = 16


def _as_int(name: str, value: Any) -> int:
    """value as a Python int (numpy integers pass); a bool, float or string raises ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_float(name: str, value: Any) -> float:
    """value as a Python float (numpy reals pass); a bool, string or non-real raises ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _guarded_inverse(name: str, mats: np.ndarray) -> np.ndarray:
    """Symmetrised inverses of a (m, p, p) stack, or one (p, p) matrix; raises on a bad matrix.

    Each check is one numpy call over the whole stack, and LAPACK sees only
    the finite, nonzero, symmetric matrices, one at a time as in a loop, so
    the inverses have the bits of a per-matrix loop. The ValueError joins,
    in stack order, each bad matrix's first failed check.
    """
    stack = mats.reshape((-1,) + mats.shape[-2:])
    finite = np.isfinite(stack).all(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite matrix fails the finite test
        scale = np.linalg.norm(stack, axis=(-2, -1))
        skew = np.linalg.norm(stack - np.swapaxes(stack, -2, -1), axis=(-2, -1))
    symmetric = finite & (scale < np.inf) & (scale > 0.0) & (skew <= SYMMETRY * scale)
    rows = slice(None) if symmetric.all() else symmetric  # a slice copies nothing
    sym = 0.5 * (stack[rows] + np.swapaxes(stack[rows], -2, -1))
    lo, hi = np.full(len(stack), np.nan), np.full(len(stack), np.nan)
    if len(sym):
        vals = np.linalg.eigvalsh(sym)
        lo[rows], hi[rows] = vals[:, 0], vals[:, -1]
    good = (lo > 0.0) & (hi <= MAX_CONDITION * lo)
    if good.all():
        inv = np.linalg.inv(sym)
        return (0.5 * (inv + np.swapaxes(inv, -2, -1))).reshape(mats.shape)
    bad: list[str] = []
    for i in np.flatnonzero(~good):
        label = name if mats.ndim == 2 else f"{name}[{i}]"
        if not finite[i]:
            bad.append(f"{label} has non-finite entries")
        elif scale[i] == np.inf:
            bad.append(f"{label} has entries too large to square")
        elif scale[i] == 0.0 and stack[i].any():  # the squares underflow
            bad.append(f"{label} has entries too small to square")
        elif scale[i] == 0.0:
            bad.append(f"{label} is the zero matrix")
        elif not symmetric[i]:
            bad.append(f"{label} is not symmetric within tolerance {SYMMETRY}")
        elif lo[i] <= 0.0:
            bad.append(f"{label} is not positive definite (min eigenvalue {lo[i]:.3e})")
        else:
            bad.append(
                f"{label} condition number {float(hi[i]) / float(lo[i]):.3e} "
                f"exceeds ceiling {MAX_CONDITION:.1e}"
            )
    raise ValueError("; ".join(bad))


def _as_stack(what: str, mats: np.ndarray | Sequence[np.ndarray], k: int, p: int) -> np.ndarray:
    """mats as a (k, p, p) stack (one (p, p) matrix is shared); what starts the shape error."""
    arr = np.asarray(mats, dtype=float)
    if arr.ndim == 2:
        arr = np.broadcast_to(arr, (k,) + arr.shape)
    if arr.shape != (k, p, p):
        raise ValueError(f"{what} {(k, p, p)}, got {arr.shape}")
    return arr


def _diagonal(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of a (k, p, p) stack or a (p, p) matrix; None if any off-diagonal is not 0."""
    d = m.diagonal(0, -2, -1).copy()
    return d if np.count_nonzero(m) == np.count_nonzero(d) else None


def _replicates_last(x: np.ndarray) -> np.ndarray:
    """A contiguous copy of x with its replicate axis (the first) last; a lone replicate twice.

    numpy's einsum drops a length-1 axis and then sums a lone replicate's
    terms in another order than a longer block's, so one row runs as two
    copies of itself and the caller keeps the first len(x) results.
    """
    if len(x) == 1:
        x = np.concatenate([x, x])
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def quad_forms(x: np.ndarray, m: np.ndarray, per_group: bool = False) -> np.ndarray:
    """x[r]' m x[r] for every replicate r of x, the replicate axis first.

    x is (R, k, p) with m a (k, p, p) stack, giving sum_i x[r, i]' m[i] x[r, i]
    as (R,), or each group's form as (R, k) with per_group; or x is (R, p)
    with one (p, p) matrix, run as the one-group stack, giving (R,). Every
    quadratic form over replicates is taken here. numpy's three-operand
    einsum builds each output from its (k, a, b) terms in the same nested
    order whichever axis is innermost, so copying x with the replicate axis
    last (a contiguous inner loop over replicates) keeps the bits of the
    replicate-first subscripts ("rka,kab,rkb", and "ra,ab,rb" for one
    matrix) and is about twice as fast on (256, 5, 5) blocks. As in
    apply_maps, a lone replicate runs as two copies of itself, so a
    replicate's form does not depend on how many rows share its call.

    When every off-diagonal entry of m is exactly zero (the identity and
    scaled-identity scales of the paper's study), the same layout runs
    "kar,ka,kar" on m's diagonal d, O(R k p) instead of O(R k p^2). It adds
    the (x d) x terms of the full form's nonzero terms in the same (k, a)
    order; the full form's other terms are zeros, which change no partial
    sum of its zero-started accumulator, so the bits are the same. The one
    difference is an inf coordinate, where the full form adds 0 * inf and
    gives NaN and the diagonal one gives inf. A nonzero off-diagonal
    entry, however small, keeps the full form.
    """
    if m.ndim == 2:
        return quad_forms(x[:, None], m[None])
    xt = _replicates_last(x)
    d = _diagonal(m)
    if d is None:
        if per_group:
            out = np.einsum("kar,kab,kbr->kr", xt, m, xt)
        else:
            out = np.einsum("kar,kab,kbr->r", xt, m, xt)
    elif per_group:
        out = np.einsum("kar,ka,kar->kr", xt, d, xt)
    else:
        out = np.einsum("kar,ka,kar->r", xt, d, xt)
    return out[..., : len(x)].T


def apply_maps(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m[i] @ x[r, i] for every replicate r of x, the replicate axis first.

    m is a (k, p, p) stack and x is (R, k, p), or (R, p) shared by the k
    maps, which runs as its (R, k, p) broadcast; either gives (R, k, p).
    Or m is one (p, p) matrix and x is (R, p), run as the one-group stack,
    giving (R, p). Every matrix map over replicates is taken here, and the
    result is C-contiguous.

    The order in which an entry's terms m[i, a, b] x[r, i, b] are added is
    fixed by p alone, so a replicate's values do not depend on how many
    rows share its call. Up to p = _LONG_MAPS_MAX_P x is copied with the
    replicate axis last, as in quad_forms, numpy's inner loop runs over
    the replicates, and the terms are added one after another in the order
    of b: about 5x faster than the replicate-first subscripts
    ("kab,rkb->rka") on (1310, 5, 5) blocks. As in quad_forms, a lone
    replicate runs as two copies of itself; alone, numpy would drop its
    axis and sum b in its vectorized dot order. Past p = _LONG_MAPS_MAX_P
    that layout no longer beats the dot on every block, so wider maps keep
    the replicate-first subscripts, whose order is the same for any number
    of rows.

    When every off-diagonal entry of m is exactly zero, at any p, the maps
    are the products d[i, a] x[r, i, a] with m's diagonal d, taken by an
    elementwise einsum with no layout copy: O(R k p) instead of
    O(R k p^2). Each entry of the full paths above is d[i, a] x[r, i, a]
    plus zero terms on numpy's zero-started sum, and the elementwise einsum
    adds that one product to the same zero start, so the bits are the same,
    a -0.0 product reading +0.0 on both; like every einsum it raises no
    overflow warning. The one difference is an inf coordinate: the full
    maps add 0 * inf and give NaN in every entry it meets, the diagonal
    one gives inf in its own entry. A nonzero off-diagonal entry, however
    small, keeps the paths above.
    """
    if m.ndim == 2:
        return apply_maps(m[None], x[:, None])[:, 0]
    if x.ndim == 2:
        x = np.broadcast_to(x[:, None], (len(x),) + m.shape[:2])
    d = _diagonal(m)
    if d is not None:
        return np.einsum("ka,rka->rka", d, x, order="C")
    m = np.ascontiguousarray(m)
    if x.shape[-1] > _LONG_MAPS_MAX_P:
        return np.einsum("kab,rkb->rka", m, np.ascontiguousarray(x))
    out = np.einsum("kab,kbr->kar", m, _replicates_last(x))
    return np.ascontiguousarray(np.moveaxis(out[..., : len(x)], -1, 0))


@dataclass(frozen=True)
class CanonicalModel:
    """Observed data in canonical form.

    x: (k, p) array, row i is the observation for group i.
    v: (k, p, p) stack of known positive definite scale matrices.
    s: pooled scale statistic, s / sigma2 ~ chi-square(n).
    n: degrees of freedom of s, an integer; a float, even 3.0, is refused.
    """

    x: np.ndarray
    v: np.ndarray
    s: float
    n: int

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.ndim != 2:
            raise ValueError(f"x must be a (k, p) array, got shape {np.shape(self.x)}")
        object.__setattr__(self, "x", _freeze(x))
        v = _as_stack("v must have shape (k, p, p) =", self.v, *x.shape)
        object.__setattr__(self, "v", _freeze(v))
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "n", _as_int("n", self.n))

    @property
    def k(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class TrueParameters:
    """Ground truth for simulation: mean rows mu (k, p) and the scale sigma2.

    mu may also stack one (k, p) truth per replicate as an (R, k, p) array.
    """

    mu: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if not np.all(np.isfinite(self.mu)):
            raise ValueError("mu has non-finite entries")
        if not (self.sigma2 > 0.0 and np.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")


@dataclass(frozen=True)
class LossSpec:
    """Weight matrices of the quadratic loss.

    q: (k, p, p) stack of positive definite weight matrices.
    eig_floor: min over groups of the smallest eigenvalue of v[i] @ q[i];
        inverse_v, where every q[i] is inv(v[i]), sets it to 1 exactly.
    inverse: the loss is inverse-scale, every q[i] inv(v[i]), the one loss
        under which the preliminary test is the equal-means F test.
        inverse_v sets it True; for_model sets it for an explicit q by
        matches_inverse_v. A spec built by hand reads False.
    q_inv, v, v_inv: inv(q[i]), the model's v and inv(v[i]), set only by the
        factories, which guard v and q (inverse_v sets q_inv = v and
        v_inv = q). PooledConstants.from_model trusts them, and rejects a
        spec built by hand, whose q_inv is None, or built for another v.
    """

    q: np.ndarray
    eig_floor: float
    inverse: bool = field(default=False, init=False, compare=False)
    q_inv: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    v_inv: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _freeze(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "eig_floor", float(self.eig_floor))

    @classmethod
    def for_model(
        cls, model: CanonicalModel, q: np.ndarray | Sequence[np.ndarray] | None
    ) -> "LossSpec":
        """The loss with weights q for this model; q=None is the inverse-scale loss, inverse_v.

        An explicit q is guarded with v, gets its eig_floor, and is
        inverse-scale only if matches_inverse_v holds.
        """
        if q is None:
            return cls.inverse_v(model)
        v_inv = _guarded_inverse("v", model.v)
        qa = _as_stack("q must have shape (k, p, p) =", q, model.k, model.p)
        q_inv = _guarded_inverse("q", qa)
        eig_floor = np.inf
        for vi, qi in zip(model.v, qa):
            chol = np.linalg.cholesky(0.5 * (vi + vi.T))
            # v @ q shares its spectrum with the symmetric chol' q chol
            vals = np.linalg.eigvalsh(chol.T @ (0.5 * (qi + qi.T)) @ chol)
            eig_floor = min(eig_floor, vals[0])
        spec = cls(q=qa, eig_floor=float(eig_floor))
        object.__setattr__(spec, "inverse", spec.matches_inverse_v(model))
        object.__setattr__(spec, "q_inv", _freeze(q_inv))
        object.__setattr__(spec, "v", model.v)
        object.__setattr__(spec, "v_inv", _freeze(v_inv))
        return spec

    @classmethod
    def inverse_v(cls, model: CanonicalModel) -> "LossSpec":
        """Loss weighted by the inverse scale matrices: guard v once, q = inv(v), q_inv = v."""
        spec = cls(q=_guarded_inverse("v", model.v), eig_floor=1.0)
        object.__setattr__(spec, "inverse", True)
        object.__setattr__(spec, "q_inv", model.v)
        object.__setattr__(spec, "v", model.v)
        object.__setattr__(spec, "v_inv", spec.q)
        return spec

    def matches_inverse_v(self, model: CanonicalModel) -> bool:
        """True when every q[i] equals inv(v[i]) up to _INVERSE_LOSS_REL."""
        prod = model.v @ self.q
        bound = _INVERSE_LOSS_REL * max(1.0, float(np.abs(prod).max()))
        return bool(np.all(np.abs(prod - np.eye(model.p)) <= bound))


@dataclass(frozen=True)
class PooledConstants:
    """What the pooled statistics need besides x and s.

    A simulation computes these once per configuration for all replicates.

    k, p, n: groups, coordinates and scale degrees of freedom.
    loss: the loss weights; loss.v_inv is the (k, p, p) stack of inv(v[i]).
    weights: (k, p, p) stack w[i] = inv(v[i]) @ inv(q[i]) @ inv(v[i]).
    weight_sum: sum_i w[i].
    pooled_cov: inverse of weight_sum.
    directions: (k, p, p) stack v[i] @ w[i] (= inv(q[i]) inv(v[i])), the
        inverse-loss-weighted shrink maps.
    trace_sum: sum_i tr(v[i] q[i]), the risk of the unshrunk estimator.
    """

    k: int
    p: int
    n: int
    loss: LossSpec
    weights: np.ndarray
    weight_sum: np.ndarray
    pooled_cov: np.ndarray
    directions: np.ndarray
    trace_sum: float

    @classmethod
    def from_model(cls, model: CanonicalModel, loss_spec: LossSpec) -> "PooledConstants":
        """Guard the weight sum, reuse the loss spec's inv(v) and inv(q), derive the constants."""
        bad = _model_violations(model, loss_spec)
        if bad:
            raise ValueError("invalid model: " + "; ".join(bad))
        v_inv = loss_spec.v_inv
        w = v_inv @ loss_spec.q_inv @ v_inv
        weights = 0.5 * (w + np.transpose(w, (0, 2, 1)))
        weight_sum = weights.sum(axis=0)
        return cls(
            k=model.k,
            p=model.p,
            n=model.n,
            loss=loss_spec,
            weights=_freeze(weights),
            weight_sum=_freeze(weight_sum),
            pooled_cov=_freeze(_guarded_inverse("sum of weights", weight_sum)),
            directions=_freeze(model.v @ weights),
            trace_sum=float(np.einsum("kab,kba->", model.v, loss_spec.q)),
        )

    def summarize(self, x: np.ndarray, s: np.ndarray) -> "PooledBatch":
        """Pooled statistics of R replicates: x is (R, k, p), s is (R,).

        For every replicate, residual_stat + pooled_norm_stat times s must
        reproduce sum_i x[i]' w[i] x[i] within IDENTITY_REL, relative. Inputs
        that pass every guard can still fail it: with scale matrices of
        condition 1e9, well under MAX_CONDITION, rounding breaks it on some
        draws. A statistic or an s that is not finite is an overflow. Either
        failure raises a ReplicateError naming the lowest failing row.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            wx = apply_maps(self.weights, x)
            pooled_mean = apply_maps(self.pooled_cov, wx.sum(axis=1))
            total = np.einsum("rka,rka->r", x, wx)
            centered = x - pooled_mean[:, None, :]
            residual = quad_forms(centered, self.weights)
            pooled_norm = quad_forms(pooled_mean, self.weight_sum)
            gap = np.abs((residual + pooled_norm) - total)
            f, g = residual / s, pooled_norm / s
        undecomposed = gap > IDENTITY_REL * np.maximum(1.0, np.abs(total))
        bad = np.flatnonzero(undecomposed | ~(np.isfinite(f) & np.isfinite(g) & np.isfinite(s)))
        if bad.size:
            r = int(bad[0])
            if undecomposed[r]:
                msg = (
                    "pooled quadratic forms failed the decomposition check: "
                    f"{residual[r]} + {pooled_norm[r]} != {total[r]}"
                )
            else:
                msg = (
                    f"pooled statistics overflow: quadratic forms {residual[r]} and "
                    f"{pooled_norm[r]} over s = {s[r]}"
                )
            raise ReplicateError(r, ArithmeticError(msg))
        return PooledBatch(self, x, s, pooled_mean, f, g)


@dataclass(frozen=True)
class PooledBatch:
    """Pooled statistics of R replicates that share their constants.

    x: (R, k, p) observations, referenced rather than copied.
    s: (R,) pooled scale statistics.
    pooled_mean: (R, p) generalized least squares means pooled_cov @ sum_i w[i] x[i].
    residual_stat: (R,) sum_i (x[i]-pooled_mean)' w[i] (x[i]-pooled_mean) / s.
    pooled_norm_stat: (R,) pooled_mean' weight_sum pooled_mean / s.

    The two direction maps every pooled-mean estimator applies are built
    on first use and kept, so the estimators that run on one batch share
    them.
    """

    constants: PooledConstants
    x: np.ndarray
    s: np.ndarray
    pooled_mean: np.ndarray
    residual_stat: np.ndarray
    pooled_norm_stat: np.ndarray

    @cached_property
    def toward_pooled(self) -> np.ndarray:
        """(R, k, p) direction maps applied to each group's deviation from the pooled mean."""
        centered = self.x - self.pooled_mean[:, None, :]
        return apply_maps(self.constants.directions, centered)

    @cached_property
    def toward_zero(self) -> np.ndarray:
        """(R, k, p) direction maps applied to the pooled mean."""
        return apply_maps(self.constants.directions, self.pooled_mean)


@dataclass(frozen=True)
class Hyperparameters:
    """Tuning constants of the Bayes-motivated estimators.

    a, b, c: exponents of the two-stage shrinkage prior (a acts on the
        between-group spread, b on the pooled mean, c on the scale).
    big_l: rate of the exponential tilt on the precision; 0 drops the tilt
        and makes the shrink factors scale-free.
    alpha: test size of the preliminary-test estimator.
    """

    a: float = 0.1
    b: float = 0.1
    c: float = 0.1
    big_l: float = 0.0
    alpha: float = 0.05

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            val = float(getattr(self, name))
            object.__setattr__(self, name, val)
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.big_l < 0.0:
            raise ValueError(f"big_l must be >= 0, got {self.big_l}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def _model_violations(model: CanonicalModel, loss_spec: LossSpec) -> list[str]:
    """Every way model and loss_spec break the canonical model; v and q were guarded by the spec."""
    bad: list[str] = []
    if not np.all(np.isfinite(model.x)):
        bad.append("x has non-finite entries")
    if model.k < 2:
        bad.append(f"need at least 2 groups, got k={model.k}")
    if model.p < 1:
        bad.append(f"need at least 1 coordinate, got p={model.p}")
    if not (np.isfinite(model.s) and model.s > 0.0):
        bad.append(f"s must be positive and finite, got {model.s}")
    if model.n < 1:
        bad.append(f"n must be a positive integer, got {model.n}")
    if loss_spec.q.shape != (model.k, model.p, model.p):
        bad.append(
            f"loss q shape {loss_spec.q.shape} does not match model "
            f"{(model.k, model.p, model.p)}"
        )
    elif loss_spec.q_inv is None:
        bad.append("loss q is unguarded: build the LossSpec with for_model or inverse_v")
    elif not np.array_equal(loss_spec.v, model.v):
        bad.append("loss spec was built for a different v: build it for this model")
    elif not (np.isfinite(loss_spec.eig_floor) and loss_spec.eig_floor > 0.0):
        bad.append(f"eig_floor must be positive, got {loss_spec.eig_floor}")
    return bad


def canonicalize_ksample(
    samples: Sequence[np.ndarray],
    v0: np.ndarray | Sequence[np.ndarray],
) -> CanonicalModel:
    """Reduce raw multi-sample data to canonical form.

    Group i supplies ``samples[i]``, an (n_i, p) array of i.i.d. draws from
    N_p(mu_i, sigma2 * v0[i]). The canonical observation is the group mean
    with scale matrix v0[i] / n_i; the canonical s pools the within-group
    spread sum_ij (y_ij - mean_i)' inv(v0[i]) (y_ij - mean_i), which has
    p * sum_i (n_i - 1) degrees of freedom.

    Args:
        samples: sequence of k arrays, each (n_i, p) with n_i >= 1.
        v0: one (p, p) matrix shared by all groups, or a (k, p, p) stack.

    Returns:
        CanonicalModel. Requires p * sum_i (n_i - 1) >= 1; a pooled scale
        cannot be formed from singleton groups alone.
    """
    if len(samples) < 2:
        raise ValueError(f"need at least 2 groups, got {len(samples)}")
    arrays = [np.atleast_2d(np.asarray(sm, dtype=float)) for sm in samples]
    p = arrays[0].shape[1]
    for i, arr in enumerate(arrays):
        if arr.ndim != 2 or arr.shape[1] != p:
            raise ValueError(f"samples[{i}] must be (n_i, {p}), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError(f"samples[{i}] is empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"samples[{i}] has non-finite entries")
    k = len(arrays)
    v0a = _as_stack("v0 must have shape", v0, k, p)
    v0_inv = _guarded_inverse("v0", v0a)

    x = np.empty((k, p))
    v = np.empty((k, p, p))
    s = 0.0
    df = 0
    for i, arr in enumerate(arrays):
        ni = arr.shape[0]
        # A spread that overflows leaves an infinite (or NaN) s, which the
        # model check refuses; a mean that overflows is refused here.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = arr.mean(axis=0)
            if not np.all(np.isfinite(mean)):
                raise ValueError(f"samples[{i}] has entries too large to average")
            x[i] = mean
            v[i] = v0a[i] / ni
            if ni > 1:
                resid = arr - mean
                s += float(np.einsum("ja,ab,jb->", resid, v0_inv[i], resid))
                df += (ni - 1) * p
    if df < 1:
        raise ValueError("all groups are singletons; no degrees of freedom for the scale")
    return CanonicalModel(x=x, v=v, s=s, n=df)


def canonicalize_regression(
    designs: Sequence[np.ndarray],
    responses: Sequence[np.ndarray],
) -> CanonicalModel:
    """Reduce parallel linear regressions to canonical form.

    Group i has responses y_i = Z_i beta_i + noise with i.i.d. N(0, sigma2)
    noise. The canonical observation is the least squares coefficient vector
    with scale matrix inv(Z_i' Z_i); s pools the residual sums of squares
    over groups, with sum_i (m_i - p) degrees of freedom.

    Args:
        designs: sequence of k design matrices, each (m_i, p) of full
            column rank with m_i >= p.
        responses: sequence of k response vectors, each length m_i.
    """
    if len(designs) != len(responses):
        raise ValueError(f"{len(designs)} designs but {len(responses)} responses")
    if len(designs) < 2:
        raise ValueError(f"need at least 2 groups, got {len(designs)}")
    p = np.atleast_2d(np.asarray(designs[0], dtype=float)).shape[1]
    k = len(designs)
    x = np.empty((k, p))
    v = np.empty((k, p, p))
    s = 0.0
    df = 0
    for i, (z_raw, y_raw) in enumerate(zip(designs, responses)):
        z = np.atleast_2d(np.asarray(z_raw, dtype=float))
        y = np.asarray(y_raw, dtype=float).ravel()
        if z.shape[1] != p:
            raise ValueError(f"designs[{i}] has {z.shape[1]} columns, expected {p}")
        if z.shape[0] != y.shape[0]:
            raise ValueError(
                f"designs[{i}] has {z.shape[0]} rows but responses[{i}] has {y.shape[0]}"
            )
        if z.shape[0] < p:
            raise ValueError(f"designs[{i}] has fewer rows ({z.shape[0]}) than columns ({p})")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
            raise ValueError(f"group {i} has non-finite entries")
        with np.errstate(over="ignore"):
            gram = z.T @ z
        if not np.all(np.isfinite(gram)):
            raise ValueError(f"designs[{i}] has entries too large to square")
        # A nonzero column whose squares underflowed, to zero or to a subnormal,
        # leaves inv(gram) nothing finite to invert.
        if np.any((np.diagonal(gram) < np.finfo(float).tiny) & z.any(axis=0)):
            raise ValueError(f"designs[{i}] has entries too small to square")
        coef, _, rank, _ = np.linalg.lstsq(z, y, rcond=None)
        if rank < p:
            raise ValueError(f"designs[{i}] is column rank deficient")
        x[i] = coef
        v[i] = np.linalg.inv(gram)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite s fails validation
            resid = y - z @ coef
            s += float(resid @ resid)
        df += z.shape[0] - p
    if df < 1:
        raise ValueError("no residual degrees of freedom; need sum_i (m_i - p) >= 1")
    return CanonicalModel(x=x, v=v, s=s, n=df)


def pooled_summary(model: CanonicalModel, loss_spec: LossSpec) -> PooledBatch:
    """The pooled statistics of one model: summarize on its one row (x, s).

    Every field of the returned PooledBatch has a replicate axis of length 1.
    """
    constants = PooledConstants.from_model(model, loss_spec)
    return constants.summarize(model.x[None], np.array([model.s]))
