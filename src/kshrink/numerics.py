"""Special functions and quadrature for the hierarchical shrink factors.

The hierarchical Bayes estimators need ratios of incomplete-beta style
integrals (one-dimensional for the residual-only factor, two-dimensional for
the joint residual/location factor). Ratios are always formed in log space:
every integrand is evaluated as exp(log_integrand - shift) with a common
shift taken from the denominator, so extreme exponent combinations cannot
underflow the ratio even when the raw integrals would.

The adaptive integrator is a 15-point Gauss-Kronrod panel scheme with
worst-panel bisection; the rule and its error estimate follow QUADPACK
(Piessens et al., 1983). Integrands passed to it must be vectorized
(ndarray in, ndarray out) and are never evaluated at panel endpoints, so
integrable endpoint singularities are fine.

hb2_shrink_ratios takes arrays of statistics. With zero tilt, the joint
factors of all regular points (both statistics above
tol.degenerate_stat) come from one fixed rule: the composite GK15 on the
11 panels the adaptive path starts from, which scale with f, so one
(R, 11, 15) node grid serves the whole array, and each point takes its
log shift from its own denominator nodes. A point is accepted when every
one of its three integrals has a QUADPACK error estimate within
rel_tol * |value|, every value is finite and the denominator is positive.
Every other point (a miss, a degenerate statistic, a positive tilt, or a
budget below the rule's 165 evaluations) goes through the scalar adaptive
path in index order, which raises exactly as it does for one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.special as sc
from scipy.optimize import brentq

from .tolerances import DEFAULT, Tolerances

__all__ = [
    "HbExponents",
    "QuadratureResult",
    "ReplicateError",
    "reg_inc_beta",
    "reg_upper_inc_gamma",
    "f_quantile",
    "integrate_adaptive_1d",
    "hb1_phi",
    "hb1_shrink_ratio",
    "hb2_factors",
    "hb2_shrink_ratios",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
    ]
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
    ]
)
_WG_CENTER = 0.417959183673469387755102040816327

_GK_NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_GK_WEIGHTS = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
# Gauss nodes sit at the odd Kronrod positions 1,3,5,7,9,11,13.
_G_WEIGHTS = np.array(
    [
        _WG_HALF[0],
        _WG_HALF[1],
        _WG_HALF[2],
        _WG_CENTER,
        _WG_HALF[2],
        _WG_HALF[1],
        _WG_HALF[0],
    ]
)

_MAX_SPLIT_BATCH = 256
_TINY_LOG = 1e-300

# Per-call grids of the joint shrink factors, as fractions of the upper
# limit they are scaled by.
_GEO_FRACTIONS = np.array([1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.15, 0.3, 0.5, 0.75])
_ZERO_TILT_PROBES = np.geomspace(1e-9, 1.0, 64)
_POS_TILT_PROBES = np.geomspace(1e-9, 1.0, 32)
_INNER_FRACTIONS = np.geomspace(1e-12, 1.0, 40)


def reg_inc_beta(a: float, b: float, x) -> float | np.ndarray:
    """Regularized incomplete beta function I_x(a, b).

    Args:
        a, b: positive shape parameters.
        x: point(s) in [0, 1].
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    xa = np.asarray(x, dtype=float)
    if np.any((xa < 0.0) | (xa > 1.0)):
        raise ValueError("x must lie in [0, 1]")
    out = sc.betainc(a, b, xa)
    return float(out) if np.isscalar(x) else out


def reg_upper_inc_gamma(shape: float, z) -> float | np.ndarray:
    """Regularized upper incomplete gamma function Q(shape, z) for z >= 0."""
    if not shape > 0.0:
        raise ValueError(f"shape must be positive, got {shape}")
    za = np.asarray(z, dtype=float)
    if np.any(za < 0.0):
        raise ValueError("z must be nonnegative")
    out = sc.gammaincc(shape, za)
    return float(out) if np.isscalar(z) else out


def f_quantile(d1: float, d2: float, alpha: float) -> float:
    """Upper-alpha quantile of the F(d1, d2) distribution.

    Solved by bracketing plus Brent root-finding on the CDF written through
    the regularized incomplete beta, so the quantile and the beta routine
    stay mutually consistent by construction.
    """
    if not (d1 > 0.0 and d2 > 0.0):
        raise ValueError(f"degrees of freedom must be positive, got d1={d1}, d2={d2}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    target = 1.0 - alpha

    def cdf_gap(t: float) -> float:
        w = d1 * t / (d1 * t + d2)
        return float(sc.betainc(0.5 * d1, 0.5 * d2, w)) - target

    lo, hi = 1.0, 1.0
    for _ in range(2000):
        if cdf_gap(lo) <= 0.0:
            break
        lo *= 0.5
    else:
        raise ArithmeticError("failed to bracket the F quantile from below")
    for _ in range(2000):
        if cdf_gap(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("failed to bracket the F quantile from above")
    if lo == hi:
        return lo
    return float(brentq(cdf_gap, lo, hi, xtol=1e-13, rtol=4 * np.finfo(float).eps, maxiter=200))


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration.

    value: best estimate of the integral.
    error: estimated absolute error.
    converged: whether the tolerance was met within the evaluation budget.
    panels: number of panels in the final subdivision.
    evals: total integrand evaluations spent.
    """

    value: float
    error: float
    converged: bool
    panels: int
    evals: int


class ReplicateError(ArithmeticError):
    """Numerics failed on one element of an array call; replicate is its flat index."""

    def __init__(self, replicate: int, cause: ArithmeticError) -> None:
        super().__init__(str(cause))
        self.replicate = replicate


def _panel_nodes(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 nodes (..., 15) and half-widths (...) of panels [los, his]."""
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    return mid[..., None] + half[..., None] * _GK_NODES, half


def _gk15_panels(fx: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod 15(7) values and error estimates of panels evaluated at their nodes.

    fx holds the integrand at _panel_nodes (last axis the 15 nodes), half the
    panel half-widths; leading axes broadcast.
    """
    k15 = half * (fx @ _GK_WEIGHTS)
    g7 = half * (fx[..., 1::2] @ _G_WEIGHTS)
    raw = np.abs(k15 - g7)
    resabs = half * (np.abs(fx) @ _GK_WEIGHTS)
    width = 2.0 * half
    meanval = np.divide(k15, width, out=np.zeros_like(k15), where=width > 0.0)
    resasc = half * (np.abs(fx - meanval[..., None]) @ _GK_WEIGHTS)
    # QUADPACK's rescaled error estimate: |K-G| measures the Gauss error, the
    # Kronrod value is far better than that on smooth panels.
    err = np.where(
        resasc > 0.0,
        resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5),
        raw,
    )
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return k15, err


def integrate_adaptive_1d(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    budget: int = DEFAULT.quad_budget,
    points: Sequence[float] | None = None,
) -> QuadratureResult:
    """Integrate a vectorized callable over [lo, hi] adaptively.

    Gauss-Kronrod 15(7) panels; the worst panels (those carrying 90% of the
    estimated error, capped per round) are bisected until the summed error
    estimate drops below rel_tol * |value| or the evaluation
    budget runs out. Endpoints are never evaluated.

    Args:
        f: vectorized integrand, ndarray in / ndarray out.
        lo, hi: integration limits, lo <= hi.
        rel_tol: relative stopping tolerance.
        budget: maximum integrand evaluations.
        points: optional interior breakpoints seeding the initial panels;
            useful when the mass sits far from the middle of the domain.
    """
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"limits must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError(f"upper limit {hi} below lower limit {lo}")
    if hi == lo:
        return QuadratureResult(0.0, 0.0, True, 0, 0)

    edges = [lo, hi]
    if points is not None:
        edges.extend(float(t) for t in points if lo < float(t) < hi)
    edges = np.array(sorted(set(edges)))
    los = edges[:-1].copy()
    his = edges[1:].copy()
    if 15 * len(los) > budget:
        raise ValueError(f"budget {budget} cannot cover the {len(los)} initial panels")

    def panels(lefts: np.ndarray, rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nodes, half = _panel_nodes(lefts, rights)
        fx = np.asarray(f(nodes.reshape(-1)), dtype=float).reshape(nodes.shape)
        if not np.all(np.isfinite(fx)):
            raise ValueError("integrand returned a non-finite value inside the domain")
        return _gk15_panels(fx, half)

    vals, errs = panels(los, his)
    evals = 15 * len(los)

    while True:
        total = float(np.sum(vals))
        toterr = float(np.sum(errs))
        if toterr <= rel_tol * abs(total):
            return QuadratureResult(total, toterr, True, len(los), evals)
        if evals + 30 > budget:
            return QuadratureResult(total, toterr, False, len(los), evals)

        order = np.argsort(errs)[::-1]
        cum = np.cumsum(errs[order])
        n_split = int(np.searchsorted(cum, 0.9 * toterr)) + 1
        n_split = min(n_split, _MAX_SPLIT_BATCH, (budget - evals) // 30, len(order))
        idx = order[:n_split]
        mids = 0.5 * (los[idx] + his[idx])
        splittable = (mids > los[idx]) & (mids < his[idx])
        if not np.any(splittable):
            return QuadratureResult(total, toterr, False, len(los), evals)
        idx = idx[splittable]
        mids = mids[splittable]

        new_los = np.concatenate([los[idx], mids])
        new_his = np.concatenate([mids, his[idx]])
        new_vals, new_errs = panels(new_los, new_his)
        evals += 15 * len(new_los)
        keep = np.ones(len(los), dtype=bool)
        keep[idx] = False
        los = np.concatenate([los[keep], new_los])
        his = np.concatenate([his[keep], new_his])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def _log_betainc(a: float, b: float, u) -> np.ndarray:
    """log I_u(a, b), with a small-u series when the regularized value underflows."""
    ua = np.asarray(u, dtype=float)
    val = sc.betainc(a, b, ua)
    small = val < _TINY_LOG
    with np.errstate(divide="ignore"):
        out = np.log(np.where(small, 1.0, val))
    if np.any(small):
        us = np.where(ua > 0.0, ua, np.finfo(float).tiny)
        with np.errstate(divide="ignore"):
            series = (
                a * np.log(us)
                + b * np.log1p(-us)
                - math.log(a)
                - sc.betaln(a, b)
                + np.log1p((a + b) * us / (a + 1.0))
            )
        series = np.where(ua > 0.0, series, -np.inf)
        out = np.where(small, series, out)
    return out


def _log_int_pow(upper, ell: float, mprime: float) -> np.ndarray:
    """log of int_0^upper x^ell (1+x)^(-mprime) dx in closed form.

    Valid for ell > -1 and mprime - ell - 1 > 0; the substitution
    w = x / (1+x) turns the integral into a regularized incomplete beta.
    """
    ua = np.asarray(upper, dtype=float)
    w = ua / (1.0 + ua)
    a0 = ell + 1.0
    b0 = mprime - ell - 1.0
    return sc.betaln(a0, b0) + _log_betainc(a0, b0, w)


def hb1_phi(
    f_stat,
    p: int,
    k: int,
    n: int,
    a: float = 0.1,
    c: float = 0.1,
    eig_floor: float = 1.0,
) -> float | np.ndarray:
    """Residual-shrink factor of the first hierarchical Bayes estimator.

    The factor is the ratio of two truncated power/beta integrals over
    [0, eig_floor * f_stat]; both reduce to regularized incomplete betas and
    the ratio is assembled in log space.

    Args:
        f_stat: residual statistic(s), >= 0; scalar or ndarray.
        p, k, n: model dimensions and scale degrees of freedom.
        a, c: prior exponents; requires p(k-1)/2 + a > 0 and a + c < n/2
            so that both integrals are finite.
        eig_floor: smallest eigenvalue of the v/q products (1 for
            inverse-scale loss).
    """
    m = 0.5 * p * (k - 1)
    if not m + a > 0.0:
        raise ValueError(f"need p(k-1)/2 + a > 0, got {m + a}")
    if not a + c < 0.5 * n:
        raise ValueError(f"need a + c < n/2, got a+c={a + c} with n={n}")
    if not eig_floor > 0.0:
        raise ValueError(f"eig_floor must be positive, got {eig_floor}")
    fa = np.asarray(f_stat, dtype=float)
    if np.any(fa < 0.0):
        raise ValueError("f_stat must be nonnegative")
    big_m = 0.5 * (n + p * (k - 1)) + 1.0 - c
    upper = eig_floor * fa
    log_num = _log_int_pow(upper, m + a, big_m)
    log_den = _log_int_pow(upper, m + a - 1.0, big_m)
    with np.errstate(invalid="ignore"):
        out = np.exp(log_num - log_den)
    out = np.where(upper > 0.0, out, 0.0)
    return float(out) if np.isscalar(f_stat) else out


def hb1_shrink_ratio(
    f_stat,
    p: int,
    k: int,
    n: int,
    a: float = 0.1,
    c: float = 0.1,
    eig_floor: float = 1.0,
    tol: Tolerances = DEFAULT,
) -> float | np.ndarray:
    """hb1_phi(f) / f, switching to the exact series limit for tiny f.

    As f -> 0 the ratio tends to eig_floor * (m+a)/(m+a+1) with
    m = p(k-1)/2; below tol.degenerate_stat that limit is returned directly.
    """
    m = 0.5 * p * (k - 1)
    fa = np.asarray(f_stat, dtype=float)
    limit = eig_floor * (m + a) / (m + a + 1.0)
    safe = np.where(fa > tol.degenerate_stat, fa, 1.0)
    ratio = hb1_phi(safe, p, k, n, a, c, eig_floor) / safe
    out = np.where(fa > tol.degenerate_stat, ratio, limit)
    return float(out) if np.isscalar(f_stat) else out


@dataclass(frozen=True)
class HbExponents:
    """Exponents of the joint shrink-factor integrals.

    alpha_e: exponent on the residual coordinate, p(k-1)/2 + a - 1.
    beta_e: exponent on the location coordinate, p/2 + b - 1.
    gamma_e: decay exponent of the shared kernel, (n + p*k)/2 - c.

    Finiteness of all the integrals requires alpha_e > -1, beta_e > -1 and
    gamma_e > alpha_e + beta_e + 2.
    """

    alpha_e: float
    beta_e: float
    gamma_e: float

    def __post_init__(self) -> None:
        if not self.alpha_e > -1.0:
            raise ValueError(f"alpha_e must exceed -1, got {self.alpha_e}")
        if not self.beta_e > -1.0:
            raise ValueError(f"beta_e must exceed -1, got {self.beta_e}")
        if not self.gamma_e > self.alpha_e + self.beta_e + 2.0:
            raise ValueError(
                f"gamma_e={self.gamma_e} must exceed alpha_e + beta_e + 2 = "
                f"{self.alpha_e + self.beta_e + 2.0}"
            )

    @classmethod
    def from_model(
        cls, p: int, k: int, n: int, a: float = 0.1, b: float = 0.1, c: float = 0.1
    ) -> "HbExponents":
        return cls(
            alpha_e=0.5 * p * (k - 1) + a - 1.0,
            beta_e=0.5 * p + b - 1.0,
            gamma_e=0.5 * (n + p * k) - c,
        )

    def limits(self) -> tuple[float, float]:
        """Large-statistic limits of (phi, psi)."""
        gap = self.gamma_e - self.alpha_e - self.beta_e - 2.0
        return (self.alpha_e + 1.0) / gap, (self.beta_e + 1.0) / gap


def _geo_points(upper: float) -> np.ndarray:
    """Geometric breakpoints clustering panels toward 0 on [0, upper]."""
    return upper * _GEO_FRACTIONS


# The fixed rule of _hb2_zero_tilt_block on [0, 1]: the 11 panels seeded by
# _geo_points(1), 165 nodes.
_UNIT_EDGES = np.concatenate([[0.0], _GEO_FRACTIONS, [1.0]])
_UNIT_NODES, _UNIT_HALF = _panel_nodes(_UNIT_EDGES[:-1], _UNIT_EDGES[1:])


def _zero_tilt_log_integrand(
    x: np.ndarray, u: np.ndarray, ap: float, bp: float, ga: float, log_inc=None
) -> np.ndarray:
    """log of x^ap (1+x)^(bp-ga) B(bp+1, ga-bp) I_u(bp+1, ga-bp), u = g/(1+x+g).

    This is a zero-tilt joint integrand once its location integral is done
    in closed form. log_inc is _log_betainc(bp+1, ga-bp, u) when the caller
    already has it.
    """
    if log_inc is None:
        log_inc = _log_betainc(bp + 1.0, ga - bp, u)
    return ap * np.log(x) + (bp - ga) * np.log1p(x) + sc.betaln(bp + 1.0, ga - bp) + log_inc


def _hb2_outer(
    make_log_integrand: Callable[[float, float], Callable[[np.ndarray], np.ndarray]],
    probes: np.ndarray, f_stat: float, e: HbExponents, rel_tol: float, budget: int,
) -> tuple[float, float]:
    """(phi, psi) from three outer integrals over [0, f_stat] seeded by _geo_points.

    make_log_integrand(ap, bp) gives the log-integrand with residual exponent
    ap and location exponent bp; the common log shift is the maximum of the
    denominator's at f_stat * probes.
    """
    al, be = e.alpha_e, e.beta_e
    log_den = make_log_integrand(al, be)
    shift = float(np.max(log_den(f_stat * probes)))
    if not np.isfinite(shift):
        raise ArithmeticError("joint shrink-factor integrand underflowed everywhere")
    seeds = _geo_points(f_stat)

    def integrate(log_f: Callable[[np.ndarray], np.ndarray]) -> float:
        res = integrate_adaptive_1d(
            lambda x: np.exp(log_f(x) - shift), 0.0, f_stat,
            rel_tol=rel_tol, budget=budget, points=seeds,
        )
        if not res.converged:
            raise ArithmeticError(
                f"joint shrink-factor quadrature failed to converge "
                f"(error {res.error:.3e} after {res.evals} evaluations)"
            )
        return res.value

    den = integrate(log_den)
    if not den > 0.0:
        raise ArithmeticError("joint shrink-factor denominator underflowed to zero")
    phi = integrate(make_log_integrand(al + 1.0, be)) / den
    psi = integrate(make_log_integrand(al, be + 1.0)) / den
    return phi, psi


def _hb2_zero_tilt(
    f_stat: float, g_stat: float, e: HbExponents, rel_tol: float, budget: int
) -> tuple[float, float]:
    """(phi, psi) for zero precision tilt: the location integral is analytic.

    The inner integral over the location coordinate collapses to a
    regularized incomplete beta, leaving three one-dimensional outer
    integrals.
    """
    ga = e.gamma_e

    def make_log_integrand(ap: float, bp: float) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: _zero_tilt_log_integrand(x, g_stat / (1.0 + x + g_stat), ap, bp, ga)

    return _hb2_outer(make_log_integrand, _ZERO_TILT_PROBES, f_stat, e, rel_tol, budget)


def _hb2_zero_tilt_block(
    f_stat: np.ndarray, g_stat: np.ndarray, e: HbExponents, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """(phi, psi) of many regular zero-tilt points by one fixed rule; NaN where it misses.

    The rule is the GK15 on the 11 panels _hb2_zero_tilt starts from, so the
    nodes are f times _UNIT_NODES. Each point's log shift is the maximum of
    its denominator log-integrand over its nodes; it cancels in the ratios.
    Den and phi share one incomplete-beta sweep. A point is NaN when any of
    its three error estimates exceeds rel_tol * |value|, a value is not
    finite, or the denominator is not positive.
    """
    al, be, ga = e.alpha_e, e.beta_e, e.gamma_e
    x = f_stat[:, None, None] * _UNIT_NODES
    g = g_stat[:, None, None]
    u = g / (1.0 + x + g)
    with np.errstate(invalid="ignore", over="ignore"):
        log_inc = _log_betainc(be + 1.0, ga - be, u)
        logs = np.stack([
            _zero_tilt_log_integrand(x, u, al, be, ga, log_inc),
            _zero_tilt_log_integrand(x, u, al + 1.0, be, ga, log_inc),
            _zero_tilt_log_integrand(x, u, al, be + 1.0, ga),
        ])
        shift = np.max(logs[0], axis=(1, 2))
        fx = np.exp(logs - shift[:, None, None])
        vals, errs = _gk15_panels(fx, f_stat[:, None] * _UNIT_HALF)
    value, error = vals.sum(axis=-1), errs.sum(axis=-1)
    den, num_phi, num_psi = value
    ok = np.all(np.isfinite(value) & (error <= rel_tol * np.abs(value)), axis=0) & (den > 0.0)
    safe = np.where(ok, den, 1.0)
    return np.where(ok, num_phi / safe, np.nan), np.where(ok, num_psi / safe, np.nan)


def _inner_log_nodes(upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed composite GK15 nodes/weights on [0, upper], geometric toward 0."""
    edges = np.concatenate([[0.0], upper * _INNER_FRACTIONS])
    nodes, half = _panel_nodes(edges[:-1], edges[1:])
    weights = (half[:, None] * _GK_WEIGHTS[None, :]).reshape(-1)
    return nodes.reshape(-1), weights


def _hb2_pos_tilt(
    f_stat: float,
    g_stat: float,
    scale_sum: float,
    e: HbExponents,
    big_l: float,
    rel_tol: float,
    budget: int,
) -> tuple[float, float]:
    """(phi, psi) with a positive precision tilt.

    The precision integral reduces to a regularized upper incomplete gamma
    factor; the remaining double integral is handled by an adaptive outer
    rule over the residual coordinate with a fixed vectorized composite
    inner rule over the location coordinate (smooth integrand, geometric
    panels soak up the power singularity at zero).
    """
    ga = e.gamma_e
    z0 = 0.5 * big_l * scale_sum
    ys, yw = _inner_log_nodes(g_stat)
    log_ys = np.log(ys)
    log_yw = np.log(yw)

    def log_inner(x: np.ndarray, bp: float) -> np.ndarray:
        grid = 1.0 + x[:, None] + ys[None, :]
        with np.errstate(divide="ignore"):
            log_kernel = (
                bp * log_ys[None, :]
                - (ga + 1.0) * np.log(grid)
                + np.log(sc.gammaincc(ga + 1.0, z0 * grid))
                + log_yw[None, :]
            )
        peak = np.max(log_kernel, axis=1, keepdims=True)
        peak = np.where(np.isfinite(peak), peak, 0.0)
        total = np.sum(np.exp(log_kernel - peak), axis=1)
        with np.errstate(divide="ignore"):
            return peak[:, 0] + np.log(total)

    def make_log_integrand(ap: float, bp: float) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: ap * np.log(x) + log_inner(x, bp)

    return _hb2_outer(make_log_integrand, _POS_TILT_PROBES, f_stat, e, rel_tol, budget)


def _hb2_degenerate(
    f_stat: float,
    g_stat: float,
    scale_sum: float,
    e: HbExponents,
    big_l: float,
    rel_tol: float,
    budget: int,
    tol: Tolerances,
) -> tuple[float, float]:
    """Series limits of (phi, psi) when one or both statistics vanish."""
    al, be, ga = e.alpha_e, e.beta_e, e.gamma_e
    f_deg = f_stat <= tol.degenerate_stat
    g_deg = g_stat <= tol.degenerate_stat
    z0 = 0.5 * big_l * scale_sum

    def one_dim_ratio(upper: float, expo: float) -> float:
        """int x^(expo+1) K / int x^expo K over [0, upper], K the shared kernel."""
        if big_l == 0.0:
            log_num = _log_int_pow(upper, expo + 1.0, ga + 1.0)
            log_den = _log_int_pow(upper, expo, ga + 1.0)
            return float(np.exp(log_num - log_den))
        xs, xw = _inner_log_nodes(upper)
        with np.errstate(divide="ignore"):
            base = (
                expo * np.log(xs)
                - (ga + 1.0) * np.log1p(xs)
                + np.log(sc.gammaincc(ga + 1.0, z0 * (1.0 + xs)))
                + np.log(xw)
            )
        peak = float(np.max(base))
        if not np.isfinite(peak):
            raise ArithmeticError("degenerate-limit kernel underflowed everywhere")
        den = float(np.sum(np.exp(base - peak)))
        num = float(np.sum(xs * np.exp(base - peak)))
        return num / den

    if f_deg and g_deg:
        return f_stat * (al + 1.0) / (al + 2.0), g_stat * (be + 1.0) / (be + 2.0)
    if f_deg:
        # x ~ 0: phi follows its series, psi reduces to a 1-D ratio in y.
        phi = f_stat * (al + 1.0) / (al + 2.0)
        psi = one_dim_ratio(g_stat, be)
        return phi, psi
    # y ~ 0: psi follows its series, phi reduces to a 1-D ratio in x.
    psi = g_stat * (be + 1.0) / (be + 2.0)
    phi = one_dim_ratio(f_stat, al)
    return phi, psi


def hb2_factors(
    f_stat: float,
    g_stat: float,
    scale_sum: float,
    exponents: HbExponents,
    big_l: float = 0.0,
    rel_tol: float = DEFAULT.quad_rel,
    budget: int = DEFAULT.quad_budget,
    tol: Tolerances = DEFAULT,
) -> tuple[float, float]:
    """Joint shrink factors (phi, psi) of the second hierarchical estimator.

    phi scales the shrink toward the pooled mean, psi the shrink of the
    pooled mean toward zero. Both are ratios of truncated double integrals
    over the residual and location coordinates; with big_l == 0 the factors
    are free of scale_sum, with big_l > 0 an upper incomplete gamma tilt
    couples them to it.

    Args:
        f_stat: residual statistic, >= 0.
        g_stat: location statistic, >= 0.
        scale_sum: pooled scale statistic (only read when big_l > 0).
        exponents: integral exponents, see HbExponents.
        big_l: precision tilt rate, >= 0.
        rel_tol, budget: quadrature controls.
        tol: degenerate-statistic switch threshold.

    Returns:
        (phi, psi). phi is nondecreasing in both statistics, psi is
        nondecreasing in both, both approach exponents.limits() as the
        statistics grow, and for big_l == 0 neither depends on scale_sum.
        The monotonicity and the limits hold only within the quadrature's
        accepted error, about rel_tol relative: at the default 1e-6, phi
        can fall by about 1e-6 relative between two large f, or exceed its
        limit by a few 1e-7.
    """
    if f_stat < 0.0 or g_stat < 0.0:
        raise ValueError(f"statistics must be nonnegative, got ({f_stat}, {g_stat})")
    if not (math.isfinite(f_stat) and math.isfinite(g_stat)):
        raise ValueError(f"statistics must be finite, got ({f_stat}, {g_stat})")
    if big_l < 0.0:
        raise ValueError(f"big_l must be nonnegative, got {big_l}")
    if big_l > 0.0 and not scale_sum > 0.0:
        raise ValueError(f"scale_sum must be positive when big_l > 0, got {scale_sum}")
    f_stat = float(f_stat)
    g_stat = float(g_stat)
    if f_stat <= tol.degenerate_stat or g_stat <= tol.degenerate_stat:
        return _hb2_degenerate(
            f_stat, g_stat, scale_sum, exponents, big_l, rel_tol, budget, tol
        )
    if big_l == 0.0:
        return _hb2_zero_tilt(f_stat, g_stat, exponents, rel_tol, budget)
    return _hb2_pos_tilt(f_stat, g_stat, float(scale_sum), exponents, big_l, rel_tol, budget)


def hb2_shrink_ratios(
    f_stat,
    g_stat,
    scale_sum,
    exponents: HbExponents,
    big_l: float = 0.0,
    rel_tol: float = DEFAULT.quad_rel,
    budget: int = DEFAULT.quad_budget,
    tol: Tolerances = DEFAULT,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(phi/f, psi/g) with exact series limits at degenerate statistics.

    The statistics broadcast together; scalars give floats, arrays arrays.
    Regular zero-tilt points (big_l == 0, both statistics above
    tol.degenerate_stat, budget enough for the 165 nodes of the fixed rule)
    are computed together by _hb2_zero_tilt_block. Every other point, and
    every point that rule misses, goes through hb2_factors in index order;
    an ArithmeticError there is raised as ReplicateError naming that
    point's flat index, so the first one raised is the lowest failing.
    """
    f, g, s = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (f_stat, g_stat, scale_sum))
    )
    shape = f.shape
    f, g, s = f.ravel(), g.ravel(), s.ravel()
    phi, psi = np.full((2, f.size), np.nan)
    deg = tol.degenerate_stat
    if big_l == 0.0 and budget >= _UNIT_NODES.size:
        reg = np.flatnonzero((f > deg) & (g > deg))
        phi[reg], psi[reg] = _hb2_zero_tilt_block(f[reg], g[reg], exponents, rel_tol)
    for i in np.flatnonzero(np.isnan(phi)):
        try:
            phi[i], psi[i] = hb2_factors(
                f[i], g[i], s[i], exponents, big_l, rel_tol, budget, tol
            )
        except ArithmeticError as exc:
            raise ReplicateError(int(i), exc) from exc
    al, be = exponents.alpha_e, exponents.beta_e
    phi_ratio = np.where(f > deg, phi / np.where(f > deg, f, 1.0), (al + 1.0) / (al + 2.0))
    psi_ratio = np.where(g > deg, psi / np.where(g > deg, g, 1.0), (be + 1.0) / (be + 2.0))
    if not shape:
        return float(phi_ratio[0]), float(psi_ratio[0])
    return phi_ratio.reshape(shape), psi_ratio.reshape(shape)
