"""Special functions and quadrature for the hierarchical shrink factors.

The hierarchical Bayes estimators need ratios of incomplete-beta style
integrals (one-dimensional for the residual-only factor, two-dimensional for
the joint residual/location factor). Ratios are always formed in log space:
every integrand is evaluated as exp(log_integrand - shift) with a common
shift taken from the denominator, so extreme exponent combinations cannot
underflow the ratio even when the raw integrals would.

The hierarchical factors use no adaptive quadrature. Each factor has one
public array implementation, hb1_phi and hb2_factors (whose three
statistics broadcast together): a 0-d input gives a float, an array an
array of its shape, and an invalid statistic raises ValueError;
hb1_shrink_ratio and hb2_shrink_ratios divide their output by the
statistics. hb2_factors evaluates the joint factors of regular points (both
statistics above DEGENERATE_STAT) by one tensor Gauss-Jacobi rule (Golub
and Welsch, Math. Comp. 23, 1969): numpy's eigvalsh gives the eigenvalues
of the dense Jacobi matrix, and scipy.special's Newton step and weight
formula finish them into roots_jacobi's nodes and weights bit for bit, so
no command loads scipy.linalg (about 40 ms and 5-8 MB) for its banded
solver. The substitutions x = t/(1-t), t = T s and y = w(1+x)/(1-w),
w = U r take the box [0, f] x [0, g] to the unit square, where the weights
s^alpha_e and r^beta_e absorb the power singularities at zero; a positive
tilt adds one log incomplete-gamma term to the integrand. T and U are
capped where less than 1e-20 of every integral lies beyond, which for large
gamma_e (the kernel falls off over about 1/gamma_e) keeps the nodes where
the mass is. All points of an array run through the rule together on one
ladder of node counts per axis, 12, 20, 28, 40, 48, 80, 88, 160 and 168, in
chunks of as many cells as 64 points at 28 nodes, whose buffers stay in a
core's L2 cache. Every sum runs over one point's nodes alone, so a point's
values do not depend on the array or chunk it sits in. Without a tilt the
grid is summed unshifted, since the axis caps keep it far above underflow;
under a tilt each row of a point's grid is shifted by its first node, its
largest. Each round runs the next size on the points still missing and
accepts a point when its phi and psi are finite and agree within QUAD_REL
relative with its values at the size before; the point takes the larger
rule's values. That agreement is an acceptance test, not an error bound
(hb2_factors gives the worst miss measured). A point still missing after
the 168-node round fails with ArithmeticError, as "underflowed everywhere"
when its tilted integrand underflowed at every node of both of the last two
rules, else as "failed to converge". The call raises either as
ReplicateError naming the lowest failing flat index. Degenerate statistics
take exact series limits; with a tilt, the remaining 1-D ratio takes the
same rule with the vanishing statistic set to 0. Without a tilt it is the
closed-form ratio of truncated power integrals that hb1_phi also takes
(_power_ratio), and every ratio to a statistic switches to its limit at
DEGENERATE_STAT in one place (_per_stat).

integrate_adaptive_1d, which no factor calls, runs QUADPACK (Piessens et
al., 1983) through scipy.integrate.quad, imported on the first call so that
no command loads it. Integrands passed to it must be vectorized (ndarray
in, ndarray out) and are never evaluated at the endpoints, so integrable
endpoint singularities are fine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.special as sc

from .tolerances import DEGENERATE_STAT, QUAD_REL

__all__ = [
    "HbExponents",
    "QuadratureResult",
    "ReplicateError",
    "f_quantile",
    "integrate_adaptive_1d",
    "hb1_phi",
    "hb1_shrink_ratio",
    "hb2_factors",
    "hb2_shrink_ratios",
]

_TINY_LOG = 1e-300


def f_quantile(d1: float, d2: float, alpha: float) -> float:
    """Upper-alpha quantile of the F(d1, d2) distribution.

    If X ~ Beta(d1/2, d2/2) then (d2/d1) X / (1 - X) ~ F(d1, d2), so the
    quantile is (d2/d1) x / (1 - x) with P(X > x) = alpha. The inverse upper
    incomplete beta gives x, and the inverse lower one of the reflected
    Beta(d2/2, d1/2) gives 1 - x, both straight from alpha. No root finder
    is needed, and no 1 - alpha is formed, so a small alpha keeps its digits.
    """
    if not (d1 > 0.0 and d2 > 0.0 and math.isfinite(d1) and math.isfinite(d2)):
        raise ValueError(f"degrees of freedom must be positive and finite, got d1={d1}, d2={d2}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    a, b = 0.5 * d1, 0.5 * d2
    with np.errstate(divide="ignore", over="ignore"):
        q = float(d2 / d1 * sc.betainccinv(a, b, alpha) / sc.betaincinv(b, a, alpha))
    if not (math.isfinite(q) and q > 0.0):
        raise ArithmeticError(
            f"F quantile is not finite and positive: d1={d1}, d2={d2}, alpha={alpha} gives {q}"
        )
    return q


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


def integrate_adaptive_1d(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    budget: int = 1_000_000,
    points: Sequence[float] | None = None,
) -> QuadratureResult:
    """Integrate a vectorized callable over [lo, hi] adaptively.

    QUADPACK's qags, or qagp with breakpoints, through scipy.integrate.quad:
    Gauss-Kronrod 21(10) panels, worst-panel bisection and extrapolation.
    It stops once the error estimate drops below max(rel_tol, 50 eps) *
    |value| (QUADPACK refuses a smaller relative tolerance) or the evaluation
    budget runs out; converged says whether the estimate is at most
    rel_tol * |value|. f is called on one-element arrays and never at an
    endpoint.

    Args:
        f: vectorized integrand, ndarray in / ndarray out.
        lo, hi: integration limits, lo <= hi.
        rel_tol: relative stopping tolerance.
        budget: maximum integrand evaluations.
        points: optional breakpoints; those inside (lo, hi) seed the initial
            panels, useful when the mass sits far from the middle of the domain.
    """
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"limits must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError(f"upper limit {hi} below lower limit {lo}")
    if hi == lo:
        return QuadratureResult(0.0, 0.0, True, 0, 0)
    inner = sorted({float(t) for t in ([] if points is None else points) if lo < float(t) < hi})
    panels = len(inner) + 1
    if 21 * panels > budget:
        raise ValueError(f"budget {budget} cannot cover the {panels} initial panels")

    def scalar(x: float) -> float:
        (fx,) = np.asarray(f(np.array([x])), dtype=float)
        if not np.isfinite(fx):
            raise ValueError("integrand returned a non-finite value inside the domain")
        return float(fx)

    # Imported here, not at module level: scipy.integrate costs about 170 ms
    # and 26 MB and pulls in scipy.optimize and scipy.linalg, which no command needs.
    from scipy.integrate import quad

    # The initial panels cost 21 evaluations each and every bisection 42, so
    # a run ending with `limit` panels spends 42 * limit - 21 * panels.
    value, error, info = quad(
        scalar,
        lo,
        hi,
        full_output=1,
        epsabs=0.0,
        epsrel=max(50.0 * np.finfo(float).eps, rel_tol),
        limit=(budget + 21 * panels) // 42,
        points=inner or None,
    )[:3]
    return QuadratureResult(value, error, error <= rel_tol * abs(value), info["last"], info["neval"])


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


def _power_ratio(upper, num: float, den: float, mprime: float) -> np.ndarray:
    """int_0^upper x^num (1+x)^(-mprime) dx over the same with x^den; 0 at upper 0.

    Valid for num, den > -1 and mprime above both plus 1; the substitution
    w = x / (1+x) turns each integral into a regularized incomplete beta,
    and the ratio is formed in log space.
    """
    ua = np.asarray(upper, dtype=float)
    w = ua / (1.0 + ua)
    log_num, log_den = (
        sc.betaln(e + 1.0, mprime - e - 1.0) + _log_betainc(e + 1.0, mprime - e - 1.0, w)
        for e in (num, den)
    )
    with np.errstate(invalid="ignore"):
        out = np.exp(log_num - log_den)
    return np.where(ua > 0.0, out, 0.0)


def _as_output(values: np.ndarray) -> float | np.ndarray:
    """The public calls' one scalar rule: 0-d values as a float, others as they are."""
    return float(values) if values.ndim == 0 else values


def _per_stat(factor, stat, limit: float) -> float | np.ndarray:
    """factor / stat, and its series limit where stat is at most DEGENERATE_STAT."""
    stat = np.asarray(stat, dtype=float)
    regular = stat > DEGENERATE_STAT
    return _as_output(np.where(regular, factor / np.where(regular, stat, 1.0), limit))


def hb1_phi(
    f_stat, p: int, k: int, n: int, a: float, c: float, eig_floor: float
) -> float | np.ndarray:
    """Residual-shrink factor of the first hierarchical Bayes estimator.

    The factor is the ratio of two truncated power/beta integrals over
    [0, eig_floor * f_stat] (_power_ratio).

    Args:
        f_stat: residual statistic(s), finite and >= 0; a 0-d input gives
            a float, an array an array of its shape.
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
    if not math.isfinite(eig_floor):
        raise ValueError(f"eig_floor must be finite, got {eig_floor}")
    if not eig_floor > 0.0:
        raise ValueError(f"eig_floor must be positive, got {eig_floor}")
    fa = np.asarray(f_stat, dtype=float)
    if not np.all((fa >= 0.0) & (fa < np.inf)):
        raise ValueError("f_stat must be finite and nonnegative")
    big_m = 0.5 * (n + p * (k - 1)) + 1.0 - c
    return _as_output(_power_ratio(eig_floor * fa, m + a, m + a - 1.0, big_m))


def hb1_shrink_ratio(
    f_stat, p: int, k: int, n: int, a: float, c: float, eig_floor: float
) -> float | np.ndarray:
    """hb1_phi(f) / f, switching to the exact series limit for tiny f.

    As f -> 0 the ratio tends to eig_floor * (m+a)/(m+a+1) with
    m = p(k-1)/2; at or below DEGENERATE_STAT that limit is returned directly.
    """
    m = 0.5 * p * (k - 1)
    phi = hb1_phi(f_stat, p, k, n, a, c, eig_floor)
    return _per_stat(phi, f_stat, eig_floor * (m + a) / (m + a + 1.0))


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
    def from_model(cls, p: int, k: int, n: int, a: float, b: float, c: float) -> "HbExponents":
        return cls(
            alpha_e=0.5 * p * (k - 1) + a - 1.0,
            beta_e=0.5 * p + b - 1.0,
            gamma_e=0.5 * (n + p * k) - c,
        )

    def limits(self) -> tuple[float, float]:
        """Large-statistic limits of (phi, psi)."""
        gap = self.gamma_e - self.alpha_e - self.beta_e - 2.0
        return (self.alpha_e + 1.0) / gap, (self.beta_e + 1.0) / gap


# Node counts per axis of the HB2 rule, one new rule per round: each round
# compares a point's values with those of the size before. The pairs
# (20, 28), (40, 48), (80, 88) and (160, 168) are all consecutive.
_RULE_SIZES = (12, 20, 28, 40, 48, 80, 88, 160, 168)
# Points x nodes^2 that one _joint_rule call evaluates at most: 64 points at
# 28 nodes. Its two (R, n, n) buffers then take 0.8 MB together, which stays
# in a core's L2 cache between the passes.
_RULE_CELLS = 64 * 28**2
# Share of each HB2 integral that the rule may drop beyond its axis caps.
_TAIL_MASS = 1e-20
# _jacobi_rule divides its weights by 2^(expo + 1), which overflows a double
# from 2^1024 on.
_RULE_POWER_LIMIT = 1024.0


def _gauss_jacobi(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss rule for int_{-1}^1 (1+x)^b h(x) dx.

    The Golub-Welsch eigenvalues of the Jacobi matrix come from numpy's
    dense eigvalsh; the recurrence, the Newton step, the weight formula and
    the Legendre branch at b = 0 are scipy.special.roots_jacobi(n, 0, b)'s in
    its operation order, which gives its bits (tests/test_numerics.py pins
    them) without loading scipy.linalg for a banded solver.
    """
    k = np.arange(1, n, dtype="d")
    if b == 0.0:
        mu0, diag = 2.0, np.zeros(n)
        off = k * np.sqrt(1.0 / (4 * k * k - 1))
    else:
        if b <= 1000:
            mu0 = 2.0 ** (b + 1) * sc.beta(1.0, b + 1)
        else:
            mu0 = np.exp((b + 1) * np.log(2.0) + sc.betaln(1.0, b + 1))
        diag = np.concatenate(([b / (2 + b)], b * b / ((2.0 * k + b) * (2.0 * k + b + 2))))
        tail = np.sqrt(k * (k + b) / (2.0 * k + b - 1))
        tail[0] = 1.0
        off = 2.0 / (2.0 * k + b) * np.sqrt(k * (k + b) / (2 * k + b + 1)) * tail
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    if b == 0.0:
        y = sc.eval_legendre(n, x)
        dy = (-n * x * y + n * sc.eval_legendre(n - 1, x)) / (1 - x**2)
        x -= y / dy
        fm = sc.eval_legendre(n - 1, x)
    else:
        y = sc.eval_jacobi(n, 0.0, b, x)
        dy = 0.5 * (n + b + 1) * sc.eval_jacobi(n - 1, 1.0, b + 1, x)
        x -= y / dy
        fm = sc.eval_jacobi(n - 1, 0.0, b, x)
    # fm and dy span many decades: each is scaled to the middle of its log
    # range before the product.
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    if b == 0.0:
        w, x = (w + w[::-1]) / 2, (x - x[::-1]) / 2
    w *= mu0 / w.sum()
    return x, w


@functools.lru_cache(maxsize=128)
def _jacobi_rule(n: int, expo: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss rule for int_0^1 s^expo h(s) ds.

    _gauss_jacobi's rule on [-1, 1] (numpy's eigvalsh, then scipy.special's
    Newton step and weight formula) mapped by s = (x + 1)/2.
    """
    xi, wt = _gauss_jacobi(n, expo)
    nodes, weights = 0.5 * (xi + 1.0), wt / 2.0 ** (expo + 1.0)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=32)
def _axis_caps(e: HbExponents) -> tuple[float, float]:
    """Caps on t and w (see _joint_rule) past which every integral keeps under _TAIL_MASS.

    In t each integrand is t^al (1-t)^(ga-al-be-2) times x, 1 or 1+x and a
    factor that falls with t (the inner integral and the tilt); in w it is
    w^be (1-w)^(ga-be-1) times 1 or y/(1+x) and a falling factor. The
    heaviest tails are the Beta(al+2, ga-al-be-2) and Beta(be+2, ga-be-1)
    laws, and cutting each axis at their upper _TAIL_MASS quantile drops at
    most that share of every integral. For large ga the kernel falls off
    over about 1/ga, which the rule's nodes would miss on the whole box.
    """
    al, be, ga = e.alpha_e, e.beta_e, e.gamma_e
    return (
        float(sc.betainccinv(al + 2.0, ga - al - be - 2.0, _TAIL_MASS)),
        float(sc.betainccinv(be + 2.0, ga - be - 1.0, _TAIL_MASS)),
    )


def _joint_rule(
    n: int,
    f_stat: np.ndarray,
    g_stat: np.ndarray,
    z0: np.ndarray,
    e: HbExponents,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(phi, psi) of regular points by the n x n rule, stacked (2, R), and each point's peak.

    x = t/(1-t) with t = T s, T = min(f/(1+f), t_cap), and y = w(1+x)/(1-w)
    with w = U r, U = min(g/(1+x+g), w_cap), map the box [0, f] x [0, g],
    less the negligible tails past the caps of _axis_caps, onto the unit
    square, where the rule's weights s^alpha_e and r^beta_e absorb the
    power singularities at zero. The rest of the integrand is exp(A + B):
    the outer part A = (ga-al-be-2) log(1-t) + (be+1) log U lives on the
    (R, n) s nodes, the inner part B = (ga-be-1) log(1-w), plus
    log Q(ga+1, z0 (1+x)/(1-w)) under a tilt (z0 > 0), on the (R, n, n)
    grid. Every factor of exp(B) falls as r grows, so each grid row (one
    point and s node) is largest at its first r node. With zero tilt the
    axis caps keep B far above underflow (above -65 for p <= 12, k <= 50,
    n <= 20,000), and the grid is not shifted. Under a tilt
    each row is shifted by its first-node value and the value joins A (a
    row whose first node is -inf is shifted by 0 and adds nothing, since
    its A is then -inf). exp(B) is summed over r first; exp(A - peak) then
    weights those sums over s, where a point's peak is its largest A after
    the shift. Under a tilt that is the largest value of A + B on its
    grid, and a peak of -inf means the integrand underflowed at every
    node. The factor T^(al+1) and the peak cancel in the ratios. Every sum
    runs over one point's nodes alone, so a point's values do not depend
    on the other points of the call.

    work holds two (three under a tilt) (m, n, n) buffers, m at least R,
    that the rule overwrites.
    """
    al, be, ga = e.alpha_e, e.beta_e, e.gamma_e
    t_cap, w_cap = _axis_caps(e)
    s, s_wt = _jacobi_rule(n, al)
    r, r_wt = _jacobi_rule(n, be)
    t = np.minimum(f_stat / (1.0 + f_stat), t_cap)[:, None] * s
    x = t / (1.0 - t)
    u = np.minimum(g_stat[:, None] / (1.0 + x + g_stat[:, None]), w_cap)
    outer = (ga - al - be - 2.0) * np.log1p(-t) + (be + 1.0) * np.log(u)
    # Two (R, n, n) buffers: 1-w, turned into B and then into exp(B - shift);
    # and w, turned into y/(1+x) = w/(1-w) and then into y/(1+x) exp(B - shift).
    # A tilt uses a third.
    grid = work[:2, : f_stat.size]
    kernel, y_x = grid
    np.multiply(u[:, :, None], r, out=y_x)
    np.subtract(1.0, y_x, out=kernel)
    y_x /= kernel
    np.log(kernel, out=kernel)
    kernel *= ga - be - 1.0
    if z0.any():
        tail = np.add(y_x, 1.0, out=work[2, : f_stat.size])
        with np.errstate(over="ignore", divide="ignore"):  # Q of an infinite tail is 0
            tail *= (z0[:, None] * (1.0 + x))[:, :, None]
            kernel += np.log(sc.gammaincc(ga + 1.0, tail, out=tail), out=tail)
        del tail
        shift = kernel[:, :, 0].copy()
        outer += shift
        shift[shift == -np.inf] = 0.0
        kernel -= shift[:, :, None]
    np.exp(kernel, out=kernel)
    y_x *= kernel
    inner, inner_y = np.einsum("cpij,j->cpi", grid, r_wt)
    peak = outer.max(axis=1)
    with np.errstate(invalid="ignore"):
        weight = np.exp(outer - peak[:, None])
        terms = np.stack([inner * x, inner_y * (1.0 + x), inner])
        terms *= weight
        phi_psi_den = np.einsum("cpi,i->cp", terms, s_wt)
        return phi_psi_den[:2] / phi_psi_den[2], peak


def _rule_round(
    n: int, f: np.ndarray, g: np.ndarray, z0: np.ndarray, e: HbExponents
) -> tuple[np.ndarray, np.ndarray]:
    """_joint_rule over all points, in blocks of at most _RULE_CELLS // n^2 points.

    The blocks share one set of work buffers, so a round allocates them once.
    """
    step = max(1, _RULE_CELLS // n**2)
    work = np.empty((3 if z0.any() else 2, min(step, f.size), n, n))
    values, peak = np.empty((2, f.size)), np.empty(f.size)
    for i in range(0, f.size, step):
        chunk = slice(i, i + step)
        values[:, chunk], peak[chunk] = _joint_rule(n, f[chunk], g[chunk], z0[chunk], e, work)
    return values, peak


def _by_rule(
    e: HbExponents,
    f: np.ndarray,
    g: np.ndarray,
    z0: np.ndarray,
    what: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(phi, psi) of the points where two consecutive rules of _RULE_SIZES agree.

    Each round runs the next size on the points still missing only, and
    compares it with their values at the size before (NaN before the
    first, so the first round misses). A point is accepted when both are
    finite and agree within QUAD_REL relative. A point still missing after
    the last round fails with "underflowed everywhere" when both of the
    last two rules underflowed at every node, else with "failed to
    converge". Returns each point's values at the last size it ran (the
    accepted ones where it was accepted) and its failure message (""
    where it was accepted).
    """
    todo = np.arange(f.size)
    values = np.full((2, f.size), np.nan)
    peaks = np.full(f.size, np.nan)
    errors = np.full(f.size, "", dtype=object)
    under = np.zeros(f.size, dtype=bool)
    for n in _RULE_SIZES:
        if not todo.size:
            break
        new, peak = _rule_round(n, f[todo], g[todo], z0[todo], e)
        with np.errstate(invalid="ignore"):
            gap = np.abs(new - values[:, todo])
            ok = np.all(np.isfinite(new) & (gap <= QUAD_REL * np.abs(new)), axis=0)
        under = (peak == -np.inf) & (peaks[todo] == -np.inf)
        values[:, todo], peaks[todo] = new, peak
        todo, under = todo[~ok], under[~ok]
    errors[todo[under]] = f"{what} integrand underflowed everywhere"
    errors[todo[~under]] = (
        f"{what} quadrature failed to converge with {_RULE_SIZES[-1]} nodes per axis"
    )
    return values, errors


def _check_statistics(f: np.ndarray, g: np.ndarray, s: np.ndarray, big_l: float) -> None:
    """Raise the ValueError of the lowest invalid point, as a one-point call would."""
    if not math.isfinite(big_l):
        raise ValueError(f"big_l must be finite, got {big_l}")
    if big_l < 0.0:
        raise ValueError(f"big_l must be >= 0, got {big_l}")
    ok = (f >= 0.0) & (g >= 0.0) & np.isfinite(f) & np.isfinite(g)
    if big_l > 0.0:
        ok &= s > 0.0
    if ok.all():
        return
    i = int(np.argmin(ok))
    fi, gi = float(f[i]), float(g[i])
    if fi < 0.0 or gi < 0.0:
        raise ValueError(f"statistics must be nonnegative, got ({fi}, {gi})")
    if not (math.isfinite(fi) and math.isfinite(gi)):
        raise ValueError(f"statistics must be finite, got ({fi}, {gi})")
    raise ValueError(f"scale_sum must be positive when big_l > 0, got {float(s[i])}")


def hb2_factors(
    f_stat,
    g_stat,
    scale_sum,
    exponents: HbExponents,
    big_l: float = 0.0,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Joint shrink factors (phi, psi) of the second hierarchical estimator.

    phi scales the shrink toward the pooled mean, psi the shrink of the
    pooled mean toward zero. Both are ratios of truncated double integrals
    over the residual and location coordinates; with big_l == 0 the factors
    are free of scale_sum, with big_l > 0 an upper incomplete gamma tilt
    couples them to it. The statistics broadcast together; 0-d inputs give
    floats, arrays arrays of the broadcast shape. Regular points take the
    Gauss-Jacobi rule (see the module docstring) all together; where a
    statistic is at most DEGENERATE_STAT, its factor takes the series
    limit. A point's values do not depend on the other points of the call.

    Args:
        f_stat: residual statistic(s), finite and >= 0.
        g_stat: location statistic(s), finite and >= 0.
        scale_sum: pooled scale statistic(s) (only read when big_l > 0,
            where they must be positive).
        exponents: integral exponents, see HbExponents.
        big_l: precision tilt rate, finite and >= 0.

    Returns:
        (phi, psi). phi is nondecreasing in both statistics, psi is
        nondecreasing in both, both approach exponents.limits() as the
        statistics grow, and for big_l == 0 neither depends on scale_sum.
        The monotonicity and the limits hold only within the rule's error.
        Agreement of two consecutive rule sizes within QUAD_REL = 1e-6 is
        the rule's acceptance test, not a bound on that error: in a sweep
        at big_l 2 (scale sums 1 and 750, p up to 12, k up to 50, n 1 to
        20,000, f and g from 1e-3 to 1e4), 27 of 11,400 accepted points
        differed from a 320-node rule by more than 1e-6 relative, the
        worst by 1.07e-5.

    Raises:
        ValueError for the lowest invalid point, or when the exponents are
        too large for the rule's weights, before any rule runs.
        ReplicateError (an ArithmeticError) naming the lowest failing flat
        index when the rule fails to converge there or the tilted
        integrand underflows everywhere.
    """
    f, g, s = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (f_stat, g_stat, scale_sum))
    )
    shape = f.shape
    f, g, s = f.ravel(), g.ravel(), s.ravel()
    _check_statistics(f, g, s, big_l)
    al, be, ga = exponents.alpha_e, exponents.beta_e, exponents.gamma_e
    if not max(al, be) + 1.0 < _RULE_POWER_LIMIT:
        raise ValueError(
            "the HB2 rule needs p(k-1)/2 + a and p/2 + b below "
            f"{_RULE_POWER_LIMIT:g}, got {al + 1.0:g} and {be + 1.0:g}"
        )
    f_deg = f <= DEGENERATE_STAT
    g_deg = g <= DEGENERATE_STAT
    # An overflow here reaches no result: an infinite tilt underflows
    # everywhere in the rule, and phi and psi are kept at degenerate points.
    with np.errstate(over="ignore"):
        z0 = 0.5 * big_l * s if big_l > 0.0 else np.zeros_like(f)
        phi = f * (al + 1.0) / (al + 2.0)
        psi = g * (be + 1.0) / (be + 2.0)
    errors = np.full(f.size, "", dtype=object)
    reg = np.flatnonzero(~f_deg & ~g_deg)
    (phi[reg], psi[reg]), errors[reg] = _by_rule(
        exponents, f[reg], g[reg], z0[reg], "joint shrink-factor"
    )
    # With one statistic degenerate, the other factor is a 1-D ratio at the
    # vanishing coordinate: a closed form with zero tilt, else the rule with
    # that statistic at 0 (x and y swap roles when g vanishes).
    for edge, stat, factor, expo, roles in (
        (f_deg & ~g_deg, g, psi, be, exponents),
        (g_deg & ~f_deg, f, phi, al, HbExponents(be, al, ga)),
    ):
        idx = np.flatnonzero(edge)
        if not idx.size:
            continue
        if big_l == 0.0:
            factor[idx] = _power_ratio(stat[idx], expo + 1.0, expo, ga + 1.0)
        else:
            (_, factor[idx]), errors[idx] = _by_rule(
                roles, np.zeros(idx.size), stat[idx], z0[idx], "degenerate-limit"
            )
    failed = np.flatnonzero(errors != "")
    if failed.size:
        raise ReplicateError(int(failed[0]), ArithmeticError(errors[failed[0]]))
    return _as_output(phi.reshape(shape)), _as_output(psi.reshape(shape))


def hb2_shrink_ratios(
    f_stat,
    g_stat,
    scale_sum,
    exponents: HbExponents,
    big_l: float = 0.0,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(phi/f, psi/g) of hb2_factors, with exact series limits at degenerate statistics.

    Broadcasting, the scalar rule and the failures are those of hb2_factors.
    """
    phi, psi = hb2_factors(f_stat, g_stat, scale_sum, exponents, big_l)
    al, be = exponents.alpha_e, exponents.beta_e
    return (
        _per_stat(phi, f_stat, (al + 1.0) / (al + 2.0)),
        _per_stat(psi, g_stat, (be + 1.0) / (be + 2.0)),
    )
