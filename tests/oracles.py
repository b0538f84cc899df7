"""Slow, independent numerical oracles used to pin the fast routines.

Everything here is deliberately primitive: midpoint Riemann sums, plain
bisection, binomial tail sums, closed forms fed to scipy's own QUADPACK.
Nothing imports from the package under test, so agreement between the two
is evidence, not circularity.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.integrate import quad
from scipy.special import beta, betainc, gammaincc


def riemann_midpoint(f, lo: float, hi: float, panels: int) -> float:
    """Midpoint rule with equal panels, evaluated in one vectorized pass."""
    h = (hi - lo) / panels
    x = lo + (np.arange(panels) + 0.5) * h
    return float(np.sum(f(x)) * h)


def hb1_phi_riemann(
    f_stat: float,
    p: int,
    k: int,
    n: int,
    a: float,
    c: float,
    eig_floor: float = 1.0,
    panels: int = 1_000_000,
) -> float:
    """Ratio of two truncated power-law integrals, by brute midpoint sums.

    numerator integrand x^(m + a) (1+x)^(-M), denominator one power of x
    lower, both on (0, eig_floor * f_stat), with m = p(k-1)/2 and
    M = (n + p(k-1))/2 + 1 - c. The midpoint grid is graded by the cubic
    map x = upper * t^3 so that resolution piles up near zero, where the
    mass sits whenever the truncation point is far into the tail; a
    uniform grid needs orders of magnitude more panels there.
    """
    m = 0.5 * p * (k - 1)
    big_m = 0.5 * (n + p * (k - 1)) + 1.0 - c
    upper = eig_floor * f_stat

    t = (np.arange(panels) + 0.5) / panels
    x = upper * t**3
    jac = 3.0 * upper * t**2 / panels
    den = x ** (m + a - 1.0) * (1.0 + x) ** (-big_m) * jac
    return float(np.sum(den * x) / np.sum(den))


def f_quantile_bisect(d1: int, d2: int, alpha: float, tol: float = 1e-12) -> float:
    """Upper-alpha F quantile by bisecting the scipy.stats CDF."""
    target = 1.0 - alpha
    lo, hi = 0.0, 1.0
    while stats.f.cdf(hi, d1, d2) < target:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if stats.f.cdf(mid, d1, d2) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binom_tail_inc_beta(a: int, b: int, x: float) -> float:
    """Regularized incomplete beta for integer parameters.

    I_x(a, b) equals the probability of at least a successes in a+b-1
    Bernoulli(x) trials, a finite sum with no special functions.
    """
    m = a + b - 1
    return float(
        sum(math.comb(m, j) * x**j * (1.0 - x) ** (m - j) for j in range(a, m + 1))
    )


def _hb2_box_sums(
    f_stat: float,
    g_stat: float,
    scale_sum: float,
    alpha_e: float,
    beta_e: float,
    gamma_e: float,
    big_l: float,
    nx: int,
    ny: int,
) -> tuple[float, float, float]:
    """Midpoint sums of the three box integrals behind the double shrink.

    Integrates x^e y^e' (1+x+y)^(-(gamma+1)) over (0,F) x (0,G), tilted by
    the regularized upper gamma tail when the lower scale cut is positive.
    The quadratic substitution x = F t^2 grades the mesh toward the origin
    where the power-law factors are steepest.
    """
    tx = (np.arange(nx) + 0.5) / nx
    ty = (np.arange(ny) + 0.5) / ny
    x = f_stat * tx**2
    y = g_stat * ty**2
    jac_x = 2.0 * f_stat * tx / nx
    jac_y = 2.0 * g_stat * ty / ny
    den_x = x**alpha_e * jac_x
    den_y = y**beta_e * jac_y
    num_x = x ** (alpha_e + 1.0) * jac_x

    den = num_phi = num_psi = 0.0
    chunk = 256
    for start in range(0, nx, chunk):
        sl = slice(start, start + chunk)
        base = 1.0 + x[sl, None] + y[None, :]
        w = base ** -(gamma_e + 1.0)
        if big_l > 0.0:
            w = w * gammaincc(gamma_e + 1.0, 0.5 * big_l * scale_sum * base)
        den += den_x[sl] @ w @ den_y
        num_phi += num_x[sl] @ w @ den_y
        num_psi += den_x[sl] @ w @ (den_y * y)
    return num_phi, num_psi, den


def hb2_factors_riemann(
    f_stat: float,
    g_stat: float,
    scale_sum: float,
    p: int,
    k: int,
    n: int,
    a: float,
    b: float,
    c: float,
    big_l: float = 0.0,
    base_n: int = 1200,
) -> tuple[float, float]:
    """Double-shrink factors by graded midpoint sums with one Richardson step.

    The midpoint error is O(h^2) in the graded coordinate, so combining
    meshes of base_n and 2 * base_n points per axis cancels the leading
    term.
    """
    alpha_e = 0.5 * p * (k - 1) + a - 1.0
    beta_e = 0.5 * p + b - 1.0
    gamma_e = 0.5 * (n + p * k) - c
    coarse = _hb2_box_sums(
        f_stat, g_stat, scale_sum, alpha_e, beta_e, gamma_e, big_l, base_n, base_n
    )
    fine = _hb2_box_sums(
        f_stat, g_stat, scale_sum, alpha_e, beta_e, gamma_e, big_l, 2 * base_n, 2 * base_n
    )
    num_phi, num_psi, den = ((4.0 * fv - cv) / 3.0 for fv, cv in zip(fine, coarse))
    return num_phi / den, num_psi / den


def hb2_factors_closed_inner(
    f_stat: float,
    g_stat: float,
    p: int,
    k: int,
    n: int,
    a: float,
    b: float,
    c: float,
) -> tuple[float, float]:
    """Zero-tilt double-shrink factors with the inner integral in closed form.

    Substituting y = (1+x) u and then w = u / (1+u) gives
    int_0^G y^(beta+j) (1+x+y)^(-gamma-1) dy
    = (1+x)^(beta+j-gamma) B(beta+j+1, gamma-beta-j) I_{G/(1+x+G)}(beta+j+1, gamma-beta-j).
    scipy.integrate.quad then takes the outer integral of x^(alpha+i) times
    that over (0, F) at relative tolerance 1e-13 and no absolute one (the
    integrals can be far below 1).
    """
    alpha_e = 0.5 * p * (k - 1) + a - 1.0
    beta_e = 0.5 * p + b - 1.0
    gamma_e = 0.5 * (n + p * k) - c

    def integrand(x, i, j):
        shape = (beta_e + j + 1.0, gamma_e - beta_e - j)
        return (
            x ** (alpha_e + i)
            * (1.0 + x) ** (beta_e + j - gamma_e)
            * beta(*shape)
            * betainc(*shape, g_stat / (1.0 + x + g_stat))
        )

    def outer(i, j):
        value, _ = quad(integrand, 0.0, f_stat, args=(i, j), epsabs=0.0, epsrel=1e-13)
        return value

    den = outer(0, 0)
    return outer(1, 0) / den, outer(0, 1) / den
