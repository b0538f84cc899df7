"""Special functions, quadrature, and the hierarchical shrink factors."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import oracles
from kshrink import montecarlo, numerics
from kshrink.model import TrueParameters
from kshrink.montecarlo import ExperimentConfig
from kshrink.numerics import (
    HbExponents,
    ReplicateError,
    f_quantile,
    hb1_phi,
    hb1_shrink_ratio,
    hb2_factors,
    hb2_shrink_ratios,
    integrate_adaptive_1d,
)
from kshrink.tolerances import DEGENERATE_STAT, QUAD_REL


class TestFQuantile:
    def test_known_table_values(self):
        assert f_quantile(20, 20, 0.05) == approx(2.1241552129069217, rel=1e-10)
        assert f_quantile(3, 10, 0.05) == approx(3.7082650441578987, rel=1e-6)

    def test_median_of_symmetric_case(self):
        # F(d, d) has median exactly 1.
        for d in (1, 4, 19, 60):
            assert f_quantile(d, d, 0.5) == approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "d1,d2,alpha", [(20, 20, 0.05), (3, 10, 0.05), (1, 7, 0.2), (40, 12, 0.01)]
    )
    def test_against_bisection_oracle(self, d1, d2, alpha):
        assert f_quantile(d1, d2, alpha) == approx(
            oracles.f_quantile_bisect(d1, d2, alpha), rel=1e-9
        )

    def test_round_trip_through_cdf(self):
        # The quantile plugged back into the beta-form CDF recovers 1-alpha.
        d1, d2, alpha = 7, 23, 0.1
        q = f_quantile(d1, d2, alpha)
        cdf = sc.betainc(d1 / 2.0, d2 / 2.0, d1 * q / (d1 * q + d2))
        assert cdf == approx(1.0 - alpha, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            f_quantile(0, 10, 0.05)
        with pytest.raises(ValueError):
            f_quantile(10, 10, 0.0)
        with pytest.raises(ValueError):
            f_quantile(10, 10, 1.0)
        for d1, d2 in ((math.inf, 10), (10, math.inf), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="positive and finite"):
                f_quantile(d1, d2, 0.05)

    @pytest.mark.parametrize("d2", [1, 7])
    def test_closed_form_for_two_numerator_degrees(self, d2):
        # F(2, d2) has upper tail (1 + 2q/d2)^(-d2/2), so q = d2/2 (alpha^(-2/d2) - 1).
        alpha = 1e-6
        exact = 0.5 * d2 * math.expm1(-2.0 / d2 * math.log(alpha))
        assert f_quantile(2, d2, alpha) == approx(exact, rel=1e-12)

    def test_upper_tail_recovers_alpha_over_a_grid(self):
        # 567 points; a small alpha must keep its digits, not cancel against 1.
        misses = []
        for d1 in (1, 2, 3, 5, 10, 100, 1000, 10**4, 10**5):
            for d2 in (1, 2, 5, 30, 1000, 10**5, 10**6):
                for alpha in (1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999):
                    tail = sc.fdtrc(d1, d2, f_quantile(d1, d2, alpha))
                    if abs(tail - alpha) > 1e-9 * alpha:
                        misses.append((d1, d2, alpha, tail))
        assert misses == []

    @pytest.mark.parametrize(
        "d1,d2,alpha",
        [(2, 1e-3, 0.5), (1e-3, 2, 0.999)],
        ids=["overflows", "underflows"],
    )
    def test_result_outside_the_floats_raises(self, d1, d2, alpha):
        # The exact quantiles, about 6e598 and 2e-5997, lie outside the doubles.
        with pytest.raises(ArithmeticError, match="not finite and positive"):
            f_quantile(d1, d2, alpha)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        # QUADPACK's 21-point Kronrod rule integrates low-degree polynomials exactly.
        res = integrate_adaptive_1d(lambda x: 3.0 * x**2, 0.0, 1.0)
        assert res.converged
        assert res.value == approx(1.0, abs=1e-14)

    def test_inverse_sqrt_singularity(self):
        res = integrate_adaptive_1d(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert res.converged
        assert res.value == approx(2.0, rel=1e-9)

    def test_against_riemann_oracle(self):
        def f(x):
            return x**1.5 * (1.0 + x) ** -8.0

        res = integrate_adaptive_1d(f, 0.0, 10.0, rel_tol=1e-12)
        slow = oracles.riemann_midpoint(f, 0.0, 10.0, 2_000_000)
        assert res.converged
        assert res.value == approx(slow, rel=1e-8)

    def test_interior_points_help_spiky_integrand(self):
        # A narrow bump at 1e-4 is invisible to the first panel unless a
        # seed point lands near it. Points outside (lo, hi), the endpoints
        # included, are dropped rather than refused.
        def bump(x):
            return np.exp(-(((x - 1e-4) / 1e-5) ** 2))

        exact = 1e-5 * math.sqrt(math.pi)
        res = integrate_adaptive_1d(bump, 0.0, 1.0, points=[-0.5, 0.0, 1e-4, 1e-3, 1.0, 2.0])
        assert res.converged
        assert res.value == approx(exact, rel=1e-6)

    def test_budget_exhaustion_reports_not_converged(self):
        res = integrate_adaptive_1d(
            lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-15),
            0.0,
            1.0,
            rel_tol=1e-15,
            budget=500,
        )
        assert not res.converged
        assert res.evals <= 500

    def test_budget_holds_with_breakpoints(self):
        # Two breakpoints give three initial panels of 21 evaluations each;
        # every bisection then costs 42.
        def spike(x):
            return 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-15)

        for budget in (63, 104, 105, 500):
            res = integrate_adaptive_1d(spike, 0.0, 1.0, rel_tol=1e-15, budget=budget,
                                        points=[0.5, 0.9])
            assert not res.converged
            assert 63 <= res.evals <= budget
        with pytest.raises(ValueError, match="cannot cover the 3 initial panels"):
            integrate_adaptive_1d(spike, 0.0, 1.0, budget=62, points=[0.5, 0.9])

    def test_tolerance_below_quadpack_floor_reports_not_converged(self):
        # QUADPACK accepts no relative tolerance below 50 eps; a smaller one
        # runs at that floor and is then judged as asked.
        res = integrate_adaptive_1d(lambda x: 3.0 * x**2, 0.0, 1.0, rel_tol=1e-16)
        assert not res.converged
        assert res.value == approx(1.0, abs=1e-14)
        assert res.error > 1e-16

    def test_non_finite_integrand_raises(self):
        def bad(x):
            out = np.asarray(x, dtype=float).copy()
            out[out < 0.5] = np.nan
            return out

        with pytest.raises(ValueError, match="non-finite value inside the domain"):
            integrate_adaptive_1d(bad, 0.0, 1.0)

    def test_empty_interval(self):
        res = integrate_adaptive_1d(lambda x: x, 2.0, 2.0)
        assert res.value == 0.0
        assert res.converged


class TestHb1Phi:
    def test_zero_at_origin(self):
        assert hb1_phi(0.0, 5, 5, 20, 0.1, 0.1, 1.0) == 0.0

    def test_large_f_limit(self):
        # As the statistic grows the factor approaches
        # (p(k-1) + 2a) / (n - 2(a+c)): 20.2/19.6 at the default constants.
        assert hb1_phi(1e9, 5, 5, 20, 0.1, 0.1, 1.0) == approx(
            1.0306122448979593, rel=1e-9
        )

    def test_matches_riemann_oracle(self):
        for f, p, k, n, a, c in [
            (0.25, 5, 5, 20, 0.1, 0.1),
            (2.0, 3, 2, 10, 0.3, 0.2),
            (40.0, 4, 3, 15, 0.05, 0.4),
        ]:
            slow = oracles.hb1_phi_riemann(f, p, k, n, a, c, panels=2_000_000)
            assert hb1_phi(f, p, k, n, a, c, 1.0) == approx(slow, rel=1e-8)

    def test_eig_floor_rescales_truncation(self):
        # Scaling the floor is the same as scaling the statistic.
        assert hb1_phi(2.0, 5, 5, 20, 0.1, 0.1, 0.5) == approx(
            hb1_phi(1.0, 5, 5, 20, 0.1, 0.1, 1.0), rel=1e-12
        )

    def test_monotone_in_f(self):
        f = np.linspace(1e-3, 20.0, 300)
        vals = hb1_phi(f, 5, 5, 20, 0.1, 0.1, 1.0)
        assert np.all(np.diff(vals) > 0.0)

    def test_bounded_when_checker_passes(self):
        # Whenever the sufficient conditions hold, the factor stays within
        # (0, 2(p(k-1)-2)/(n+2)].
        from kshrink.risk import check_hb1_conditions

        rng = np.random.default_rng(42)
        for _ in range(25):
            p = int(rng.integers(2, 7))
            k = int(rng.integers(2, 6))
            n = int(rng.integers(6, 40))
            a = float(rng.uniform(0.01, 1.0))
            c = float(rng.uniform(0.01, 1.0))
            if not check_hb1_conditions(a, c, p, k, n).minimax:
                continue
            f = rng.uniform(1e-4, 100.0, size=64)
            vals = hb1_phi(f, p, k, n, a, c, 1.0)
            bound = 2.0 * (p * (k - 1) - 2.0) / (n + 2.0)
            assert np.all(vals > 0.0)
            assert np.all(vals <= bound * (1.0 + 1e-12))

    def test_shrink_ratio_series_limit(self):
        # phi/F tends to (m+a)/(m+a+1) as F -> 0; the default constants
        # give 10.1/11.1.
        assert hb1_shrink_ratio(0.0, 5, 5, 20, 0.1, 0.1, 1.0) == approx(0.9099099099099099)
        assert hb1_shrink_ratio(1e-13, 5, 5, 20, 0.1, 0.1, 1.0) == approx(0.9099099099099099)
        # Continuity across the series switch.
        just_above = hb1_shrink_ratio(2e-10, 5, 5, 20, 0.1, 0.1, 1.0)
        assert just_above == approx(0.9099099099099099, rel=1e-9)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            hb1_phi(1.0, 5, 5, 20, 5.0, 6.0, 1.0)  # a + c >= n/2
        with pytest.raises(ValueError):
            hb1_phi(-1.0, 5, 5, 20, 0.1, 0.1, 1.0)

    @pytest.mark.parametrize("call", [hb1_phi, hb1_shrink_ratio])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_statistic_is_invalid(self, call, bad):
        # hb1_shrink_ratio reads hb1_phi's check, not a stand-in statistic.
        for f in (bad, np.array([0.5, bad])):
            with pytest.raises(ValueError, match="f_stat must be finite and nonnegative"):
                call(f, 5, 5, 20, 0.1, 0.1, 1.0)

    @pytest.mark.parametrize("call", [hb1_phi, hb1_shrink_ratio])
    @pytest.mark.parametrize(
        "eig_floor,match",
        [(0.0, "positive"), (-1.0, "positive"), (math.nan, "finite"), (math.inf, "finite")],
    )
    def test_nonpositive_or_non_finite_eig_floor_is_invalid(self, call, eig_floor, match):
        for f in (1.0, np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match=f"eig_floor must be {match}"):
                call(f, 5, 5, 20, 0.1, 0.1, eig_floor)


class TestHbExponents:
    def test_from_model(self):
        e = HbExponents.from_model(5, 5, 20, 0.1, 0.1, 0.1)
        assert e.alpha_e == approx(9.1)
        assert e.beta_e == approx(1.6)
        assert e.gamma_e == approx(22.4)

    def test_limits_anchor(self):
        e = HbExponents.from_model(5, 5, 20, 0.1, 0.1, 0.1)
        phi_lim, psi_lim = e.limits()
        assert phi_lim == approx(1.041237113402062, rel=1e-12)
        assert psi_lim == approx(0.2680412371134021, rel=1e-12)

    def test_integrability_guards(self):
        with pytest.raises(ValueError):
            HbExponents(alpha_e=-1.0, beta_e=0.0, gamma_e=10.0)
        with pytest.raises(ValueError):
            HbExponents(alpha_e=0.0, beta_e=-1.5, gamma_e=10.0)
        with pytest.raises(ValueError):
            HbExponents(alpha_e=4.0, beta_e=4.0, gamma_e=10.0)


BENCH = HbExponents.from_model(5, 5, 20, 0.1, 0.1, 0.1)


class TestHb2Factors:
    def test_matches_riemann_oracle_zero_tilt(self, monkeypatch):
        monkeypatch.setattr(numerics, "QUAD_REL", 1e-10)
        for f, g in [(0.8, 0.5), (5.0, 2.0)]:
            slow_phi, slow_psi = oracles.hb2_factors_riemann(
                f, g, 1.0, 5, 5, 20, 0.1, 0.1, 0.1
            )
            phi, psi = hb2_factors(f, g, 1.0, BENCH)
            assert phi == approx(slow_phi, rel=1e-9)
            assert psi == approx(slow_psi, rel=1e-9)

    def test_matches_riemann_oracle_positive_tilt(self):
        phi, psi = hb2_factors(0.8, 0.5, 25.0, BENCH, big_l=2.0)
        slow_phi, slow_psi = oracles.hb2_factors_riemann(
            0.8, 0.5, 25.0, 5, 5, 20, 0.1, 0.1, 0.1, big_l=2.0
        )
        assert phi == approx(slow_phi, rel=1e-7)
        assert psi == approx(slow_psi, rel=1e-7)

    def test_large_statistic_limits(self):
        phi, psi = hb2_factors(1e6, 1e6, 1.0, BENCH)
        lim_phi, lim_psi = BENCH.limits()
        assert phi == approx(lim_phi, rel=1e-4)
        assert psi == approx(lim_psi, rel=1e-4)

    def test_scale_free_without_tilt(self):
        # With no lower truncation the scale statistic cancels exactly.
        a = hb2_factors(1.3, 0.7, 1.0, BENCH)
        b = hb2_factors(1.3, 0.7, 1e4, BENCH)
        assert a == b

    def test_tilt_decreases_with_scale(self):
        vals = [hb2_factors(1.3, 0.7, s, BENCH, big_l=2.0) for s in (10.0, 20.0, 40.0)]
        phis = [v[0] for v in vals]
        psis = [v[1] for v in vals]
        assert phis[0] > phis[1] > phis[2]
        assert psis[0] > psis[1] > psis[2]

    def test_monotone_in_both_statistics(self, monkeypatch):
        monkeypatch.setattr(numerics, "QUAD_REL", 1e-10)
        grid = np.linspace(0.05, 4.0, 9)
        for g in (0.3, 1.5):
            phis = [hb2_factors(f, g, 1.0, BENCH)[0] for f in grid]
            psis = [hb2_factors(f, g, 1.0, BENCH)[1] for f in grid]
            assert np.all(np.diff(phis) > 0.0)
            assert np.all(np.diff(psis) > 0.0)

    def test_degenerate_series_continuity(self):
        # Tiny statistics switch to the exact series; the switch must agree
        # with the quadrature route to first order.
        ratios_small = hb2_shrink_ratios(1e-12, 0.5, 1.0, BENCH)
        assert ratios_small[0] == approx(
            (BENCH.alpha_e + 1.0) / (BENCH.alpha_e + 2.0), rel=1e-12
        )
        ratios_near = hb2_shrink_ratios(1e-4, 0.5, 1.0, BENCH)
        assert ratios_near[0] == approx(ratios_small[0], rel=2e-5)

        ratios_small_g = hb2_shrink_ratios(0.5, 1e-12, 1.0, BENCH)
        assert ratios_small_g[1] == approx(
            (BENCH.beta_e + 1.0) / (BENCH.beta_e + 2.0), rel=1e-12
        )
        ratios_near_g = hb2_shrink_ratios(0.5, 1e-4, 1.0, BENCH)
        assert ratios_near_g[1] == approx(ratios_small_g[1], rel=2e-4)

    def test_proposition_bounds_on_random_grid(self):
        from kshrink.risk import check_hb2_conditions

        rng = np.random.default_rng(11)
        tried = 0
        for _ in range(40):
            p = int(rng.integers(3, 7))
            k = int(rng.integers(2, 6))
            n = int(rng.integers(10, 40))
            a = float(rng.uniform(0.01, 0.5))
            b = float(rng.uniform(0.01, 0.5))
            c = float(rng.uniform(0.01, 0.5))
            if not check_hb2_conditions(a, b, c, p, k, n).minimax:
                continue
            tried += 1
            e = HbExponents.from_model(p, k, n, a, b, c)
            f, g, s = rng.uniform(0.01, 30.0, size=3)
            phi, psi = hb2_factors(float(f), float(g), float(s), e)
            assert 0.0 < phi <= 2.0 * (p * (k - 1) - 2.0) / (n + 2.0) + 1e-12
            assert 0.0 < psi <= 2.0 * (p - 2.0) / (n + 2.0) + 1e-12
            if tried >= 8:
                break
        assert tried >= 4  # the sampler must actually exercise the bound


class TestHb2ShrinkRatios:
    def test_matches_factors_at_regular_points(self):
        phi, psi = hb2_factors(2.0, 1.5, 3.0, BENCH)
        rphi, rpsi = hb2_shrink_ratios(2.0, 1.5, 3.0, BENCH)
        assert rphi == approx(phi / 2.0, rel=1e-14)
        assert rpsi == approx(psi / 1.5, rel=1e-14)

    def test_ratios_bounded_by_one(self):
        # phi(F)/F and psi(G)/G never exceed their F,G -> 0 limits, which
        # are below 1; the estimator never overshoots the pooled mean.
        rng = np.random.default_rng(3)
        for _ in range(10):
            f, g = rng.uniform(1e-6, 50.0, size=2)
            rphi, rpsi = hb2_shrink_ratios(float(f), float(g), 1.0, BENCH)
            assert 0.0 < rphi < 1.0
            assert 0.0 < rpsi < 1.0

    def test_array_call_matches_elementwise_scalar_calls(self):
        f = np.array([1e-12, 0.5, 3.0, 500.0])
        g = np.array([0.7, 1e-12, 2.0, 40.0])
        rphi, rpsi = hb2_shrink_ratios(f, g, 1.0, BENCH)
        assert rphi.shape == rpsi.shape == (4,)
        for i in range(4):
            one = hb2_shrink_ratios(float(f[i]), float(g[i]), 1.0, BENCH)
            assert isinstance(one[0], float) and isinstance(one[1], float)
            assert (rphi[i], rpsi[i]) == approx(one, rel=1e-12)

    def test_array_call_names_lowest_failing_element(self, monkeypatch):
        # No quadrature meets a relative tolerance of 1e-300, so every
        # regular element fails; degenerate ones are closed-form series.
        monkeypatch.setattr(numerics, "QUAD_REL", 1e-300)
        f = np.array([1e-12, 1e-12, 2.0, 1e-12, 3.0])
        with pytest.raises(ReplicateError, match="failed to converge") as raised:
            hb2_shrink_ratios(f, 0.5, 1.0, BENCH)
        assert raised.value.replicate == 2
        with pytest.raises(ArithmeticError, match="failed to converge"):
            hb2_shrink_ratios(2.0, 0.5, 1.0, BENCH)

    def test_invalid_element_raises_as_scalar_path(self):
        with pytest.raises(ValueError, match="statistics must be nonnegative"):
            hb2_shrink_ratios(np.array([1.0, -1.0]), 0.5, 1.0, BENCH)

    @pytest.mark.parametrize("big_l", [0.0, 0.5])
    @pytest.mark.parametrize("f, g", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_non_finite_statistic_is_invalid(self, f, g, big_l):
        with pytest.raises(ValueError, match="statistics must be finite"):
            hb2_shrink_ratios(np.array([1.0, f]), g, 1.0, BENCH, big_l=big_l)

    @pytest.mark.parametrize(
        "big_l, message",
        [
            (math.inf, "big_l must be finite, got inf"),
            (math.nan, "big_l must be finite, got nan"),
            (-1.0, "big_l must be >= 0, got -1.0"),
        ],
        ids=["inf", "nan", "negative"],
    )
    @pytest.mark.parametrize("factors", [hb2_factors, hb2_shrink_ratios])
    def test_bad_tilt_is_rejected(self, factors, big_l, message):
        # Hyperparameters' rule and wording; an infinite tilt used to end in
        # "integrand underflowed everywhere".
        with pytest.raises(ValueError, match=f"^{message}$"):
            factors(np.array([0.5, 2.0]), 1.0, 1.0, BENCH, big_l=big_l)

    def test_exponents_past_the_rule_weights_are_rejected(self):
        # p(k-1)/2 + a = 1800.1 at p = 400, k = 10: 2^(expo + 1) overflows
        # in the weights' normaliser 2^(expo + 1) B(1, expo + 1), which makes them
        # inf, and in the rule's division by 2.0 ** (expo + 1.0), so no rule may
        # run there.
        # Warnings are errors in this suite, so a warning would fail here.
        huge = HbExponents.from_model(400, 10, 20, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match="p\\(k-1\\)/2 \\+ a and p/2 \\+ b below 1024"):
            hb2_shrink_ratios(np.array([0.5, 2.0]), 1.0, 1.0, huge)
        # Just under the limit the rule still runs.
        hb2_shrink_ratios(2.0, 1.0, 1.0, HbExponents(1022.0, 1.0, 1100.0))


class TestHb2FactorsOverArrays:
    """hb2_factors is the array implementation: its points are its scalar calls."""

    F = np.array([0.0, 1e-12, DEGENERATE_STAT, 0.3, 2.0, 25.0, 1e-12, 0.8, 4.0])
    G = np.array([0.5, 3.0, 1.2, 0.0, 1e-12, DEGENERATE_STAT, 0.0, 0.7, 12.0])
    S = np.array([2.0, 8.0, 20.0, 5.0, 25.0, 40.0, 3.0, 10.0, 30.0])

    @pytest.mark.parametrize("big_l", [0.0, 0.5])
    def test_array_call_is_its_scalar_calls_bit_for_bit(self, big_l):
        phi, psi = hb2_factors(self.F, self.G, self.S, BENCH, big_l=big_l)
        assert phi.shape == psi.shape == self.F.shape
        for i in range(self.F.size):
            one = hb2_factors(self.F[i], self.G[i], self.S[i], BENCH, big_l=big_l)
            assert isinstance(one[0], float) and isinstance(one[1], float)
            assert one == (phi[i], psi[i])

    def test_statistics_broadcast_and_keep_their_shape(self):
        f = self.F[:6].reshape(2, 3)
        phi, psi = hb2_factors(f, self.G[:3], 4.0, BENCH, big_l=0.5)
        assert phi.shape == psi.shape == (2, 3)
        flat = hb2_factors(f.ravel(), np.tile(self.G[:3], 2), 4.0, BENCH, big_l=0.5)
        assert np.array_equal(phi.ravel(), flat[0]) and np.array_equal(psi.ravel(), flat[1])

    def test_failing_point_names_its_lowest_flat_index(self):
        # z0 = 1000 at scale sum 1e3: the tilted integrand underflows everywhere.
        s = np.array([[25.0, 25.0, 25.0], [25.0, 1e3, 1e3]])
        f = np.array([[1.3, 1e-12, 0.4], [2.0, 1.3, 1.3]])
        with pytest.raises(ReplicateError, match="underflowed everywhere") as raised:
            hb2_factors(f, 0.7, s, BENCH, big_l=2.0)
        assert raised.value.replicate == 4


class TestTiltedHb2:
    """The tilted (big_l > 0) factors: array calls against the oracle, and failures."""

    # (big_l, f, g, scale_sum). z0 = big_l * scale_sum / 2 puts the tilt's
    # shoulder, where z0 (1 + x + y) is near gamma_e + 1, inside the box.
    ORACLE_POINTS = [
        (0.05, 30.0, 8.0, 40.0),
        (0.5, 3.0, 2.0, 20.0),
        (2.0, 0.3, 2.0, 8.0),
        (2.0, 5.0, 0.2, 3.0),
    ]

    @pytest.mark.parametrize("big_l", [0.05, 0.5, 2.0])
    def test_array_call_matches_riemann_oracle(self, big_l):
        f, g, s = np.array([pt[1:] for pt in self.ORACLE_POINTS if pt[0] == big_l]).T
        rphi, rpsi = hb2_shrink_ratios(f, g, s, BENCH, big_l=big_l)
        for i in range(f.size):
            slow_phi, slow_psi = oracles.hb2_factors_riemann(
                f[i], g[i], s[i], 5, 5, 20, 0.1, 0.1, 0.1, big_l=big_l
            )
            assert rphi[i] * f[i] == approx(slow_phi, rel=1e-7)
            assert rpsi[i] * g[i] == approx(slow_psi, rel=1e-7)

    def test_strong_tilt_point_is_pinned(self):
        # Far into the tilt the smallest rules disagree, so this point needs
        # more nodes than the first round gives.
        phi, psi = hb2_factors(1e4, 1e-6, 200.0, BENCH, big_l=2.0)
        assert phi == approx(0.05023395559832252, rel=1e-9)
        assert psi == approx(7.222134531532231e-07, rel=1e-9)

    def test_underflow_everywhere_is_named(self):
        # z0 = 1000: the upper gamma tail underflows on the whole box.
        with pytest.raises(ArithmeticError, match="underflowed everywhere"):
            hb2_factors(1.3, 0.7, 1e3, BENCH, big_l=2.0)
        with pytest.raises(ReplicateError, match="underflowed everywhere") as raised:
            hb2_shrink_ratios(1.3, 0.7, np.array([25.0, 1e3]), BENCH, big_l=2.0)
        assert raised.value.replicate == 1

    @pytest.mark.parametrize("big_l, s", [(1e308, 3.0), (1e300, 1e10)])
    def test_overflowing_tilt_underflows_everywhere(self, big_l, s):
        # z0 = big_l s / 2 is inf or its products with the nodes are: the
        # tail is 0 at every node, a named failure and no overflow warning.
        with pytest.raises(ReplicateError, match="underflowed everywhere"):
            hb2_shrink_ratios(np.array([1.3, 1e-300]), 0.7, s, BENCH, big_l=big_l)

    def test_underflow_of_the_smaller_rules_is_a_miss(self):
        # The 12- to 28-node rules underflow at every node of this point
        # (z0 = 750), while the larger ones converge on the 320-node rule.
        e = HbExponents.from_model(2, 20, 2, 0.1, 0.1, 0.1)

        def rule(n):
            return numerics._joint_rule(
                n, np.array([224.0]), np.array([1.0]), np.array([750.0]), e,
                np.empty((3, 1, n, n)),
            )

        assert [rule(n)[1][0] for n in (12, 20, 28)] == [-np.inf] * 3
        got = hb2_factors(224.0, 1.0, 750.0, e, big_l=2.0)
        assert got == approx(tuple(rule(320)[0][:, 0]), rel=QUAD_REL)



class TestLargeDegreesOfFreedom:
    """HB2 at the exponents of datasets with thousands of residual degrees of freedom.

    estimate sets n to the residual degrees of freedom, which has no upper
    bound. For large gamma_e the kernel falls off over about 1/gamma_e, far
    inside the box; the rule caps its axes there (see _axis_caps).
    """

    STATS = np.array([0.1, 1.0, 10.0])

    @pytest.mark.parametrize("n", [2000, 20000])
    @pytest.mark.parametrize("big_l", [0.0, 0.5])
    @pytest.mark.parametrize("quad_rel", [QUAD_REL, 1e-10])
    def test_saturated_statistics_give_the_limits(self, n, big_l, quad_rel, monkeypatch):
        # Past f, g = 0.1 the integrals lack less than e^-90 of their mass,
        # and z0 = 6.25 leaves the tilt within 1e-300 of 1, so the factors
        # are their large-statistic limits.
        monkeypatch.setattr(numerics, "QUAD_REL", quad_rel)
        e = HbExponents.from_model(5, 6, n, 0.1, 0.1, 0.1)
        f, g = (a.ravel() for a in np.meshgrid(self.STATS, self.STATS, indexing="ij"))
        rphi, rpsi = hb2_shrink_ratios(f, g, 25.0, e, big_l=big_l)
        lim_phi, lim_psi = e.limits()
        np.testing.assert_allclose(rphi * f, lim_phi, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(rpsi * g, lim_psi, rtol=1e-10, atol=0.0)

    # (n, f, g, big_l, scale_sum, (phi, psi)): statistics on the 1/gamma_e
    # scale, with z0 = big_l * scale_sum / 2 at or past gamma_e + 1. The
    # values are those of the adaptive implementation the rule replaced at
    # rel_tol=1e-10, which this rule meets within 4e-12.
    PINNED = [
        (2000, 1e-3, 1e-2, 0.0, 25.0, (0.0009214724044985991, 0.002558931434365328)),
        (2000, 1e-2, 1e-3, 0.5, 4059.6, (0.00831752927986424, 0.0006733524329802052)),
        (2000, 1e-3, 1e-3, 0.5, 4262.58, (0.000921119799762603, 0.000671229408754075)),
        (20000, 1e-4, 1e-3, 0.0, 25.0, (9.215307936030248e-05, 0.000258446852583327)),
        (20000, 1e-3, 1e-4, 0.5, 44065.56, (0.00082112749144023, 6.700633062453924e-05)),
        (20000, 1e-5, 1e-4, 0.5, 40059.6, (9.25996946742148e-06, 6.747718682112495e-05)),
    ]

    @pytest.mark.parametrize("n, f, g, big_l, s, expected", PINNED)
    def test_unsaturated_points_are_pinned(self, n, f, g, big_l, s, expected):
        e = HbExponents.from_model(5, 6, n, 0.1, 0.1, 0.1)
        got = hb2_factors(f, g, s, e, big_l=big_l)
        assert got == approx(expected, rel=1e-9)


def spy_rule_sizes(monkeypatch):
    """The node count of every _joint_rule call, in call order."""
    sizes = []
    real_rule = numerics._joint_rule

    def spy(n, *args, **kwargs):
        sizes.append(n)
        return real_rule(n, *args, **kwargs)

    monkeypatch.setattr(numerics, "_joint_rule", spy)
    return sizes


def _rule_exponents():
    """Seeded exponents over every branch the Gauss-Jacobi rule takes."""
    rng = np.random.default_rng(33)
    estimate = [HbExponents.from_model(p, k, 20, 0.1, 0.1, 0.1) for k in (3, 8) for p in (3, 6)]
    return [
        *rng.uniform(-1.0, 0.0, size=4).tolist(), -0.99,  # in (-1, 0)
        0.0,  # the Legendre branch
        BENCH.alpha_e, BENCH.beta_e,  # table1's 9.1 and 1.6
        *(e for ex in estimate for e in (ex.alpha_e, ex.beta_e)),  # estimate's range
        *rng.uniform(0.6, 20.1, size=4).tolist(),
        1000.0, *rng.uniform(999.9, 1022.9, size=4).tolist(), 1022.9,  # the betaln branch
    ]


@pytest.mark.parametrize("n", numerics._RULE_SIZES)
def test_jacobi_rule_is_scipys_rule_bit_for_bit(n):
    # scipy.special.roots_jacobi is the reference the numpy eigenvalue solve
    # replaced; the rule maps its nodes and weights to [0, 1].
    for expo in _rule_exponents():
        xi, wt = sc.roots_jacobi(n, 0.0, expo)
        nodes, weights = numerics._jacobi_rule(n, expo)
        np.testing.assert_array_equal(nodes, 0.5 * (xi + 1.0), err_msg=f"n={n}, expo={expo}")
        np.testing.assert_array_equal(
            weights, wt / 2.0 ** (expo + 1.0), err_msg=f"n={n}, expo={expo}"
        )


class TestRuleRounds:
    """How the rule's rounds take misses, underflow and memory."""

    def test_a_converged_block_runs_only_the_first_two_sizes(self, monkeypatch):
        rng = np.random.default_rng(5)
        f, g = rng.uniform(0.1, 30.0, size=(2, 256))
        sizes = spy_rule_sizes(monkeypatch)
        hb2_shrink_ratios(f, g, 1.0, BENCH)
        assert sorted(set(sizes)) == [12, 20]

    def test_a_missing_point_runs_each_size_once_in_order(self, monkeypatch):
        sizes = spy_rule_sizes(monkeypatch)
        monkeypatch.setattr(numerics, "QUAD_REL", 1e-300)
        with pytest.raises(ArithmeticError, match="failed to converge with 168 nodes per axis"):
            hb2_factors(2.0, 0.5, 1.0, BENCH)
        assert sizes == list(numerics._RULE_SIZES)

    @pytest.mark.parametrize("n", [20, 40, 80, 160])
    def test_every_n_and_n_plus_8_pair_is_consecutive(self, n):
        # A point whose n and n + 8 node rules agree is accepted by then.
        sizes = numerics._RULE_SIZES
        assert sizes[sizes.index(n) + 1] == n + 8

    def test_one_underflowed_rule_goes_to_the_next_round(self, monkeypatch):
        # A peak of -inf in only one of the two rules is a miss, not underflow.
        real_rule = numerics._joint_rule
        want = hb2_factors(1.3, 0.7, 25.0, BENCH, big_l=2.0)

        def first_rule_empty(n, *args, **kwargs):
            values, peak = real_rule(n, *args, **kwargs)
            if n == 20:
                values[:], peak[:] = np.nan, -np.inf
            return values, peak

        monkeypatch.setattr(numerics, "_joint_rule", first_rule_empty)
        assert hb2_factors(1.3, 0.7, 25.0, BENCH, big_l=2.0) == approx(want, rel=1e-12)

    def test_nan_peak_is_not_underflow(self, monkeypatch):
        real_rule = numerics._joint_rule

        def nan_everywhere(*args, **kwargs):
            values, peak = real_rule(*args, **kwargs)
            values[:], peak[:] = np.nan, np.nan
            return values, peak

        monkeypatch.setattr(numerics, "_joint_rule", nan_everywhere)
        with pytest.raises(ArithmeticError, match="failed to converge with 168 nodes"):
            hb2_factors(1.3, 0.7, 25.0, BENCH, big_l=2.0)

    def test_last_round_memory_stays_at_the_first_rounds(self, monkeypatch):
        # A 256-point block where every point runs every size of the rule
        # peaks no higher than one where every point is accepted at 20 nodes.
        rng = np.random.default_rng(5)
        f, g = rng.uniform(0.1, 30.0, size=(2, 256))
        hb2_shrink_ratios(f, g, 1.0, BENCH)

        def peak_mib():
            tracemalloc.start()
            try:
                hb2_shrink_ratios(f, g, 1.0, BENCH)
            except ReplicateError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak / 2**20

        first = peak_mib()
        monkeypatch.setattr(numerics, "QUAD_REL", 1e-300)
        assert peak_mib() <= 1.05 * first

    def test_a_block_fits_in_the_cache(self):
        # A 256-point zero-tilt call keeps two chunk-sized work buffers
        # (64 points at 28 nodes per axis) and per-point vectors.
        rng = np.random.default_rng(5)
        f, g = rng.uniform(0.1, 30.0, size=(2, 256))
        hb2_shrink_ratios(f, g, 1.0, BENCH)
        tracemalloc.start()
        try:
            hb2_shrink_ratios(f, g, 1.0, BENCH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("big_l", [0.0, 0.5])
    def test_a_point_does_not_depend_on_its_neighbours(self, big_l):
        # Every sum runs over one point's nodes, so the whole array, its
        # 37-point pieces and single points give the same bits.
        rng = np.random.default_rng(17)
        f = rng.uniform(0.05, 40.0, 300)
        g = rng.uniform(0.05, 15.0, 300)
        s = rng.uniform(1.0, 30.0, 300)
        whole = np.array(hb2_shrink_ratios(f, g, s, BENCH, big_l=big_l))
        pieces = np.concatenate(
            [
                np.array(hb2_shrink_ratios(f[i : i + 37], g[i : i + 37], s[i : i + 37], BENCH,
                                           big_l=big_l))
                for i in range(0, 300, 37)
            ],
            axis=1,
        )
        alone = np.array(
            [hb2_shrink_ratios(f[i], g[i], s[i], BENCH, big_l=big_l) for i in range(300)]
        ).T
        assert np.array_equal(pieces, whole)
        assert np.array_equal(alone, whole)

    def test_zero_tilt_grid_stays_far_from_underflow(self):
        # Without a tilt the rule does not shift its (R, n, n) grid: exp of
        # (ga-be-1) log(1 - U r) must stay far above the -708 where doubles
        # stop being normal, at every rule size and U at its cap.
        sizes = numerics._RULE_SIZES
        worst = 0.0
        for p in range(1, 13):
            for k in (2, 3, 5, 10, 20, 50):
                for n in (1, 2, 5, 10, 20, 50, 100, 200, 500, 2000, 5000, 20000):
                    e = HbExponents.from_model(p, k, n, 0.1, 0.1, 0.1)
                    _, w_cap = numerics._axis_caps(e)
                    for m in sizes:
                        r_max = numerics._jacobi_rule(m, e.beta_e)[0][-1]
                        expo = (e.gamma_e - e.beta_e - 1.0) * math.log1p(-w_cap * r_max)
                        worst = min(worst, expo)
        assert worst > -100.0

# (args, keywords, (phi, psi)) from the adaptive implementation the
# Gauss-Jacobi rule replaced. The three quadrature values lie within 1.4e-13
# of that implementation at rel_tol=1e-12; the series components
# 9.0990990990991e-13 and 7.222222222222223e-13 are closed forms and must
# not move a bit.
PINNED_HB2 = [
    ((0.8, 0.5, 1.0), {}, (0.6036996738660273, 0.1907622351226345)),
    ((300.0, 2.0, 1.0), {}, (1.0409602024171545, 0.267704008884415)),
    ((1.3, 0.7, 25.0), {"big_l": 2.0}, (0.3817476614074583, 0.09827120447653416)),
    ((1e-12, 0.7, 25.0), {"big_l": 2.0}, (9.0990990990991e-13, 0.09375486558575147)),
    ((0.9, 1e-12, 25.0), {"big_l": 2.0}, (0.3783093395137709, 7.222222222222223e-13)),
]
SERIES_COMPONENTS = (9.0990990990991e-13, 7.222222222222223e-13)


@pytest.mark.parametrize("args, kwargs, expected", PINNED_HB2)
def test_scalar_hb2_values_are_pinned(args, kwargs, expected):
    for got, want in zip(hb2_factors(*args, BENCH, **kwargs), expected):
        if want in SERIES_COMPONENTS:
            assert got == want
        else:
            assert got == approx(want, rel=1e-12)


class TestHbFactorsOverTheStatisticRange:
    """The HB factors over f, g in [1e-11, 1e9], both sides of degenerate_stat."""

    GRID = np.geomspace(1e-11, 1e9, 41)
    TIGHT = 1e-10

    @pytest.fixture(scope="class")
    def tight(self):
        f, g = np.meshgrid(self.GRID, self.GRID, indexing="ij")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "QUAD_REL", self.TIGHT)
            rphi, rpsi = hb2_shrink_ratios(f, g, 1.0, BENCH)
        return rphi, rpsi, rphi * f, rpsi * g

    def test_array_call_matches_scalar_factors(self):
        # At the default tolerance, where the simulations run.
        f, g = (a.ravel() for a in np.meshgrid(self.GRID, self.GRID, indexing="ij"))
        rphi, rpsi = hb2_shrink_ratios(f, g, 1.0, BENCH)
        phi, psi = np.array([hb2_factors(a, b, 1.0, BENCH) for a, b in zip(f, g)]).T
        deg = DEGENERATE_STAT
        np.testing.assert_allclose(rphi[f > deg], (phi / f)[f > deg], rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(rpsi[g > deg], (psi / g)[g > deg], rtol=1e-10, atol=0.0)

    def test_monotone_in_each_statistic(self, tight):
        # Within ten times the quadrature tolerance: phi and psi rise with
        # both statistics, phi/f falls with f and psi/g with g.
        rphi, rpsi, phi, psi = tight
        slack = 10.0 * self.TIGHT
        for values, sign, axis in [
            (phi, 1, 0), (phi, 1, 1), (psi, 1, 0), (psi, 1, 1),
            (rphi, -1, 0), (rphi, 1, 1), (rpsi, 1, 0), (rpsi, -1, 1),
        ]:
            step = sign * np.diff(values, axis=axis)
            scale = np.abs(values).max(axis=axis, keepdims=True)
            assert np.all(step >= -slack * scale)

    def test_large_statistics_reach_the_limits(self, tight):
        _, _, phi, psi = tight
        lim_phi, lim_psi = BENCH.limits()
        assert phi[-1, -1] == approx(lim_phi, rel=1e-9)
        assert psi[-1, -1] == approx(lim_psi, rel=1e-9)

    @pytest.mark.parametrize("other", [1e-3, 0.5, 30.0, 1e6])
    def test_continuous_across_the_degenerate_switch(self, other):
        deg = DEGENERATE_STAT
        both = np.array([deg, deg * (1.0 + 1e-6)])
        rphi, _ = hb2_shrink_ratios(both, other, 1.0, BENCH)
        _, rpsi = hb2_shrink_ratios(other, both, 1.0, BENCH)
        assert rphi[1] == approx(rphi[0], rel=1e-8)
        assert rpsi[1] == approx(rpsi[0], rel=1e-8)
        hb1 = hb1_shrink_ratio(both, 5, 5, 20, 0.1, 0.1, 1.0)
        assert hb1[1] == approx(hb1[0], rel=1e-8)

    def test_array_call_matches_riemann_oracle(self):
        f = np.array([0.3, 3.0, 30.0])
        g = np.array([2.0, 0.2, 8.0])
        rphi, rpsi = hb2_shrink_ratios(f, g, 1.0, BENCH)
        for i in range(3):
            slow_phi, slow_psi = oracles.hb2_factors_riemann(
                f[i], g[i], 1.0, 5, 5, 20, 0.1, 0.1, 0.1
            )
            assert rphi[i] * f[i] == approx(slow_phi, rel=1e-9)
            assert rpsi[i] * g[i] == approx(slow_psi, rel=1e-9)

    def test_hb1_over_the_range(self):
        ratio = hb1_shrink_ratio(self.GRID, 5, 5, 20, 0.1, 0.1, 1.0)
        assert np.all(np.diff(ratio) <= 0.0)
        for f in (1e-3, 0.5, 5.0, 50.0):
            slow = oracles.hb1_phi_riemann(f, 5, 5, 20, 0.1, 0.1)
            assert hb1_shrink_ratio(f, 5, 5, 20, 0.1, 0.1, 1.0) * f == approx(slow, rel=1e-9)


class TestHb2FactorProperties:
    """hypothesis drives the monotonicity and limit properties over shapes and statistics.

    Zero tilt, p <= 12, 2 <= k <= 10, n <= 2000 and f, g log-uniform in
    [1e-3, 1e4], at a tight tolerance and within ten times it.
    """

    TIGHT = 1e-10
    STAT = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        p=st.integers(1, 12),
        k=st.integers(2, 10),
        n=st.integers(1, 2000),
        f=STAT,
        g=STAT,
        grow=st.floats(1.1, 1.6),
    )
    def test_monotone_and_below_the_limits(self, p, k, n, f, g, grow):
        e = HbExponents.from_model(p, k, n, 0.1, 0.1, 0.1)
        fs = np.array([f, grow * f, f])
        gs = np.array([g, g, grow * g])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "QUAD_REL", self.TIGHT)
            phi, psi = hb2_factors(fs, gs, 1.0, e)
        low, high = 1.0 - 10.0 * self.TIGHT, 1.0 + 10.0 * self.TIGHT
        # phi and psi do not fall when f or g grows.
        assert min(phi[1], phi[2]) >= low * phi[0]
        assert min(psi[1], psi[2]) >= low * psi[0]
        # phi/f does not rise with f, nor psi/g with g.
        assert phi[1] / fs[1] <= high * phi[0] / f
        assert psi[2] / gs[2] <= high * psi[0] / g
        lim_phi, lim_psi = e.limits()
        assert np.all(phi <= high * lim_phi)
        assert np.all(psi <= high * lim_psi)


def benchmark_statistics() -> tuple[np.ndarray, np.ndarray]:
    """(f, g) of the first 256 replicates of each benchmark configuration, as table1 draws them."""
    cfg = ExperimentConfig.benchmark()
    constants = cfg.validate()
    chol = np.linalg.cholesky(cfg.v)
    batches = []
    for ci, mc in enumerate(cfg.mean_configs):
        key = (montecarlo._NS_EXPERIMENT, ci)
        truth = TrueParameters(mu=mc.mu, sigma2=cfg.sigma2)
        batches.append(constants.summarize(*montecarlo._draw(cfg, key, truth, chol, 0, 256)))
    return (
        np.concatenate([b.residual_stat for b in batches]),
        np.concatenate([b.pooled_norm_stat for b in batches]),
    )


class TestZeroTiltClosedInnerOracle:
    """Zero-tilt HB factors against oracles that share no code with the rule.

    hb2_factors_closed_inner takes the inner integral in closed form and
    the outer one by QUADPACK. One array call is checked at the statistics
    the benchmark reaches and at seeded statistics of three other shapes.
    """

    REL = 1e-9

    @pytest.fixture(scope="class")
    def quantiles(self):
        """11 quantiles each of f and g over table1's seeded 256-replicate draws."""
        f, g = benchmark_statistics()
        levels = np.linspace(0.0, 1.0, 11)
        return np.quantile(f, levels), np.quantile(g, levels)

    def check(self, f, g, p, k, n):
        phi, psi = hb2_factors(f, g, 1.0, HbExponents.from_model(p, k, n, 0.1, 0.1, 0.1))
        slow = np.array(
            [oracles.hb2_factors_closed_inner(a, b, p, k, n, 0.1, 0.1, 0.1)
             for a, b in zip(f.ravel(), g.ravel())]
        )
        np.testing.assert_allclose(phi.ravel(), slow[:, 0], rtol=self.REL, atol=0.0)
        np.testing.assert_allclose(psi.ravel(), slow[:, 1], rtol=self.REL, atol=0.0)

    def test_benchmark_quantile_grid(self, quantiles):
        f, g = np.meshgrid(*quantiles, indexing="ij")
        assert f.min() > DEGENERATE_STAT and g.min() > DEGENERATE_STAT
        self.check(f, g, 5, 5, 20)

    @pytest.mark.parametrize("p, k, n", [(3, 4, 12), (12, 10, 200), (5, 2, 2000)])
    def test_seeded_points_of_other_shapes(self, p, k, n):
        # f = X1/S and g = X2/S with X1 ~ chi2_{p(k-1)}(l1), X2 ~ chi2_p(l2)
        # and S ~ chi2_n: the statistics of inverse-scale draws at this shape.
        rng = np.random.default_rng(11)
        d1 = p * (k - 1)
        f = rng.noncentral_chisquare(d1, rng.uniform(0.0, 3.0 * d1, 16)) / rng.chisquare(n, 16)
        g = rng.noncentral_chisquare(p, rng.uniform(0.0, 3.0 * p, 16)) / rng.chisquare(n, 16)
        self.check(f, g, p, k, n)
        got = hb1_phi(f, p, k, n, 0.1, 0.1, 1.0)
        slow = [oracles.hb1_phi_riemann(a, p, k, n, 0.1, 0.1) for a in f]
        np.testing.assert_allclose(got, slow, rtol=self.REL, atol=0.0)

    def test_hb1_on_the_benchmark_f_quantiles(self, quantiles):
        f, _ = quantiles
        got = hb1_phi(f, 5, 5, 20, 0.1, 0.1, 1.0)
        slow = [oracles.hb1_phi_riemann(a, 5, 5, 20, 0.1, 0.1) for a in f]
        np.testing.assert_allclose(got, slow, rtol=self.REL, atol=0.0)
