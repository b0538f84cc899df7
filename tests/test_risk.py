"""Loss, the unbiased risk estimator, conditions, and the improvement scale."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from kshrink import (
    CanonicalModel,
    LossSpec,
    TrueParameters,
    check_hb1_conditions,
    check_hb2_conditions,
    loss,
    prial,
    uer,
)
from kshrink.estimators import EstimateSet, ShrinkageFunctions, eb_members
from kshrink.montecarlo import uer_members


def two_group_model():
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    v = np.array([np.eye(3), np.eye(3)])
    return CanonicalModel(x=x, v=v, s=5.0, n=10)


class TestLoss:
    def test_zero_at_truth(self):
        model = two_group_model()
        ls = LossSpec.inverse_v(model)
        truth = TrueParameters(mu=model.x.copy(), sigma2=2.0)
        assert loss(model.x, truth, ls) == 0.0

    def test_scalar_hand_example(self):
        # One-dimensional groups, unit weights, noise variance two,
        # errors +1 and -1: the loss is (1 + 1)/2 = 1.
        mu_hat = np.array([[1.0], [-1.0]])
        truth = TrueParameters(mu=np.zeros((2, 1)), sigma2=2.0)
        model = CanonicalModel(x=mu_hat, v=np.ones((2, 1, 1)), s=1.0, n=4)
        ls = LossSpec.inverse_v(model)
        assert loss(mu_hat, truth, ls) == approx(1.0)

    def test_noise_variance_rescales(self):
        mu_hat = np.array([[1.0], [-1.0]])
        model = CanonicalModel(x=mu_hat, v=np.ones((2, 1, 1)), s=1.0, n=4)
        ls = LossSpec.inverse_v(model)
        lo = loss(mu_hat, TrueParameters(mu=np.zeros((2, 1)), sigma2=2.0), ls)
        hi = loss(mu_hat, TrueParameters(mu=np.zeros((2, 1)), sigma2=4.0), ls)
        assert hi == approx(lo / 2.0)

    def test_positive_off_truth(self):
        rng = np.random.default_rng(5)
        model = two_group_model()
        ls = LossSpec.inverse_v(model)
        truth = TrueParameters(mu=rng.normal(size=(2, 3)), sigma2=1.0)
        assert loss(model.x, truth, ls) > 0.0

    def test_accepts_estimate_sets(self):
        model = two_group_model()
        ls = LossSpec.inverse_v(model)
        truth = TrueParameters(mu=np.zeros((2, 3)), sigma2=1.0)
        wrapped = EstimateSet(mu_hat=model.x)
        assert loss(wrapped, truth, ls) == approx(loss(model.x, truth, ls))

    @pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
    @pytest.mark.parametrize("r", [1, 2, 255, 256, 257, 1309, 1310, 1311])
    def test_stacked_losses_are_the_one_replicate_losses(self, r, full):
        # The block-length contract: a replicate's loss has the same bits
        # in a block of any length as in a call of its own.
        rng = np.random.default_rng(r)
        k, p = 5, 5
        if full:
            root = rng.normal(size=(k, p, p))
            v = np.einsum("kab,kcb->kac", root, root) + p * np.eye(p)
        else:
            v = np.stack([np.diag(rng.uniform(0.2, 3.0, size=p)) for _ in range(k)])
        model = CanonicalModel(x=np.zeros((k, p)), v=v, s=1.0, n=10)
        ls = LossSpec.inverse_v(model)
        truth = TrueParameters(mu=rng.normal(size=(k, p)), sigma2=4.0)
        mu_hat = truth.mu + 2.0 * rng.normal(size=(r, k, p))
        stacked = loss(mu_hat, truth, ls)
        assert stacked.shape == (r,)
        singles = [loss(row, truth, ls) for row in mu_hat]
        assert all(type(one) is float for one in singles)
        assert np.array_equal(stacked, np.array(singles))

    def test_per_replicate_truths_are_the_one_truth_losses(self):
        rng = np.random.default_rng(8)
        model = two_group_model()
        ls = LossSpec.inverse_v(model)
        mus = rng.normal(size=(4, 2, 3))
        mu_hat = rng.normal(size=(4, 2, 3))
        stacked = loss(mu_hat, TrueParameters(mu=mus, sigma2=2.0), ls)
        singles = [loss(mu_hat[r], TrueParameters(mu=mus[r], sigma2=2.0), ls) for r in range(4)]
        assert np.array_equal(stacked, np.array(singles))
        for bad in (mu_hat[:3], mu_hat[0]):
            with pytest.raises(ValueError, match="does not match"):
                loss(bad, TrueParameters(mu=mus, sigma2=2.0), ls)

    def test_shape_mismatch(self):
        model = two_group_model()
        ls = LossSpec.inverse_v(model)
        truth = TrueParameters(mu=np.zeros((3, 3)), sigma2=1.0)
        with pytest.raises(ValueError, match="does not match"):
            loss(model.x, truth, ls)


def constant_member(phi=0.0, psi=0.0, **partials):
    """Constant factors phi and psi; partials are zero unless given."""
    values = {"phi": phi, "psi": psi, **dict.fromkeys(ShrinkageFunctions.PARTIALS, 0.0)}
    values.update(partials)
    return ShrinkageFunctions(
        **{name: (lambda f, g, s, value=value: value) for name, value in values.items()}
    )


def uer_at(sf, f=1.0, g=1.0, s=10.0, trace=25.0):
    return uer(sf, f, g, s, p=5, k=5, n=20, trace_sum=trace)


class TestUer:
    def test_no_shrink_returns_trace(self):
        assert uer_at(constant_member()) == approx(25.0)

    def test_constant_mean_shrink_anchor(self):
        # phi = 18/22 at F = 1 removes (36 - 18) * 18/22 from the trace:
        # 25 - 324/22.
        got = uer_at(constant_member(18.0 / 22.0, 0.0))
        assert got == approx(10.272727272727272, abs=1e-12)

    def test_constant_zero_shrink_anchor(self):
        # The mirrored case psi = 3/22 at G = 1 removes (6 - 3) * 3/22.
        got = uer_at(constant_member(0.0, 3.0 / 22.0))
        assert got == approx(24.59090909090909, abs=1e-12)

    def test_vectorized_matches_scalar_loop(self):
        rng = np.random.default_rng(17)
        f = rng.uniform(0.2, 3.0, size=6)
        g = rng.uniform(0.2, 3.0, size=6)
        s = rng.uniform(5.0, 20.0, size=6)
        zero = lambda f, g, s: 0.0
        sf = ShrinkageFunctions(
            phi=lambda f, g, s: 0.3 * f / (1.0 + f),
            psi=lambda f, g, s: 0.1 * g / (1.0 + g),
            phi_f=lambda f, g, s: 0.3 / (1.0 + f) ** 2,
            phi_g=zero, phi_s=zero, psi_f=zero,
            psi_g=lambda f, g, s: 0.1 / (1.0 + g) ** 2,
            psi_s=zero,
        )
        got = uer_at(sf, f, g, s)
        for i in range(6):
            one = uer_at(sf, float(f[i]), float(g[i]), float(s[i]))
            assert type(one) is float
            assert got[i] == approx(one, rel=1e-14)

    def test_huge_scale_with_zero_scale_partials(self):
        # 4 s phi passes the float range at s = 1e308, but s phi_s = 0: the
        # scale terms vanish as they do at any s.
        sf = constant_member(18.0 / 22.0, 3.0 / 22.0)
        assert uer_at(sf, s=1e308) == uer_at(sf)

    @pytest.mark.parametrize(
        "p, k, n", [(3, 2, 1), (3, 4, 12), (5, 5, 20), (8, 3, 40), (12, 6, 200)]
    )
    def test_eb_star_improves_on_eb_at_every_statistic(self, p, k, n):
        # EB* is EB plus a capped zero-shrink of the pooled mean, and EB's phi
        # depends on f alone, so UER(EB*) - UER(EB) is uer's zero-shrink block
        # alone: shrinking the pooled mean lowers the risk estimate pointwise.
        grid = np.logspace(-4.0, 5.0, 300)
        f, g = np.meshgrid(grid, grid)
        s = np.ones_like(f)

        def risk_estimate(sf):
            return uer(sf, f, g, s, p=p, k=k, n=n, trace_sum=float(p * k))

        eb, eb_star = eb_members(p, k, n)
        assert np.max(risk_estimate(eb_star) - risk_estimate(eb)) < 0.0

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("stat", ["f", "g", "s"])
    def test_rejects_nonpositive_statistics(self, stat, value):
        # NaN and inf are rejected too: a NaN statistic would pass a bare
        # "<= 0" test and give a NaN risk estimate.
        sf = constant_member()
        good = {"f": 1.0, "g": 1.0, "s": 10.0}
        with pytest.raises(ValueError, match=f"^statistic {stat} must be .*strictly positive$"):
            uer_at(sf, **{**good, stat: value})
        # One bad entry among good ones is enough.
        arrays = {name: np.full(3, entry) for name, entry in good.items()}
        arrays[stat][1] = value
        with pytest.raises(ValueError, match="strictly positive"):
            uer_at(sf, **arrays)

    @pytest.mark.parametrize("name", ("phi", "psi") + ShrinkageFunctions.PARTIALS)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_factors(self, name, value):
        sf = constant_member(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            uer_at(sf)

    def test_rejects_member_without_partials(self):
        zero = lambda f, g, s: 0.0
        with pytest.raises(
            ValueError, match="lacks the partial derivatives phi_s, psi_f, psi_g, psi_s$"
        ):
            uer_at(ShrinkageFunctions(phi=zero, psi=zero, phi_f=zero, phi_g=zero))

    @pytest.mark.parametrize("index", range(3), ids=["mean-shrink", "double-shrink", "smooth"])
    def test_transient_memory_is_one_factor_at_a_time(self, index):
        # uer holds one factor's four arrays and its term's temporaries at a
        # time: 10 rows of the statistics' length, measured; 11 allowed.
        rows = 20480
        sf = uer_members(5, 5, 20)[index][1]
        rng = np.random.default_rng(5)
        f, g, s = (rng.uniform(0.1, 30.0, rows) for _ in range(3))
        uer(sf, f[:8], g[:8], s[:8], p=5, k=5, n=20, trace_sum=25.0)  # warm caches
        tracemalloc.start()
        try:
            uer(sf, f, g, s, p=5, k=5, n=20, trace_sum=25.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 8 * rows

    def test_each_term_reads_its_own_statistic(self):
        # f and g passed as one array: each term still takes its own
        # statistic and its own partial by position (phi_f for phi, psi_g
        # for psi), so the estimate is the one from two equal arrays.
        f = np.array([0.5, 2.0, 9.0])
        sf = uer_members(5, 5, 20)[2][1]
        same = uer(sf, f, f, np.full(3, 10.0), p=5, k=5, n=20, trace_sum=25.0)
        apart = uer(sf, f, f.copy(), np.full(3, 10.0), p=5, k=5, n=20, trace_sum=25.0)
        assert np.array_equal(same, apart)


class TestMinimaxMargins:
    # 288 (a, b, c, p, k, n) points and both reports' reprs, pinned so a
    # margin that moves in its last bit changes the digest.
    DIGEST = "198083a0f9c108df11f9e66bbf5b286de47b729c22860a6a08a16cac6f617996"

    def test_margins_are_pinned_bit_for_bit(self):
        grid = itertools.product(
            (0.0, 0.1, 2.5), (0.0, 0.3), (0.1, 1.5), (1, 3, 5, 12), (2, 5), (1, 20, 1000)
        )
        text = "".join(
            f"{(a, b, c, p, k, n)}:{check_hb1_conditions(a, c, p, k, n)!r}"
            f"{check_hb2_conditions(a, b, c, p, k, n)!r}\n"
            for a, b, c, p, k, n in grid
        )
        assert text.count("\n") == 288
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


class TestHb1Conditions:
    def test_benchmark_constants_pass(self):
        rep = check_hb1_conditions(0.1, 0.1, 5, 5, 20)
        assert rep.minimax is True
        assert rep.proper_prior is None
        assert rep.margins["linear_lhs"] == approx(9.4)
        assert rep.margins["linear_rhs"] == approx(140.0)
        assert rep.margins["a_plus_c"] == approx(9.8)

    def test_margin_keys(self):
        rep = check_hb1_conditions(0.1, 0.1, 5, 5, 20)
        assert set(rep.margins) == {
            "dimension", "a_plus_c", "a_plus_c_stated",
            "linear", "linear_lhs", "linear_rhs",
        }

    def test_sum_boundary_fails(self):
        rep = check_hb1_conditions(0.0, 10.0, 5, 5, 20)
        assert rep.minimax is False
        assert rep.margins["a_plus_c"] == 0.0

    def test_too_few_residual_dimensions(self):
        rep = check_hb1_conditions(0.1, 0.1, 1, 2, 20)
        assert rep.minimax is False
        assert rep.margins["dimension"] < 0.0

    def test_linear_constraint_binds(self):
        # Pushing a up while keeping a + c small trips only the linear
        # inequality: 58a alone exceeds 140 once a > 140/58.
        rep = check_hb1_conditions(3.0, 0.0, 5, 5, 20)
        assert rep.minimax is False
        assert rep.margins["a_plus_c"] > 0.0
        assert rep.margins["linear"] < 0.0

    def test_minimax_iff_all_margins_hold(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = float(rng.uniform(-0.5, 4.0))
            c = float(rng.uniform(-0.5, 12.0))
            p = int(rng.integers(1, 7))
            k = int(rng.integers(2, 6))
            n = int(rng.integers(5, 40))
            rep = check_hb1_conditions(a, c, p, k, n)
            expect = (
                rep.margins["dimension"] >= 0.0
                and rep.margins["a_plus_c"] > 0.0
                and rep.margins["linear"] >= 0.0
            )
            assert rep.minimax == expect


class TestHb2Conditions:
    def test_benchmark_constants_pass(self):
        rep = check_hb2_conditions(0.1, 0.1, 0.1, 5, 5, 20)
        assert rep.minimax is True
        assert rep.proper_prior is False  # c = 0.1 <= 1
        assert rep.margins["mean_shrink_lhs"] == approx(13.0)
        assert rep.margins["mean_shrink_rhs"] == approx(140.0)
        assert rep.margins["zero_shrink_lhs"] == approx(4.0)
        assert rep.margins["zero_shrink_rhs"] == approx(5.0)

    def test_margin_keys(self):
        rep = check_hb2_conditions(0.1, 0.1, 0.1, 5, 5, 20)
        assert set(rep.margins) == {
            "dimension", "a_plus_b_plus_c",
            "mean_shrink_linear", "mean_shrink_lhs", "mean_shrink_rhs",
            "zero_shrink_linear", "zero_shrink_lhs", "zero_shrink_rhs",
        }

    def test_proper_prior_needs_c_above_one(self):
        rep = check_hb2_conditions(0.1, 0.1, 1.5, 5, 5, 20)
        assert rep.proper_prior is True
        # Propriety does not buy minimaxity: the zero-shrink inequality
        # fails at this c.
        assert rep.minimax is False
        assert rep.margins["zero_shrink_linear"] < 0.0

    def test_four_dimensions_never_minimax(self):
        # At p = 4 the zero-shrink bound p(n-2)/2 - 2n is -4 for every n,
        # so no nonnegative hyperparameters can satisfy it.
        for n in (10, 20, 50, 200):
            for abc in ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (1.0, 0.5, 0.2)):
                rep = check_hb2_conditions(*abc, 4, 5, n)
                assert rep.minimax is False
                assert rep.margins["zero_shrink_rhs"] == approx(-4.0)

    def test_large_b_fails_zero_shrink(self):
        rep = check_hb2_conditions(0.1, 10.0, 0.1, 5, 5, 40)
        assert rep.minimax is False
        assert rep.margins["zero_shrink_linear"] < 0.0

    def test_three_dimensions_with_two_groups(self):
        rep = check_hb2_conditions(0.1, 5.0, 0.1, 3, 2, 20)
        assert rep.minimax is False


class TestPrial:
    def test_published_table_entries(self):
        assert prial(25.0, 6.475) == approx(74.1)
        assert prial(25.0, 25.0) == 0.0
        assert prial(25.0, 27.9) == approx(-11.6)

    def test_vectorized(self):
        out = prial(25.0, np.array([6.475, 25.0, 27.9]))
        assert out == approx([74.1, 0.0, -11.6])

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError, match="positive"):
            prial(0.0, 5.0)
        with pytest.raises(ValueError, match="positive"):
            prial(np.nan, 5.0)
        with pytest.raises(ValueError, match="positive and finite"):
            prial(np.inf, 5.0)
