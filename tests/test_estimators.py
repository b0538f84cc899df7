"""Estimator behavior on hand-checkable models.

Most anchors use the two-group model with x1 = 0, x2 = (2, 2, 2), identity
scales, s = 10, n = 10. There the pooled mean is (1, 1, 1) and both
statistics equal 0.6, so every shrink factor reduces to small fractions:
the groupwise zero-shrink keeps 1 - 10/144 of group two, and the capped
factors all equal 1/(12 * 0.6) = 5/36.
"""

import importlib
import inspect
import pkgutil
from functools import cached_property

import numpy as np
import pytest
from pytest import approx

import kshrink
import oracles
from kshrink import CanonicalModel, Hyperparameters, LossSpec, pooled_summary
from kshrink.estimators import (
    BATCH_ESTIMATORS,
    ESTIMATOR_ORDER,
    ESTIMATORS,
    PreconditionError,
    ShrinkageFunctions,
    eb_member,
    eb_members,
    estimate_eb1,
    estimate_eb2,
    estimate_general,
    estimate_hb1,
    estimate_hb2,
    estimate_js1,
    estimate_js2,
    estimate_pt,
    estimate_pt_star,
    estimate_unshrunk,
    resolve_estimator,
)
from kshrink.model import PooledBatch, PooledConstants
from kshrink.montecarlo import (
    ExperimentConfig,
    MeanConfig,
    run_experiment,
    uer_members,
    validate_uer,
)

J = np.ones(3)


def d0_model():
    x = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
    v = np.array([np.eye(3), np.eye(3)])
    return CanonicalModel(x=x, v=v, s=10.0, n=10)


@pytest.fixture()
def d0():
    model = d0_model()
    ls = LossSpec.inverse_v(model)
    return model, ls, pooled_summary(model, ls)


def random_model(rng, p=3, k=4, n=12):
    x = rng.normal(size=(k, p))
    v = np.empty((k, p, p))
    for i in range(k):
        m = rng.normal(size=(p, p))
        v[i] = m @ m.T + p * np.eye(p)
    return CanonicalModel(x=x, v=v, s=float(rng.uniform(5.0, 15.0)), n=n)


class TestUnshrunk:
    def test_returns_observations(self, d0):
        model, ls, ps = d0
        est = estimate_unshrunk(model, ls, ps)
        assert est.mu_hat == approx(model.x)
        assert est.diagnostics == {}

    def test_estimates_are_read_only(self, d0):
        model, ls, ps = d0
        est = estimate_unshrunk(model, ls, ps)
        with pytest.raises(ValueError):
            est.mu_hat[0, 0] = 99.0


class TestJs1:
    def test_anchor(self, d0):
        model, ls, _ = d0
        est = estimate_js1(model, ls)
        assert est.mu_hat[0] == approx(np.zeros(3))
        assert est.mu_hat[1] == approx(1.8611111111111112 * J)
        assert est.diagnostics["retained_1"] == approx(1.0 - 10.0 / 144.0)

    def test_zero_group_left_alone(self, d0):
        model, ls, _ = d0
        est = estimate_js1(model, ls)
        assert est.diagnostics["retained_0"] == 1.0

    def test_negative_retention_flips_sign(self):
        # A tiny observation gets over-shrunk straight through zero: the
        # paper's rule has no positive part.
        x = np.array([[0.1, 0.1, 0.1], [2.0, 2.0, 2.0]])
        v = np.array([np.eye(3), np.eye(3)])
        model = CanonicalModel(x=x, v=v, s=10.0, n=10)
        est = estimate_js1(model, LossSpec.inverse_v(model))
        assert est.diagnostics["retained_0"] < 0.0
        assert est.mu_hat[0, 0] < 0.0

    def test_norm_uses_inverse_scale_metric(self):
        # Inflating a group's scale matrix shrinks its inverse-metric norm
        # and therefore strengthens the pull toward zero.
        x = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
        v = np.array([np.eye(3), 4.0 * np.eye(3)])
        model = CanonicalModel(x=x, v=v, s=10.0, n=10)
        ls = LossSpec.inverse_v(model)
        est = estimate_js1(model, ls)
        assert est.diagnostics["retained_1"] < est.diagnostics["retained_0"]

    def test_needs_three_dimensions(self):
        x = np.zeros((2, 2))
        v = np.array([np.eye(2), np.eye(2)])
        model = CanonicalModel(x=x, v=v, s=1.0, n=5)
        with pytest.raises(PreconditionError, match="p >= 3"):
            estimate_js1(model, LossSpec.inverse_v(model))


class TestJs2:
    def test_anchor(self, d0):
        model, ls, _ = d0
        est = estimate_js2(model, ls)
        assert est.diagnostics["retained"] == approx(1.0 - 40.0 / 144.0)
        assert est.mu_hat[1] == approx(1.4444444444444444 * J)
        assert est.mu_hat[0] == approx(np.zeros(3))

    def test_single_factor_across_groups(self, d0):
        model, ls, _ = d0
        est = estimate_js2(model, ls)
        ratio = est.mu_hat[1][0] / model.x[1][0]
        assert est.mu_hat == approx(ratio * model.x)

    def test_scalar_groups_allowed_when_pooled(self):
        # p = 1 is fine here as long as p * k >= 3.
        x = np.array([[1.0], [2.0], [3.0]])
        v = np.ones((3, 1, 1))
        model = CanonicalModel(x=x, v=v, s=4.0, n=8)
        est = estimate_js2(model, LossSpec.inverse_v(model))
        assert np.all(np.isfinite(est.mu_hat))

    def test_rejects_two_total_coordinates(self):
        x = np.array([[1.0], [2.0]])
        v = np.ones((2, 1, 1))
        model = CanonicalModel(x=x, v=v, s=4.0, n=8)
        with pytest.raises(PreconditionError, match="p\\*k >= 3"):
            estimate_js2(model, LossSpec.inverse_v(model))


class TestPreliminaryTest:
    def test_pools_below_threshold(self, d0):
        model, ls, ps = d0
        est = estimate_pt(model, ls, ps)
        assert est.diagnostics["kept_separate"] is False
        assert est.diagnostics["threshold"] == approx(1.1124795132473697, rel=1e-6)
        assert est.mu_hat == approx(np.vstack([J, J]))

    def test_keeps_separate_above_threshold(self, d0):
        model, ls, ps = d0
        loose = Hyperparameters(alpha=0.9)
        est = estimate_pt(model, ls, ps, loose)
        assert est.diagnostics["kept_separate"] is True
        assert est.mu_hat == approx(model.x)

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_under_an_ill_conditioned_inverse_scale_loss(self, seed):
        # Scale matrices of condition 1e8, well inside MAX_CONDITION, leave
        # v @ inv(v) more than 1e-9 from the identity. q=None is still the
        # inverse-scale loss, and PT and PT* run on it.
        rng = np.random.default_rng(seed)
        rotations = [np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(3)]
        v = np.stack([r @ np.diag(np.geomspace(1.0, 1e8, 4)) @ r.T for r in rotations])
        model = CanonicalModel(x=rng.normal(size=(3, 4)), v=v, s=2.0, n=10)
        ls = LossSpec.inverse_v(model)
        for estimate in (estimate_pt, estimate_pt_star):
            assert estimate(model, ls).mu_hat.shape == (3, 4)
        assert ls.inverse and not ls.matches_inverse_v(model)
        by_none = LossSpec.for_model(model, None)
        assert by_none.inverse and by_none.eig_floor == 1.0
        assert np.array_equal(by_none.q, ls.q)
        cfg = ExperimentConfig(
            n=10, sigma2=1.0, v=v,
            mean_configs=(MeanConfig("zero", np.zeros((3, 4))),),
            estimators=("PT", "PT*"), replicates=64,
        )
        table = run_experiment(cfg)
        assert table.errors == {}
        assert np.isfinite(table.risk).all()

    def test_requires_inverse_scale_loss(self, d0):
        model, _, _ = d0
        q = np.array([np.eye(3), 2.0 * np.eye(3)])
        ls = LossSpec.for_model(model, q)
        with pytest.raises(PreconditionError, match="inverses of the scale"):
            estimate_pt(model, ls)


class TestPreliminaryTestStar:
    def test_anchor(self, d0):
        model, ls, ps = d0
        est = estimate_pt_star(model, ls, ps)
        assert est.diagnostics["zero_shrink"] == approx(5.0 / 36.0)
        assert est.mu_hat[0] == approx(0.8611111111111112 * J)
        assert est.mu_hat[1] == approx(0.8611111111111112 * J)

    def test_zero_shrink_applies_even_when_separate(self, d0):
        model, ls, ps = d0
        est = estimate_pt_star(model, ls, ps, Hyperparameters(alpha=0.9))
        assert est.diagnostics["kept_separate"] is True
        assert est.mu_hat == approx(model.x - (5.0 / 36.0) * J)

    def test_zero_pooled_mean_is_fixed_point(self):
        x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        v = np.array([np.eye(3), np.eye(3)])
        model = CanonicalModel(x=x, v=v, s=10.0, n=10)
        ls = LossSpec.inverse_v(model)
        est = estimate_pt_star(model, ls)
        base = estimate_pt(model, ls)
        assert est.mu_hat == approx(base.mu_hat)


class TestEmpiricalShrink:
    def test_eb1_anchor(self, d0):
        model, ls, ps = d0
        est = estimate_eb1(model, ls, ps)
        assert est.diagnostics["mean_shrink"] == approx(5.0 / 36.0)
        assert est.mu_hat[0] == approx(0.1388888888888889 * J)
        assert est.mu_hat[1] == approx(1.8611111111111112 * J)

    def test_eb1_cap_gives_full_pooling(self):
        # Nearly equal observations push the raw factor past one; the cap
        # turns the estimate into the pooled mean exactly.
        x = np.array([[1.0, 1.0, 1.0], [1.0 + 1e-6, 1.0, 1.0]])
        v = np.array([np.eye(3), np.eye(3)])
        model = CanonicalModel(x=x, v=v, s=10.0, n=10)
        ls = LossSpec.inverse_v(model)
        ps = pooled_summary(model, ls)
        est = estimate_eb1(model, ls, ps)
        assert est.diagnostics["mean_shrink"] == 1.0
        assert est.mu_hat == approx(np.vstack([ps.pooled_mean[0], ps.pooled_mean[0]]))

    def test_eb1_needs_enough_residual_dimensions(self):
        x = np.zeros((2, 2))
        v = np.array([np.eye(2), np.eye(2)])
        model = CanonicalModel(x=x, v=v, s=1.0, n=5)
        with pytest.raises(PreconditionError, match="p\\(k-1\\) >= 3"):
            estimate_eb1(model, LossSpec.inverse_v(model))

    def test_eb2_anchors(self, d0):
        model, ls, ps = d0
        est = estimate_eb2(model, ls, ps)
        # Both capped factors are 5/36 here and the first group sits at
        # minus the pooled mean times the mean-shrink, so it cancels to zero.
        assert est.mu_hat[0] == approx(np.zeros(3), abs=1e-15)
        assert est.mu_hat[1] == approx(1.7222222222222223 * J)
        assert est.diagnostics["zero_shrink"] == approx(5.0 / 36.0)

    def test_eb2_reduces_to_eb1_plus_pooled_pull(self, d0):
        model, ls, ps = d0
        base = estimate_eb1(model, ls, ps)
        est = estimate_eb2(model, ls, ps)
        pull = est.diagnostics["zero_shrink"] * ps.pooled_mean[0]
        assert est.mu_hat == approx(base.mu_hat - pull)


class TestHierarchicalShrink:
    def test_hb1_matches_integral_oracle(self, d0):
        model, ls, ps = d0
        est = estimate_hb1(model, ls, ps)
        slow = oracles.hb1_phi_riemann(0.6, 3, 2, 10, 0.1, 0.1, panels=2_000_000)
        assert est.diagnostics["mean_shrink"] == approx(slow / 0.6, rel=1e-8)
        assert est.mu_hat[1] == approx((2.0 - slow / 0.6) * J, rel=1e-8)

    def test_hb1_shrink_fraction_decays_with_separation(self, d0):
        # The fraction removed never exceeds its small-residual limit
        # (m+a)/(m+a+1) = 1.6/2.6 here, and wider separation weakens it.
        model, ls, ps = d0
        est = estimate_hb1(model, ls, ps)
        assert 0.0 < est.diagnostics["mean_shrink"] < 1.6 / 2.6
        wide = CanonicalModel(
            x=5.0 * model.x, v=model.v, s=model.s, n=model.n
        )
        far = estimate_hb1(wide, LossSpec.inverse_v(wide))
        assert far.diagnostics["mean_shrink"] < est.diagnostics["mean_shrink"]

    def test_hb1_rejects_unstable_hyperparameters(self, d0):
        model, ls, ps = d0
        with pytest.raises(PreconditionError):
            estimate_hb1(model, ls, ps, Hyperparameters(a=3.0, c=3.0))

    def test_hb2_matches_integral_oracle(self, d0):
        model, ls, ps = d0
        est = estimate_hb2(model, ls, ps)
        phi, psi = oracles.hb2_factors_riemann(
            0.6, 0.6, 10.0, 3, 2, 10, 0.1, 0.1, 0.1, base_n=1200
        )
        assert est.diagnostics["mean_shrink"] == approx(phi / 0.6, rel=1e-9)
        assert est.diagnostics["zero_shrink"] == approx(psi / 0.6, rel=1e-9)

    def test_hb2_symmetric_statistics_cancel_at_zero_group(self, d0):
        # With equal exponents and equal statistics the two factors agree,
        # so the group at the origin stays at the origin.
        model, ls, ps = d0
        est = estimate_hb2(model, ls, ps)
        assert est.mu_hat[0] == approx(np.zeros(3), abs=1e-9)

    def test_hb2_scale_equivariant_without_tilt(self, d0):
        model, ls, ps = d0
        doubled = CanonicalModel(x=2.0 * model.x, v=model.v, s=4.0 * model.s, n=model.n)
        ls2 = LossSpec.inverse_v(doubled)
        est = estimate_hb2(model, ls, ps)
        est2 = estimate_hb2(doubled, ls2)
        assert est2.mu_hat == approx(2.0 * est.mu_hat, rel=1e-9)


class TestDegenerateModels:
    def test_all_estimators_finite_when_groups_coincide(self):
        x = np.vstack([1.5 * J, 1.5 * J])
        v = np.array([np.eye(3), np.eye(3)])
        model = CanonicalModel(x=x, v=v, s=10.0, n=10)
        ls = LossSpec.inverse_v(model)
        for name, fn in ESTIMATORS.items():
            est = fn(model, ls)
            assert np.all(np.isfinite(est.mu_hat)), name

    def test_all_estimators_finite_at_the_origin(self):
        x = np.zeros((2, 3))
        v = np.array([np.eye(3), np.eye(3)])
        model = CanonicalModel(x=x, v=v, s=10.0, n=10)
        ls = LossSpec.inverse_v(model)
        for name, fn in ESTIMATORS.items():
            est = fn(model, ls)
            assert est.mu_hat == approx(np.zeros((2, 3)), abs=1e-12), name


class TestEquivariance:
    @pytest.mark.parametrize("name", ESTIMATOR_ORDER)
    def test_rotation_commutes(self, name):
        # With identity scales, rotating every observation rotates every
        # estimate; all statistics are rotation invariant.
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        x = rng.normal(size=(4, 3))
        v = np.array([np.eye(3)] * 4)
        model = CanonicalModel(x=x, v=v, s=8.0, n=12)
        rotated = CanonicalModel(x=x @ q.T, v=v, s=8.0, n=12)
        fn = ESTIMATORS[name]
        a = fn(model, LossSpec.inverse_v(model))
        b = fn(rotated, LossSpec.inverse_v(rotated))
        assert b.mu_hat == approx(a.mu_hat @ q.T, abs=1e-9)


class TestGeneralClass:
    def test_capped_members_reproduce_empirical_pair(self):
        # The capped factors written out here, apart from eb_members, are the
        # reference: EB, EB* and PT*'s zero-shrink must match them bit for bit.
        rng = np.random.default_rng(19)
        t1 = (3.0 * 3.0 - 2.0) / (12.0 + 2.0)
        t2 = (3.0 - 2.0) / (12.0 + 2.0)
        mean_only = ShrinkageFunctions(
            phi=lambda f, g, s: np.minimum(t1, f),
            psi=lambda f, g, s: np.zeros_like(np.asarray(g, dtype=float)),
        )
        double = ShrinkageFunctions(
            phi=lambda f, g, s: np.minimum(t1, f),
            psi=lambda f, g, s: np.minimum(t2, g),
        )
        for _ in range(5):
            model = random_model(rng)
            ls = LossSpec.inverse_v(model)
            ps = pooled_summary(model, ls)
            want1 = estimate_general(model, ls, mean_only, ps)
            got1 = estimate_eb1(model, ls, ps)
            assert np.array_equal(got1.mu_hat, want1.mu_hat)
            assert got1.diagnostics == {
                key: want1.diagnostics[key] for key in ("residual_stat", "mean_shrink")
            }
            want2 = estimate_general(model, ls, double, ps)
            got2 = estimate_eb2(model, ls, ps)
            assert np.array_equal(got2.mu_hat, want2.mu_hat)
            assert got2.diagnostics == want2.diagnostics
            pt_star = estimate_pt_star(model, ls, ps)
            assert pt_star.diagnostics["zero_shrink"] == want2.diagnostics["zero_shrink"]
        # validate checks the risk identity on these same objects, not on copies.
        (_, eb), (_, eb_star), _ = uer_members(3, 4, 12)
        assert (eb, eb_star) == eb_members(3, 4, 12)

    @pytest.mark.parametrize("p, k", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (5, 5)])
    def test_eb_member_refuses_where_its_kernel_does(self, p, k):
        # validate skips the risk checks of a member where eb_member refuses,
        # so it must refuse exactly where the kernel does, with its message.
        model = CanonicalModel(x=np.ones((k, p)), v=np.stack([np.eye(p)] * k), s=1.0, n=20)
        batch = pooled_summary(model, LossSpec.inverse_v(model))
        for name, star in (("EB", False), ("EB*", True)):
            try:
                BATCH_ESTIMATORS[name](Hyperparameters(), batch)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as raised:
                    eb_member(batch.constants, star)
                assert str(raised.value) == str(exc)
            else:
                assert eb_member(batch.constants, star) is eb_members(p, k, 20)[star]

    @pytest.mark.parametrize("p, k, n", [(3, 4, 12), (5, 3, 20)])
    def test_js2_is_a_class_member(self, p, k, n):
        """JS2 is the member phi = c f/(f+g), psi = c g/(f+g), c = (pk-2)/(n+2).

        phi/f = psi/g = c/(f+g), and under inverse-scale loss (f + g) s is
        x's squared norm in the inv(v) metric, so the member keeps JS2's one
        fraction of every group. Only inverse-scale loss is compared: JS2
        applies no direction maps, while the class's shrink terms act
        through them, so under any other q the two estimators differ.
        """
        c = (p * k - 2.0) / (n + 2.0)

        d = lambda f, g: c / (f + g) ** 2
        zero = lambda f, g, s: np.zeros_like(np.asarray(f, dtype=float))
        js2 = ShrinkageFunctions(
            phi=lambda f, g, s: c * f / (f + g),
            psi=lambda f, g, s: c * g / (f + g),
            phi_f=lambda f, g, s: g * d(f, g),
            phi_g=lambda f, g, s: -f * d(f, g),
            phi_s=zero,
            psi_f=lambda f, g, s: -g * d(f, g),
            psi_g=lambda f, g, s: f * d(f, g),
            psi_s=zero,
        )
        rng = np.random.default_rng(p * k)
        for _ in range(5):
            model = random_model(rng, p, k, n)
            assert np.any(model.v[:, 0, 1] != 0.0)
            ls = LossSpec.inverse_v(model)
            ps = pooled_summary(model, ls)
            want = estimate_js2(model, ls, ps).mu_hat
            got = estimate_general(model, ls, js2, ps).mu_hat
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # The unbiased risk estimate of the member matches its Monte Carlo
        # loss. (At 4000 replicates the zero mean of (3, 4, 12) reads 3.1
        # standard errors, a tail event of the first draws: 1.7 at 20000.)
        means = (np.zeros((k, p)), rng.normal(size=(k, p)))
        cfg = ExperimentConfig(
            n=n, sigma2=2.0, v=model.v,
            mean_configs=tuple(MeanConfig(f"m{i}", mu) for i, mu in enumerate(means)),
            replicates=20000,
        )
        (report,) = validate_uer(cfg, [js2])
        assert report.passed

    def test_zero_functions_reproduce_observations(self, d0):
        model, ls, ps = d0
        sf = ShrinkageFunctions(
            phi=lambda f, g, s: np.zeros_like(np.asarray(f, dtype=float)),
            psi=lambda f, g, s: np.zeros_like(np.asarray(g, dtype=float)),
        )
        est = estimate_general(model, ls, sf, ps)
        assert est.mu_hat == approx(model.x)

    def test_missing_partials(self):
        zero = lambda f, g, s: 0.0
        partial = ShrinkageFunctions(phi=zero, psi=zero, phi_f=zero)
        assert partial.missing_partials() == ("phi_g", "phi_s", "psi_f", "psi_g", "psi_s")
        full = ShrinkageFunctions(
            phi=zero, psi=zero,
            phi_f=zero, phi_g=zero, phi_s=zero,
            psi_f=zero, psi_g=zero, psi_s=zero,
        )
        assert full.missing_partials() == ()


class TestBatch:
    def test_direction_maps_are_built_once_per_batch(self, monkeypatch):
        built = []
        for name in ("toward_pooled", "toward_zero"):
            build = getattr(PooledBatch, name).func

            def counting(batch, build=build, name=name):
                built.append(name)
                return build(batch)

            prop = cached_property(counting)
            prop.__set_name__(PooledBatch, name)
            monkeypatch.setattr(PooledBatch, name, prop)
        rng = np.random.default_rng(4)
        model = random_model(rng)
        constants = PooledConstants.from_model(model, LossSpec.inverse_v(model))
        batch = constants.summarize(
            rng.normal(size=(6, model.k, model.p)), rng.uniform(5.0, 15.0, 6)
        )
        for name in ("EB", "EB*", "HB1", "HB2"):
            BATCH_ESTIMATORS[name](Hyperparameters(), batch)
        assert sorted(built) == ["toward_pooled", "toward_zero"]

    def test_single_shot_estimators_share_one_summary(self, monkeypatch):
        # The one-row batch pooled_summary returns is what the kernels run
        # on, so estimators handed the same summary build the maps once.
        built = []
        build = PooledBatch.toward_pooled.func

        def counting(batch):
            built.append(batch)
            return build(batch)

        prop = cached_property(counting)
        prop.__set_name__(PooledBatch, "toward_pooled")
        monkeypatch.setattr(PooledBatch, "toward_pooled", prop)
        model = random_model(np.random.default_rng(6))
        ls = LossSpec.inverse_v(model)
        summary = pooled_summary(model, ls)
        assert isinstance(summary, PooledBatch) and summary.x.shape == (1, model.k, model.p)
        shared = [ESTIMATORS[name](model, ls, summary) for name in ("EB", "EB*", "HB1", "HB2")]
        assert built == [summary]
        for name, est in zip(("EB", "EB*", "HB1", "HB2"), shared):
            alone = ESTIMATORS[name](model, ls)
            assert np.array_equal(est.mu_hat, alone.mu_hat), name
            assert est.diagnostics == alone.diagnostics, name


class TestRegistry:
    def test_order_covers_registry_minus_baseline(self):
        assert set(ESTIMATOR_ORDER) == set(ESTIMATORS) - {"X"}

    def test_aliases(self):
        assert resolve_estimator("EB1") == "EB"
        assert resolve_estimator("EB2") == "EB*"
        assert ESTIMATORS[resolve_estimator("HB1")] is estimate_hb1

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown estimator"):
            resolve_estimator("ridge")

    def test_diagnostics_are_flat_scalars(self, d0):
        model, ls, ps = d0
        for name, fn in ESTIMATORS.items():
            est = fn(model, ls, ps)
            for key, value in est.diagnostics.items():
                assert isinstance(value, (float, bool)), (name, key)


class TestSignatures:
    """Every registered estimator is called the same way: (model, ls, summary=None, hyper=None)."""

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_registered_estimators_share_one_signature(self, name):
        params = inspect.signature(ESTIMATORS[name]).parameters
        assert list(params) == ["model", "ls", "summary", "hyper"]
        assert [p.default for p in params.values()] == [
            inspect.Parameter.empty, inspect.Parameter.empty, None, None
        ]

    def test_no_positive_part_parameter(self):
        # Config objects count too: a class's signature lists its fields.
        signatures = TestFixedTolerances.signatures()
        assert {"kshrink.estimators.estimate_js1", "kshrink.ExperimentConfig"} <= set(signatures)
        takes = {
            label for label, params in signatures.items()
            if any("positive_part" in param for param in params)
        }
        assert takes == set()


class TestFixedTolerances:
    """Every path runs under the constants of kshrink.tolerances; no call takes other values."""

    @staticmethod
    def signatures():
        """(label, parameter names) of every public callable and of the configuration methods."""
        found = {}
        for module in (kshrink, kshrink.model, kshrink.numerics, kshrink.estimators,
                       kshrink.risk, kshrink.montecarlo):
            for name in module.__all__:
                obj = getattr(module, name)
                if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
                    found[f"{module.__name__}.{name}"] = obj
        found.update({f"ESTIMATORS[{n}]": f for n, f in ESTIMATORS.items()})
        found.update({f"BATCH_ESTIMATORS[{n}]": f for n, f in BATCH_ESTIMATORS.items()})
        for cls in (kshrink.ExperimentConfig, LossSpec, PooledConstants):
            for name in vars(cls):
                member = getattr(cls, name)
                routine = inspect.isfunction(member) or inspect.ismethod(member)
                if routine and not name.startswith("_"):
                    found[f"{cls.__name__}.{name}"] = member
        return {label: set(inspect.signature(obj).parameters) for label, obj in found.items()}

    def test_no_tolerance_parameter(self):
        signatures = self.signatures()
        assert "kshrink.montecarlo.run_experiment" in signatures
        assert "LossSpec.matches_inverse_v" in signatures
        takes = {label for label, params in signatures.items() if params & {"tol", "rtol"}}
        assert takes == set()

    @staticmethod
    def package_routines():
        """(label, routine) of every function and method that a kshrink module defines."""
        found = {}
        for info in pkgutil.iter_modules(kshrink.__path__):
            module = importlib.import_module(f"kshrink.{info.name}")
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for member in vars(obj):
                        routine = getattr(obj, member)
                        if inspect.isfunction(routine) or inspect.ismethod(routine):
                            found[f"{module.__name__}.{name}.{member}"] = routine
                elif callable(obj):
                    found[f"{module.__name__}.{name}"] = obj
        return found

    def test_rel_tol_only_on_the_standalone_integrator(self):
        # integrate_adaptive_1d, which no HB factor calls, keeps its own
        # stopping tolerance; the HB2 rule reads QUAD_REL.
        routines = self.package_routines()
        assert {"kshrink.numerics.hb2_factors", "kshrink.numerics._by_rule",
                "kshrink.cli.main"} <= set(routines)
        takes = {
            label for label, routine in routines.items()
            if "rel_tol" in inspect.signature(routine).parameters
        }
        assert takes == {"kshrink.numerics.integrate_adaptive_1d"}

    def test_numerics_restates_no_hyperparameter_default(self):
        # Hyperparameters and LossSpec.inverse_v hold the defaults of the
        # prior constants and of eig_floor once.
        routines = {
            label: routine for label, routine in self.package_routines().items()
            if label.startswith("kshrink.numerics.")
        }
        assert {"kshrink.numerics.hb1_phi", "kshrink.numerics.hb1_shrink_ratio",
                "kshrink.numerics.HbExponents.from_model"} <= set(routines)
        defaulted = {
            (label, name)
            for label, routine in routines.items()
            for name, param in inspect.signature(routine).parameters.items()
            if name in {"a", "b", "c", "eig_floor"} and param.default is not param.empty
        }
        assert defaulted == set()
