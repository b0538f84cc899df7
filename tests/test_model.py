"""Canonical model construction, validation, reductions, pooled statistics."""

import ast
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from kshrink import model
from kshrink.model import (
    CanonicalModel,
    Hyperparameters,
    LossSpec,
    PooledBatch,
    PooledConstants,
    TrueParameters,
    canonicalize_ksample,
    canonicalize_regression,
    pooled_summary,
    _LONG_MAPS_MAX_P,
    _diagonal,
    apply_maps,
    quad_forms,
)
from kshrink.montecarlo import ExperimentConfig, MeanConfig


def d0_model():
    # Two groups in dimension 3, identity scales; worked by hand throughout.
    x = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
    v = np.stack([np.eye(3), np.eye(3)])
    return CanonicalModel(x=x, v=v, s=10.0, n=10)


class TestCanonicalModel:
    def test_shapes_and_properties(self):
        m = d0_model()
        assert m.k == 2
        assert m.p == 3
        assert m.x.shape == (2, 3)
        assert m.v.shape == (2, 3, 3)

    def test_shared_v_broadcasts(self):
        m = CanonicalModel(x=np.zeros((4, 2)), v=np.eye(2), s=1.0, n=3)
        assert m.v.shape == (4, 2, 2)
        assert np.array_equal(m.v[3], np.eye(2))

    def test_n_is_an_integer(self):
        assert type(CanonicalModel(x=np.zeros((2, 3)), v=np.eye(3), s=1.0, n=np.int64(5)).n) is int
        with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.7$"):
            CanonicalModel(x=np.zeros((2, 3)), v=np.eye(3), s=1.0, n=2.7)

    def test_immutable(self):
        m = d0_model()
        with pytest.raises(ValueError):
            m.x[0, 0] = 5.0

    def test_rejects_wrong_v_shape(self):
        with pytest.raises(ValueError):
            CanonicalModel(x=np.zeros((2, 3)), v=np.zeros((2, 2, 2)), s=1.0, n=5)

    def test_bad_scalars_surface_in_the_pooled_summary(self):
        # Construction is shape-checked only; scalar invariants are checked
        # where the pooled statistics are built.
        m = CanonicalModel(x=np.zeros((2, 3)), v=np.eye(3), s=-1.0, n=5)
        assert _raised(lambda: pooled_summary(m, LossSpec.inverse_v(m))) == [
            "invalid model: s must be positive and finite, got -1.0"
        ]
        m = CanonicalModel(x=np.zeros((1, 3)), v=np.eye(3), s=1.0, n=5)
        assert _raised(lambda: pooled_summary(m, LossSpec.inverse_v(m))) == [
            "invalid model: need at least 2 groups, got k=1"
        ]


class TestModelChecks:
    def test_valid_model_passes(self):
        m = d0_model()
        assert pooled_summary(m, LossSpec.inverse_v(m)).residual_stat.shape == (1,)

    def test_asymmetric_v_flagged(self):
        v = np.stack([np.eye(3), np.eye(3)])
        v[1, 0, 1] = 1e-6  # breaks symmetry beyond the 1e-10 tolerance
        m = CanonicalModel(x=np.zeros((2, 3)), v=v, s=1.0, n=5)
        assert _raised(lambda: pooled_summary(m, LossSpec.inverse_v(m))) == [
            "v[1] is not symmetric within tolerance 1e-10"
        ]

    def test_indefinite_v_flagged(self):
        v = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])])
        m = CanonicalModel(x=np.zeros((2, 3)), v=v, s=1.0, n=5)
        assert _raised(lambda: pooled_summary(m, LossSpec.inverse_v(m))) == [
            "v[1] is not positive definite (min eigenvalue -1.000e+00)"
        ]

    def test_zero_scale_flagged(self):
        m = CanonicalModel(x=np.zeros((2, 3)), v=np.eye(3), s=0.0, n=5)
        assert _raised(lambda: PooledConstants.from_model(m, LossSpec.inverse_v(m))) == [
            "invalid model: s must be positive and finite, got 0.0"
        ]

    def test_every_violation_in_one_error(self):
        x = np.zeros((1, 3))
        x[0, 1] = np.nan
        m = CanonicalModel(x=x, v=np.eye(3), s=-1.0, n=5)
        assert _raised(lambda: PooledConstants.from_model(m, LossSpec.inverse_v(m))) == [
            "invalid model: x has non-finite entries; need at least 2 groups, got k=1; "
            "s must be positive and finite, got -1.0"
        ]


class TestLossSpec:
    def test_inverse_v_eig_floor_is_one(self):
        ls = LossSpec.inverse_v(d0_model())
        assert ls.eig_floor == 1.0
        assert ls.matches_inverse_v(d0_model())

    def test_general_q_eig_floor(self):
        m = d0_model()
        q = np.stack([2.0 * np.eye(3), 0.5 * np.eye(3)])
        ls = LossSpec.for_model(m, q)
        # V = I, so the eigenvalues of VQ are just the q scales.
        assert ls.eig_floor == approx(0.5)
        assert not ls.matches_inverse_v(m)

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            LossSpec.for_model(d0_model(), np.stack([np.eye(3), -np.eye(3)]))

    def test_inverse_of_q_is_derived_by_the_factories(self):
        model = d0_model()
        spec = LossSpec.inverse_v(model)
        np.testing.assert_allclose(spec.q_inv, model.v, rtol=1e-12)
        with pytest.raises(TypeError):
            LossSpec(q=spec.q, eig_floor=1.0, q_inv=model.v)
        by_hand = LossSpec(q=spec.q, eig_floor=1.0)
        assert _raised(lambda: PooledConstants.from_model(model, by_hand)) == [
            "invalid model: loss q is unguarded: build the LossSpec with for_model or inverse_v"
        ]


def _nan_entry():
    m = np.eye(3)
    m[0, 1] = np.nan
    return m


def _asymmetric():
    m = np.eye(3)
    m[0, 1] = 1e-6
    return m


# One bad matrix per check of the guard, with the text it must be rejected with.
BAD_MATRICES = {
    "non-finite": (_nan_entry(), "has non-finite entries"),
    "zero": (np.zeros((3, 3)), "is the zero matrix"),
    "asymmetric": (_asymmetric(), "is not symmetric within tolerance 1e-10"),
    "indefinite": (np.diag([1.0, 1.0, -1.0]), "is not positive definite (min eigenvalue -1.000e+00)"),
    "ill-conditioned": (
        np.diag([1.0, 1.0, 1e-13]),
        "condition number 1.000e+13 exceeds ceiling 1.0e+12",
    ),
    # Neither may overflow on the way to its message (warnings are errors here).
    "too-large": (1e200 * np.eye(3), "has entries too large to square"),
    # SPD with condition 1, but its squares underflow: not the zero matrix.
    "too-small": (1e-200 * np.eye(3), "has entries too small to square"),
    "subnormal-eigenvalue": (
        np.diag([1.0, 1.0, 5e-324]),
        "condition number inf exceeds ceiling 1.0e+12",
    ),
}


def _raised(build):
    with pytest.raises(ValueError) as raised:
        build()
    return [str(raised.value)]


def _experiment(v, q=None):
    mean = (MeanConfig.from_scales("flat", (0.0, 0.0), 3),)
    return ExperimentConfig(n=10, sigma2=1.0, v=v, q=q, mean_configs=mean)


def _via_canonicalize(stack):
    return _raised(lambda: canonicalize_ksample([np.eye(3), 2.0 * np.eye(3)], stack))


def _via_loss_spec(stack):
    return _raised(lambda: LossSpec.for_model(d0_model(), stack))


def _via_inverse_v(stack):
    model = CanonicalModel(x=np.zeros((2, 3)), v=stack, s=1.0, n=5)
    return _raised(lambda: LossSpec.inverse_v(model))


def _via_experiment_v(stack):
    return _raised(lambda: _experiment(stack).validate())


def _via_experiment_q(stack):
    return _raised(lambda: _experiment(np.stack([np.eye(3)] * 2), q=stack).validate())


# Each entry path: the name of the stack it reports, and a function from a
# (2, 3, 3) stack to the messages it rejects the stack with.
ENTRY_PATHS = {
    "canonicalize_ksample-v0": ("v0", _via_canonicalize),
    "LossSpec.for_model-q": ("q", _via_loss_spec),
    "LossSpec.inverse_v-v": ("v", _via_inverse_v),
    "ExperimentConfig.validate-v": ("v", _via_experiment_v),
    "ExperimentConfig.validate-q": ("q", _via_experiment_q),
}

@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda bad: canonicalize_ksample([np.eye(3), np.eye(3)], bad),
            "v0 must have shape (2, 3, 3), got (2, 2, 2)",
            id="v0",
        ),
        pytest.param(
            lambda bad: CanonicalModel(x=np.zeros((2, 3)), v=bad, s=1.0, n=5),
            "v must have shape (k, p, p) = (2, 3, 3), got (2, 2, 2)",
            id="v",
        ),
        pytest.param(
            lambda bad: LossSpec.for_model(d0_model(), bad),
            "q must have shape (k, p, p) = (2, 3, 3), got (2, 2, 2)",
            id="q",
        ),
    ],
)
def test_stack_shape_errors(build, message):
    with pytest.raises(ValueError) as raised:
        build(np.eye(2))
    assert str(raised.value) == message


@pytest.mark.parametrize("path", sorted(ENTRY_PATHS))
@pytest.mark.parametrize("defect", sorted(BAD_MATRICES))
def test_every_entry_path_rejects_every_bad_matrix(defect, path):
    # The second group carries the defect; the message names it and says why.
    matrix, text = BAD_MATRICES[defect]
    name, reject = ENTRY_PATHS[path]
    expected = f"{name}[1] {text}"
    assert reject(np.stack([np.eye(3), matrix])) == [expected]


def _spd(rng, p):
    a = rng.normal(size=(p, p))
    return a @ a.T + p * np.eye(p)


def _guard_messages(name, mats):
    """The "; "-joined violations _guarded_inverse raises for mats, split apart."""
    with pytest.raises(ValueError) as raised:
        model._guarded_inverse(name, mats)
    return str(raised.value).split("; ")


class TestGuardStack:
    """_guarded_inverse checks a whole stack at once and reports as a per-matrix loop would."""

    def test_mixed_stack_reports_in_stack_order(self):
        rng = np.random.default_rng(21)
        slots = []
        for defect in sorted(BAD_MATRICES):
            slots += [("good", _spd(rng, 3)), (defect, BAD_MATRICES[defect][0])]
        slots.append(("good", _spd(rng, 3)))
        stack = np.stack([m for _, m in slots])
        assert _guard_messages("v", stack) == [
            f"v[{i}] {BAD_MATRICES[kind][1]}" for i, (kind, _) in enumerate(slots)
            if kind != "good"
        ]

    def test_good_stack_inverts_as_a_loop(self):
        # The good matrices of the mixed stack above, alone: each slot has
        # the bits of its lone matrix's symmetrised inverse.
        rng = np.random.default_rng(21)
        goods = [_spd(rng, 3) for _ in range(len(BAD_MATRICES) + 1)]
        inverse = model._guarded_inverse("v", np.stack(goods))
        for i, m in enumerate(goods):
            inv = np.linalg.inv(0.5 * (m + m.T))
            assert inverse[i].tobytes() == (0.5 * (inv + inv.T)).tobytes()

    def test_all_bad_stack_calls_no_lapack(self, monkeypatch):
        overflowing = np.eye(3)
        overflowing[0, 1], overflowing[1, 0] = 1e308, -1e308
        stack = np.stack([
            BAD_MATRICES["non-finite"][0],
            np.full((3, 3), np.inf),
            BAD_MATRICES["too-large"][0],
            overflowing,
            BAD_MATRICES["zero"][0],
            BAD_MATRICES["asymmetric"][0],
            BAD_MATRICES["too-small"][0],
        ])
        for name in ("eigvalsh", "inv"):
            monkeypatch.setattr(np.linalg, name, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad = _guard_messages("q", stack)
        assert bad == [
            "q[0] has non-finite entries",
            "q[1] has non-finite entries",
            "q[2] has entries too large to square",
            "q[3] has entries too large to square",
            "q[4] is the zero matrix",
            "q[5] is not symmetric within tolerance 1e-10",
            "q[6] has entries too small to square",
        ]

    @pytest.mark.parametrize("defect", sorted(BAD_MATRICES))
    def test_single_matrix_has_no_index(self, defect):
        matrix, text = BAD_MATRICES[defect]
        assert _guard_messages("q", matrix) == [f"q {text}"]

    def test_single_good_matrix(self):
        m = _spd(np.random.default_rng(4), 4)
        inverse = model._guarded_inverse("q", m)
        inv = np.linalg.inv(0.5 * (m + m.T))
        assert inverse.tobytes() == (0.5 * (inv + inv.T)).tobytes()


@pytest.mark.parametrize("defect", ["non-finite", "zero", "indefinite"])
def test_explicit_loss_guards_v_before_factoring_it(defect):
    # An explicit q makes the loss factor each v[i] for eig_floor; v is
    # guarded first, so the message is the guard's and names v[1], worded
    # as inverse_v words it.
    matrix, text = BAD_MATRICES[defect]
    stack = np.stack([np.eye(3), matrix])
    expected = [f"v[1] {text}"]
    assert _raised(lambda: _experiment(stack, q=np.stack([np.eye(3)] * 2)).validate()) == expected
    model = CanonicalModel(x=np.zeros((2, 3)), v=stack, s=1.0, n=5)
    assert _raised(lambda: LossSpec.for_model(model, np.eye(3))) == expected


@pytest.mark.parametrize(
    "build",
    [LossSpec.inverse_v, lambda m: LossSpec.for_model(m, np.eye(3))],
    ids=["inverse_v", "for_model"],
)
def test_spec_does_not_lend_its_inverse_to_another_v(build, monkeypatch):
    # The pooled constants take inv(v) from the spec, so a spec built for
    # another v is refused before anything is factored.
    model = d0_model()
    spec = build(CanonicalModel(x=model.x, v=2.0 * model.v, s=model.s, n=model.n))
    message = "loss spec was built for a different v: build it for this model"
    for name in ("eigvalsh", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, None)
    assert _raised(lambda: PooledConstants.from_model(model, spec)) == [f"invalid model: {message}"]
    assert _raised(lambda: pooled_summary(model, spec)) == [f"invalid model: {message}"]


class TestKsampleReduction:
    def test_two_scalar_groups(self):
        # group1 = {1, 3}, group2 = {2, 2}: means (2, 2), pooled spread 2.
        m = canonicalize_ksample(
            [np.array([[1.0], [3.0]]), np.array([[2.0], [2.0]])],
            np.eye(1),
        )
        assert m.x == approx(np.array([[2.0], [2.0]]))
        assert m.v[:, 0, 0] == approx(np.array([0.5, 0.5]))
        assert m.s == approx(2.0)
        assert m.n == 2

    def test_identical_observations_give_zero_s(self):
        m = canonicalize_ksample(
            [np.array([[1.0], [1.0]]), np.array([[2.0], [2.0]])],
            np.eye(1),
        )
        assert m.s == 0.0
        # The pooled summary is where s = 0 becomes a hard failure.
        assert _raised(lambda: pooled_summary(m, LossSpec.inverse_v(m))) == [
            "invalid model: s must be positive and finite, got 0.0"
        ]

    def test_reflected_pairs(self):
        # Each group is a point plus its reflection about the mean, so s is
        # exactly the summed squared deviation under identity scales.
        g1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        g2 = np.array([[0.0, 0.0], [2.0, -2.0]])
        m = canonicalize_ksample([g1, g2], np.eye(2))
        dev = ((g1 - g1.mean(0)) ** 2).sum() + ((g2 - g2.mean(0)) ** 2).sum()
        assert m.s == approx(dev)
        assert m.n == 4

    def test_mean_that_overflows_is_named(self):
        big = np.array([[1e308, 1e308, 1.0], [1e308, 1e308, 2.0]])
        assert _raised(lambda: canonicalize_ksample([big, np.zeros((2, 3))], np.eye(3))) == [
            "samples[0] has entries too large to average"
        ]

    def test_spread_that_overflows_is_an_infinite_s(self):
        wide = np.array([[1.7e308], [-1.7e308], [1.7e308]])
        m = canonicalize_ksample([np.zeros((2, 1)), wide], np.eye(1))
        assert m.s == np.inf
        assert _raised(lambda: pooled_summary(m, LossSpec.inverse_v(m))) == [
            "invalid model: s must be positive and finite, got inf"
        ]

    def test_singleton_groups_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_ksample(
                [np.array([[1.0]]), np.array([[2.0]])], np.eye(1)
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_ksample(
                [np.zeros((3, 2)), np.zeros((3, 3))], np.eye(2)
            )


class TestRegressionReduction:
    def test_two_intercept_models(self):
        # Regression on a constant column reproduces the k-sample case.
        z = np.ones((2, 1))
        m = canonicalize_regression(
            [z, z], [np.array([1.0, 3.0]), np.array([2.0, 2.0])]
        )
        assert m.x == approx(np.array([[2.0], [2.0]]))
        assert m.v[:, 0, 0] == approx(np.array([0.5, 0.5]))
        assert m.s == approx(2.0)
        assert m.n == 2

    def test_saturated_fit_contributes_nothing(self):
        z_sq = np.array([[1.0, 0.0], [0.0, 1.0]])  # square, invertible
        z_tall = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y_sq = np.array([3.0, -1.0])
        y_tall = np.array([1.0, 1.0, 2.5])
        m = canonicalize_regression([z_sq, z_tall], [y_sq, y_tall])
        assert m.n == 1  # only the tall design has a residual df
        assert m.x[0] == approx(y_sq)
        coef = np.linalg.lstsq(z_tall, y_tall, rcond=None)[0]
        assert m.s == approx(float(((y_tall - z_tall @ coef) ** 2).sum()))

    def test_design_whose_squares_underflow_is_named(self):
        # Full column rank, but the Gram matrix underflows: to zero at 1e-200,
        # to a subnormal (about 1.4e-319, whose inverse is inf) at 1e-160.
        for scale in (1e-200, 1e-160):
            tiny = scale * np.array([[1.0], [2.0], [3.1]])
            with pytest.raises(ValueError) as info:
                canonicalize_regression([tiny, np.ones((3, 1))], [np.ones(3), np.arange(3.0)])
            assert str(info.value) == "designs[0] has entries too small to square"

    def test_rank_deficient_design_rejected(self):
        z = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(ValueError):
            canonicalize_regression([z, z], [np.zeros(3), np.zeros(3)])

    @staticmethod
    def rank_sweep_designs():
        """Seeded designs of every p in 1..6 and m in p..p+8, with near-edge variants."""
        rng = np.random.default_rng(20)
        for p in range(1, 7):
            for m in range(p, p + 9):
                z = rng.normal(size=(m, p))
                tiny = z.copy()
                tiny[:, -1] *= 1e-17
                yield z
                yield tiny
                if p >= 2:
                    dup = z.copy()
                    dup[:, -1] = dup[:, 0]
                    near = z.copy()
                    near[:, -1] = near[:, 0] + 1e-6 * rng.normal(size=m)
                    yield dup
                    yield near

    def test_rank_verdict_is_matrix_ranks(self):
        # canonicalize_regression takes the rank from lstsq; with rcond=None
        # it counts the singular values matrix_rank counts.
        rng = np.random.default_rng(5)
        seen = set()
        for z in self.rank_sweep_designs():
            m, p = z.shape
            deficient = bool(np.linalg.matrix_rank(z) < p)
            partner = rng.normal(size=(p + 3, p))
            try:
                canonicalize_regression([z, partner], [rng.normal(size=m), np.ones(p + 3)])
                rejected = False
            except ValueError as exc:
                assert str(exc) == "designs[0] is column rank deficient"
                rejected = True
            assert rejected == deficient, z
            seen.add(deficient)
        assert seen == {True, False}

    def test_all_saturated_rejected(self):
        z = np.eye(2)
        with pytest.raises(ValueError):
            canonicalize_regression([z, z], [np.zeros(2), np.zeros(2)])


class TestPooledSummary:
    """pooled_summary is the one-row PooledBatch; each statistic is read at row 0."""

    def test_d0_hand_computation(self):
        ps = pooled_summary(d0_model(), LossSpec.inverse_v(d0_model()))
        assert isinstance(ps, PooledBatch)
        assert ps.x.shape == (1, 2, 3) and ps.s.shape == (1,)
        assert ps.pooled_mean == approx(np.array([[1.0, 1.0, 1.0]]))
        assert ps.constants.pooled_cov == approx(np.eye(3) / 2.0)
        assert ps.residual_stat == approx(np.array([0.6]))
        assert ps.pooled_norm_stat == approx(np.array([0.6]))

    def test_equal_observations_zero_residual(self):
        x = np.array([[1.5, -2.0], [1.5, -2.0], [1.5, -2.0]])
        m = CanonicalModel(x=x, v=np.eye(2), s=4.0, n=6)
        ps = pooled_summary(m, LossSpec.inverse_v(m))
        assert ps.residual_stat[0] == approx(0.0, abs=1e-14)
        assert ps.pooled_mean[0] == approx(x[0])

    def test_decomposition_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k, p = rng.integers(2, 6), rng.integers(1, 5)
            x = rng.normal(size=(k, p))
            root = rng.normal(size=(k, p, p))
            v = np.einsum("kab,kcb->kac", root, root) + 3.0 * np.eye(p)
            qroot = rng.normal(size=(k, p, p))
            q = np.einsum("kab,kcb->kac", qroot, qroot) + 3.0 * np.eye(p)
            m = CanonicalModel(x=x, v=v, s=float(rng.uniform(0.5, 5.0)), n=9)
            ps = pooled_summary(m, LossSpec.for_model(m, q))
            total = sum(float(x[i] @ ps.constants.weights[i] @ x[i]) for i in range(k))
            lhs = m.s * (ps.residual_stat[0] + ps.pooled_norm_stat[0])
            assert lhs == approx(total, rel=1e-8)

    def test_congruence_equivariance(self):
        # x -> Bx, v -> BvB', q -> inv(B)' q inv(B) leaves F and G alone
        # and maps the pooled mean through B.
        rng = np.random.default_rng(21)
        m = d0_model()
        ls = LossSpec.inverse_v(m)
        ps = pooled_summary(m, ls)
        b = rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
        binv = np.linalg.inv(b)
        xt = m.x @ b.T
        vt = np.einsum("ab,kbc,dc->kad", b, m.v, b)
        vt = 0.5 * (vt + np.transpose(vt, (0, 2, 1)))
        mt = CanonicalModel(x=xt, v=vt, s=m.s, n=m.n)
        qt = np.einsum("ba,kbc,cd->kad", binv, ls.q, binv)
        qt = 0.5 * (qt + np.transpose(qt, (0, 2, 1)))
        pst = pooled_summary(mt, LossSpec.for_model(mt, qt))
        assert pst.residual_stat[0] == approx(ps.residual_stat[0], rel=1e-8)
        assert pst.pooled_norm_stat[0] == approx(ps.pooled_norm_stat[0], rel=1e-8)
        assert pst.pooled_mean[0] == approx(b @ ps.pooled_mean[0], rel=1e-8)

    def test_classical_pooled_mean(self):
        # Equal scale matrices and inverse-scale loss collapse the pooled
        # mean to the observation-count weighted average of group means.
        rng = np.random.default_rng(5)
        groups = [rng.normal(loc=i, size=(ni, 2)) for i, ni in enumerate((3, 5, 4))]
        m = canonicalize_ksample(groups, np.eye(2))
        ps = pooled_summary(m, LossSpec.inverse_v(m))
        stacked = np.concatenate(groups, axis=0)
        assert ps.pooled_mean[0] == approx(stacked.mean(axis=0))

    @pytest.mark.parametrize("inverse", [True, False], ids=["inverse-loss", "general-loss"])
    def test_constants_match_the_einsum_forms_at_p40(self, inverse):
        # weights and directions are stacked products, not the four-index
        # einsum numpy runs in O(k p^4); with a full v the sums run in
        # another order, so the two agree to rounding, not in every bit.
        # Rounding scales with a matrix's largest terms, so an entry that
        # nearly cancels is held to 1e-12 of its matrix's largest entry.
        rng = np.random.default_rng(40)
        k, p = 3, 40
        v = spd_stack(rng, k, p, full=True)
        model = CanonicalModel(x=rng.normal(size=(k, p)), v=v, s=1.0, n=50)
        if inverse:
            ls = LossSpec.inverse_v(model)
        else:
            ls = LossSpec.for_model(model, spd_stack(rng, k, p, full=True))
        constants = PooledConstants.from_model(model, ls)
        w = np.einsum("kab,kbc,kcd->kad", ls.v_inv, ls.q_inv, ls.v_inv)
        w = 0.5 * (w + np.transpose(w, (0, 2, 1)))
        directions = np.einsum("kab,kbc->kac", v, w)
        for got, want in ((constants.weights, w), (constants.directions, directions)):
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), scale))
        assert ls.inverse is inverse
        assert ls.matches_inverse_v(model) is inverse

    def test_overflowing_statistics_raise(self):
        # Observations near the top of the double range square to inf; the
        # statistics must fail by name rather than reach the estimators.
        m = CanonicalModel(x=np.array([[1e200, 0.0], [0.0, 1.0]]), v=np.eye(2), s=1.0, n=4)
        with pytest.raises(ArithmeticError, match="pooled statistics overflow"):
            pooled_summary(m, LossSpec.inverse_v(m))
        tiny = CanonicalModel(x=np.array([[1.0, 0.0], [0.0, 1.0]]), v=np.eye(2), s=5e-324, n=4)
        with pytest.raises(ArithmeticError, match="pooled statistics overflow"):
            pooled_summary(tiny, LossSpec.inverse_v(tiny))

    def test_singular_weight_sum_rejected(self):
        # Each v[i] passes the guards (condition 3.3e6) but the identity
        # loss squares that in w = inv(v) inv(q) inv(v), pushing cond(sum W)
        # past 1e12.
        v = np.stack([np.diag([1.0, 3e-7]), np.diag([1.0, 3e-7])])
        m = CanonicalModel(x=np.zeros((2, 2)), v=v, s=1.0, n=4)
        ls = LossSpec.for_model(m, np.stack([np.eye(2), np.eye(2)]))
        with pytest.raises(ValueError, match="sum of weights"):
            pooled_summary(m, ls)


def spd_stack(rng, k, p, full):
    """k well-conditioned positive definite (p, p) matrices, diagonal or full."""
    if not full:
        return np.stack([np.diag(rng.uniform(0.2, 3.0, size=p)) for _ in range(k)])
    root = rng.normal(size=(k, p, p))
    return np.einsum("kab,kcb->kac", root, root) + p * np.eye(p)


def full_path(fn, *args, **kwargs):
    """fn(*args, **kwargs) with no matrix taken as diagonal: the full matrices' einsum path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_diagonal", lambda m: None)
        return fn(*args, **kwargs)


def same_bits(got, want):
    """Equal shapes and bits, so +0.0 and -0.0 differ."""
    as_bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    return got.shape == want.shape and np.array_equal(as_bits(got), as_bits(want))


def signed_zeros(rng, shape):
    """Normal draws with about half the entries +0.0 or -0.0."""
    x = rng.normal(size=shape)
    zero = rng.random(shape) < 0.5
    x[zero] = rng.choice([-0.0, 0.0], size=int(zero.sum()))
    return x


# (k, p, R) of the diagonal path's bit checks: both sides of _LONG_MAPS_MAX_P,
# blocks shorter and longer than p, and the lone rows quad_forms doubles.
DIAGONAL_SWEEP = [
    (k, p, r)
    for k in (1, 2, 5)
    for p in (1, 2, 3, 5, 16, 17, 40)
    for r in (1, 2, 3, 4, 5, 16, 17, 300)
]


def signed_diagonal(rng, k, p):
    """A diagonal stack with entries of both signs and -0.0 off the diagonal."""
    return spd_stack(rng, k, p, full=False) * rng.choice([-1.0, 1.0], size=(k, 1, p))


def with_one_tiny_entry(m):
    """m with 1e-300 in one off-diagonal entry of its last matrix: no longer diagonal."""
    out = m.copy()
    out[-1, -1, 0] = 1e-300
    return out


class TestQuadForms:
    # The helper must keep the bits of the replicate-first einsum subscripts
    # it replaced, at block lengths the harness uses: 1, 2, 256, and a full
    # block at k = p = 5 (1310 replicates) or of p = 5 draws (6553), each
    # with its neighbours.
    @pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
    @pytest.mark.parametrize("r", [1, 2, 255, 256, 257, 1309, 1310, 1311])
    def test_stacked_forms_match_the_replicate_first_subscripts(self, r, full):
        rng = np.random.default_rng(1000 * r + full)
        for k in (1, 2, 5, 13):
            for p in (1, 2, 3, 5, 12):
                m = spd_stack(rng, k, p, full)
                x = 3.0 * rng.normal(size=(r, k, p))
                got = quad_forms(x, m)
                by_group = quad_forms(x, m, per_group=True)
                assert got.shape == (r,) and by_group.shape == (r, k)
                if r <= 2 and (k, p) == (1, 2):
                    # The one shape where the old subscripts summed a one- or
                    # two-row block in another order than a longer one; the
                    # helper sums it as they sum any block of three or more.
                    x = np.concatenate([x, x, x])
                assert np.array_equal(got, np.einsum("rka,kab,rkb->r", x, m, x)[:r])
                assert np.array_equal(got, np.einsum("...ka,kab,...kb->...", x, m, x)[:r])
                assert np.array_equal(by_group, np.einsum("rka,kab,rkb->rk", x, m, x)[:r])

    @pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
    @pytest.mark.parametrize("r", [1, 2, 255, 256, 257, 6552, 6553, 6554])
    def test_single_matrix_form_matches_the_replicate_first_subscripts(self, r, full):
        rng = np.random.default_rng(2000 * r + full)
        for p in (1, 2, 3, 5, 12):
            m = spd_stack(rng, 1, p, full)[0]
            y = 3.0 * rng.normal(size=(r, p))
            got = quad_forms(y, m)
            assert got.shape == (r,)
            if r <= 2 and p == 2:
                # As for k = 1 above: compare with a block of three or more.
                y = np.concatenate([y, y, y])
            assert np.array_equal(got, np.einsum("ra,ab,rb->r", y, m, y)[:r])

    @pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
    def test_rows_alone_match_their_block(self, full):
        # A replicate's form must not depend on how many rows share its
        # call: every run of 1, 2 or 3 rows matches the same rows of a
        # 300-row block, for both stacked forms and the one-matrix form.
        rng = np.random.default_rng(3000 + full)
        for k in range(1, 6):
            for p in range(1, 8):
                m = spd_stack(rng, k, p, full)
                x = 3.0 * rng.normal(size=(300, k, p))
                forms = [lambda z: quad_forms(z, m), lambda z: quad_forms(z, m, per_group=True)]
                if k == 1:
                    forms.append(lambda z: quad_forms(z[:, 0], m[0]))
                for form in forms:
                    block = form(x)
                    for r in (1, 2, 3):
                        for r0 in range(0, 300 - r + 1, r):
                            assert np.array_equal(form(x[r0 : r0 + r]), block[r0 : r0 + r])

    # A diagonal stack runs "kar,ka,kar" in the same layout: the same
    # (x * d) * x terms in the same (k, a) order as the full form's nonzero
    # terms, whose zero terms change no partial sum of a zero-started
    # accumulator. So the bits match, the sign of a zero sum included.
    def test_diagonal_path_keeps_the_full_paths_bits(self):
        rng = np.random.default_rng(6000)
        for k, p, r in DIAGONAL_SWEEP:
            m = signed_diagonal(rng, k, p)
            x = signed_zeros(rng, (r, k, p))
            assert _diagonal(m) is not None
            for got, want in (
                (quad_forms(x, m), full_path(quad_forms, x, m)),
                (quad_forms(x, m, True), full_path(quad_forms, x, m, True)),
                (quad_forms(x[:, 0], m[0]), full_path(quad_forms, x[:, 0], m[0])),
            ):
                assert same_bits(got, want), (k, p, r)

    def test_one_tiny_off_diagonal_entry_takes_the_full_path(self):
        # With diagonal entries near 1e-300 and coordinates near 1e150 the
        # 1e-300 entry's terms are as large as the diagonal ones, so the
        # diagonal terms alone would give other values.
        rng = np.random.default_rng(6001)
        m = 1e-300 * signed_diagonal(rng, 3, 4)
        tiny = with_one_tiny_entry(m)
        assert _diagonal(tiny) is None
        x = 1e150 * rng.uniform(1.0, 2.0, size=(20, 3, 4))
        for per_group in (False, True):
            got = quad_forms(x, tiny, per_group)
            assert same_bits(got, full_path(quad_forms, x, tiny, per_group))
            assert not np.array_equal(got, quad_forms(x, m, per_group))
        assert same_bits(quad_forms(x[:, 0], tiny[-1]), full_path(quad_forms, x[:, 0], tiny[-1]))
        assert not np.array_equal(quad_forms(x[:, 0], tiny[-1]), quad_forms(x[:, 0], m[-1]))

    def test_diagonal_overflow_is_quiet(self):
        # Warnings are errors in this suite: overflow must give inf silently.
        m = np.full((2, 3), 1e300)[..., None] * np.eye(3)
        x = np.full((5, 2, 3), 1e300)
        assert np.all(quad_forms(x, m) == np.inf)
        assert np.all(quad_forms(x, m, per_group=True) == np.inf)
        assert np.all(quad_forms(x[:, 0], m[0]) == np.inf)


def ordered_maps(m, x):
    """apply_maps' reference up to _LONG_MAPS_MAX_P: terms added one by one in b order."""
    m3 = m if m.ndim == 3 else m[None]
    x3 = x if x.ndim == 3 else x[:, None]
    acc = m3[..., 0] * x3[..., None, 0]
    for b in range(1, m3.shape[-1]):
        acc = acc + m3[..., b] * x3[..., None, b]
    return acc if m.ndim == 3 else acc[:, 0]


def replicate_first_maps(m, x):
    """apply_maps' reference past _LONG_MAPS_MAX_P: numpy's dot order over b."""
    return np.einsum("kab,rkb->rka", m, x if x.ndim == 3 else np.repeat(x[:, None], len(m), 1))


class TestApplyMaps:
    # apply_maps' summation order is fixed by p alone. Up to
    # _LONG_MAPS_MAX_P its one full-matrix layout (the replicate axis
    # innermost, a lone row run as two copies of itself) must give the
    # ordered loop's bits; past it, numpy's replicate-first dot. The
    # sweep runs blocks of 1, 2, p - 1, p and
    # p + 1 rows, and for p <= 16 also 1310 rows, the harness's block at
    # k = p = 5; p = 211 stands for the wide models, at the k = 2 of the
    # dimension ladder and at k = 1.
    @pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_summation_order_over_the_sweep(self, k, full):
        assert _LONG_MAPS_MAX_P == 16
        rng = np.random.default_rng(4000 + 10 * k + full)
        for p in [*range(1, 65), *([211] if k <= 2 else [])]:
            m = spd_stack(rng, k, p, full) * rng.choice([-1.0, 1.0], size=(k, 1, p))
            want_form = ordered_maps if p <= 16 else replicate_first_maps
            for r in sorted({1, 2, max(p - 1, 1), p, p + 1, *([1310] if p <= 16 else [])}):
                for x in (rng.normal(size=(r, k, p)), rng.normal(size=(r, p))):
                    got = apply_maps(m, x)
                    assert got.flags.c_contiguous and got.shape == (r, k, p)
                    assert np.array_equal(got, want_form(m, x))
                    if k == 1:
                        one = apply_maps(m[0], x[:, 0] if x.ndim == 3 else x)
                        assert one.shape == (r, p)
                        assert np.array_equal(one, got[:, 0])

    @pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
    def test_rows_alone_match_their_block(self, full):
        # A replicate's values must not depend on how many rows share its
        # call: every run of 1, 2 or 3 rows matches the same rows of a
        # 1310-row block, for the stacked, shared and one-matrix forms, on
        # both sides of _LONG_MAPS_MAX_P.
        rng = np.random.default_rng(5000 + full)
        for k, p in ((1, 1), (1, 2), (2, 3), (5, 5), (3, 8), (1, 16), (2, 17), (2, 40)):
            m = spd_stack(rng, k, p, full) @ spd_stack(rng, k, p, full)  # not symmetric
            x = 3.0 * rng.normal(size=(1310, k, p))
            forms = [lambda z: apply_maps(m, z), lambda z: apply_maps(m, z[:, 0])]
            if k == 1:
                forms.append(lambda z: apply_maps(m[0], z[:, 0]))
            for form in forms:
                block = form(x)
                for r in (1, 2, 3):
                    for r0 in range(0, 60, r):
                        assert np.array_equal(form(x[r0 : r0 + r]), block[r0 : r0 + r])
                        r1 = 1310 - r0
                        assert np.array_equal(form(x[r1 - r : r1]), block[r1 - r : r1])

    # A diagonal stack is applied as the products d[i, a] x[r, i, a]. Each
    # full-path entry adds that product and zeros to a zero-started sum,
    # which turns a -0.0 product into +0.0, and the diagonal path must too.
    def test_diagonal_path_keeps_the_full_paths_bits(self):
        rng = np.random.default_rng(7000)
        for k, p, r in DIAGONAL_SWEEP:
            m = signed_diagonal(rng, k, p)
            x = signed_zeros(rng, (r, k, p))
            assert _diagonal(m) is not None
            for got, want in (
                (apply_maps(m, x), full_path(apply_maps, m, x)),
                (apply_maps(m, x[:, 0]), full_path(apply_maps, m, x[:, 0])),
                (apply_maps(m[0], x[:, 0]), full_path(apply_maps, m[0], x[:, 0])),
            ):
                assert got.flags.c_contiguous
                assert same_bits(got, want), (k, p, r)

    def test_one_tiny_off_diagonal_entry_takes_the_full_path(self):
        # 1e-300 times a coordinate of 1e300 adds about 1 to an entry, so
        # the diagonal term alone would give another value.
        rng = np.random.default_rng(7001)
        m = signed_diagonal(rng, 3, 4)
        tiny = with_one_tiny_entry(m)
        assert _diagonal(tiny) is None and _diagonal(tiny[-1]) is None
        x = rng.uniform(1.0, 2.0, size=(20, 3, 4))
        x[..., 0] = 1e300
        for args in ((tiny, x), (tiny, x[:, 0]), (tiny[-1], x[:, 0])):
            got = apply_maps(*args)
            assert same_bits(got, full_path(apply_maps, *args))
            assert not np.array_equal(got, apply_maps(m if args[0].ndim == 3 else m[-1], args[1]))

    def test_diagonal_overflow_is_quiet(self):
        # Warnings are errors in this suite: a product past the double range
        # is inf with no warning, as in the full path. An inf coordinate
        # meets only its own diagonal entry, so it stays inf (the full path
        # adds 0 * inf and gives NaN).
        m = np.full((2, 3), 1e300)[..., None] * np.eye(3)
        x = np.full((5, 2, 3), 1e300)
        assert np.all(apply_maps(m, x) == np.inf)
        assert np.all(apply_maps(m, x[:, 0]) == np.inf)
        assert np.all(apply_maps(m[0], x[:, 0]) == np.inf)
        x[:, :, 1] = -np.inf
        assert np.array_equal(apply_maps(m, x)[:, :, 1], np.full((5, 2), -np.inf))

    def test_no_replicate_map_outside_apply_maps(self):
        # A fence: a two-operand einsum whose output keeps the replicate
        # axis r and another axis is a per-replicate matrix map, and those
        # are taken only in apply_maps, whose summation order the tests
        # above pin. Every einsum's subscripts must be a literal, so this
        # check can read them.
        found = []
        for path in sorted((Path(__file__).parents[1] / "src" / "kshrink").glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = [
                range(node.lineno, node.end_lineno + 1)
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "apply_maps"
            ]
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum"
                ):
                    continue
                spec = node.args[0]
                where = f"{path.name}:{node.lineno}"
                assert isinstance(spec, ast.Constant) and isinstance(spec.value, str), where
                inputs, _, output = spec.value.partition("->")
                is_map = len(inputs.split(",")) == 2 and "r" in output and len(output) > 1
                if is_map and not any(node.lineno in lines for lines in allowed):
                    found.append(f"{where} {spec.value}")
        assert found == []


class TestTrueParameters:
    def test_rejects_nonpositive_sigma2(self):
        with pytest.raises(ValueError):
            TrueParameters(mu=np.zeros((2, 3)), sigma2=0.0)

    def test_freezes_mu(self):
        t = TrueParameters(mu=np.zeros((2, 3)), sigma2=1.0)
        with pytest.raises(ValueError):
            t.mu[0, 0] = 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(Hyperparameters)])
def test_every_hyperparameter_must_be_finite(name, value):
    with pytest.raises(ValueError) as raised:
        Hyperparameters(**{name: value})
    assert str(raised.value) == f"{name} must be finite, got {value}"
