"""The simulation harness: determinism, engine agreement, validators."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from kshrink import (
    CanonicalModel,
    ExperimentConfig,
    MeanConfig,
    TrueParameters,
    paired_domination,
    run_experiment,
    sample_canonical,
    uer_members,
    validate_identities,
    validate_uer,
)
from kshrink import estimators, montecarlo, numerics
from kshrink.estimators import ESTIMATORS, PreconditionError, ShrinkageFunctions, estimate_js1
from kshrink.model import PooledConstants, pooled_summary
from kshrink.risk import loss
from kshrink.tolerances import DEFAULT, Tolerances


def small_config(**overrides):
    v = np.stack([(0.5 + 0.25 * i) * np.eye(3) for i in range(3)])
    base = dict(
        p=3,
        k=3,
        n=12,
        sigma2=1.7,
        v=v,
        mean_configs=(
            MeanConfig.from_scales("spread", (0.0, 0.5, 1.0), 3),
            MeanConfig.from_scales("tight", (0.2, 0.2, 0.3), 3),
        ),
        replicates=64,
        seed=777,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSampleCanonical:
    def test_reproducible_from_stream_address(self):
        truth = TrueParameters(mu=np.zeros((2, 3)), sigma2=2.0)
        v = np.array([np.eye(3), 2.0 * np.eye(3)])
        a = sample_canonical(truth, v, 10, 1, 0, 0)
        b = sample_canonical(truth, v, 10, 1, 0, 0)
        assert np.array_equal(a.x, b.x)
        assert a.s == b.s

    def test_distinct_replicates_differ(self):
        truth = TrueParameters(mu=np.zeros((2, 3)), sigma2=2.0)
        v = np.array([np.eye(3), np.eye(3)])
        a = sample_canonical(truth, v, 10, 1, 0, 0)
        b = sample_canonical(truth, v, 10, 1, 0, 1)
        c = sample_canonical(truth, v, 10, 1, 1, 0)
        assert not np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_first_moments(self):
        mu = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        truth = TrueParameters(mu=mu, sigma2=2.0)
        v = np.array([np.eye(3), np.eye(3)])
        xs = np.empty((3000, 2, 3))
        ss = np.empty(3000)
        for r in range(3000):
            m = sample_canonical(truth, v, 10, 99, 0, r)
            xs[r] = m.x
            ss[r] = m.s
        assert xs.mean(axis=0) == approx(mu, abs=0.15)
        # S / sigma2 is chi-square with n degrees of freedom.
        assert ss.mean() == approx(2.0 * 10.0, abs=1.0)

    def test_scale_statistic_positive(self):
        truth = TrueParameters(mu=np.zeros((2, 2)), sigma2=0.5)
        v = np.array([np.eye(2), np.eye(2)])
        for r in range(50):
            m = sample_canonical(truth, v, 3, 4, 1, r)
            assert m.s > 0.0

    @pytest.mark.parametrize("name", ["seed", "config", "replicate"])
    def test_negative_address_rejected(self, name, monkeypatch):
        truth = TrueParameters(mu=np.zeros((2, 2)), sigma2=0.5)
        v = np.array([np.eye(2), np.eye(2)])
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
            sample_canonical(truth, v, 3, **{"seed": 4, name: -1})
        assert drawn == []


class TestReplicateUniforms:
    @pytest.mark.parametrize(
        "key", [(0, 3), (1, 2), (2, 0)], ids=lambda key: f"key{key[0]}-{key[1]}"
    )
    @pytest.mark.parametrize(
        "k, p", [pytest.param(3, 1, id="kp1-multiple-of-4"), pytest.param(5, 5, id="kp1-26")]
    )
    def test_rows_do_not_depend_on_how_a_range_is_split(self, k, p, key):
        whole_u, whole_us = montecarlo._replicate_uniforms(11, key, 5, 45, k, p)
        assert whole_u.shape == (40, k, p) and whole_us.shape == (40,)
        for u in (whole_u, whole_us):
            assert np.all((u > 0.0) & (u < 1.0))
        for cuts in ((5, 6, 45), (5, 12, 13, 28, 45), tuple(range(5, 46))):
            parts = [
                montecarlo._replicate_uniforms(11, key, r0, r1, k, p)
                for r0, r1 in zip(cuts, cuts[1:])
            ]
            assert np.array_equal(np.concatenate([u for u, _ in parts]), whole_u)
            assert np.array_equal(np.concatenate([us for _, us in parts]), whole_us)

    def test_one_seed_sequence_per_configuration_block(self, monkeypatch):
        real = np.random.SeedSequence
        made = []

        def counting(*args, **kwargs):
            made.append(kwargs.get("spawn_key"))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        cfg = small_config(replicates=300)
        run_experiment(cfg)
        blocks = -(-cfg.replicates // montecarlo._BLOCK)
        assert 0 < len(made) <= len(cfg.mean_configs) * blocks


class TestMeanConfig:
    def test_from_scales(self):
        mc = MeanConfig.from_scales("ramp", (1.0, 2.0), 3)
        assert mc.mu == approx(np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))

    def test_rows_are_read_only(self):
        mc = MeanConfig(name="x", mu=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            mc.mu[0, 0] = 1.0

    def test_vector_promoted_to_single_row(self):
        mc = MeanConfig(name="one", mu=np.array([1.0, 2.0]))
        assert mc.mu.shape == (1, 2)


class TestExperimentConfig:
    def test_benchmark_defaults(self):
        cfg = ExperimentConfig.benchmark()
        assert (cfg.p, cfg.k, cfg.n) == (5, 5, 20)
        assert cfg.sigma2 == 4.0
        assert len(cfg.mean_configs) == 8
        assert cfg.mean_configs[0].name == "all-zero"
        assert cfg.v[4] == approx(0.5 * np.eye(5))
        assert cfg.estimators == ("JS1", "JS2", "PT", "PT*", "EB", "EB*", "HB1", "HB2")
        cfg.validate()

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="k >= 2"):
            small_config(k=1, v=np.ones((1, 3, 3)) + np.eye(3)).validate()
        with pytest.raises(ValueError, match="v must have shape"):
            small_config(v=np.stack([np.eye(2)] * 3)).validate()
        bad_mean = (MeanConfig(name="bad", mu=np.zeros((2, 3))),)
        with pytest.raises(ValueError, match="mean config"):
            small_config(mean_configs=bad_mean).validate()

    def test_validate_rejects_unknown_estimator(self):
        with pytest.raises(KeyError, match="unknown estimator"):
            small_config(estimators=("JS1", "ridge")).validate()

    def test_validate_rejects_single_replicate(self):
        with pytest.raises(ValueError, match="replicates"):
            small_config(replicates=1).validate()

    def test_negative_seed_rejected_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            small_config(seed=-1).validate()
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            run_experiment(small_config(seed=-1))
        assert drawn == []


def assert_engine_matches_public_estimators(tol):
    # The vectorized engine must reproduce the one-model-at-a-time
    # estimators draw for draw, under the tolerances it is given.
    # Rebuild every replicate through the public sampling function and
    # compare average losses.
    cfg = small_config(estimators=("X",) + ExperimentConfig.benchmark().estimators)
    table = run_experiment(cfg, tol)
    ls = cfg.loss_spec(tol=tol)
    for ci, mc in enumerate(cfg.mean_configs):
        truth = TrueParameters(mu=mc.mu, sigma2=cfg.sigma2)
        by_hand = {name: [] for name in table.estimator_names}
        for r in range(cfg.replicates):
            model = sample_canonical(truth, cfg.v, cfg.n, cfg.seed, ci, r)
            for name in table.estimator_names:
                est = ESTIMATORS[name](model, ls, hyper=cfg.hyper, tol=tol)
                by_hand[name].append(loss(est, truth, ls))
        for ei, name in enumerate(table.estimator_names):
            want = float(np.sum(np.asarray(by_hand[name])) / cfg.replicates)
            assert table.risk[ci, ei] == approx(want, rel=1e-8), name


class TestRunExperiment:
    def test_engine_agrees_with_public_estimators(self):
        assert_engine_matches_public_estimators(DEFAULT)

    def test_engine_agrees_with_public_estimators_under_loose_tolerances(self):
        assert_engine_matches_public_estimators(
            Tolerances(degenerate_stat=0.3, quad_rel=1e-3)
        )

    def test_thread_count_never_changes_results(self):
        lone = run_experiment(small_config(threads=1))
        pooled = run_experiment(small_config(threads=4))
        assert lone.to_csv() == pooled.to_csv()
        assert np.array_equal(lone.risk, pooled.risk)
        assert np.array_equal(lone.se, pooled.se)

    def test_rerun_is_bit_identical(self):
        cfg = small_config()
        assert run_experiment(cfg).to_csv() == run_experiment(cfg).to_csv()

    def test_seed_changes_results(self):
        a = run_experiment(small_config(seed=1))
        b = run_experiment(small_config(seed=2))
        assert not np.array_equal(a.risk, b.risk)

    def test_reference_risk_is_trace_sum(self):
        table = run_experiment(small_config())
        # Inverse-scale loss makes each group contribute exactly p.
        assert table.risk_reference == approx(9.0)
        assert table.prial == approx(100.0 * (9.0 - table.risk) / 9.0)

    def test_lookup(self):
        table = run_experiment(small_config())
        risk, se, pr = table.lookup("tight", "EB")
        ci = table.config_names.index("tight")
        ei = table.estimator_names.index("EB")
        assert (risk, se, pr) == (table.risk[ci, ei], table.se[ci, ei], table.prial[ci, ei])
        assert se > 0.0

    def test_aliases_deduplicate(self):
        table = run_experiment(small_config(estimators=("EB1", "EB", "EB2")))
        assert table.estimator_names == ("EB", "EB*")

    def test_unavailable_estimator_reports_nan(self):
        v = np.stack([np.eye(2)] * 3)
        cfg = ExperimentConfig(
            p=2, k=3, n=12, sigma2=1.0, v=v,
            mean_configs=(MeanConfig.from_scales("z", (0.0, 0.0, 1.0), 2),),
            estimators=("JS1", "EB", "PT"),
            replicates=32, seed=5,
        )
        table = run_experiment(cfg)
        model = CanonicalModel(x=np.zeros((3, 2)), v=v, s=1.0, n=12)
        with pytest.raises(PreconditionError) as raised:
            estimate_js1(model, cfg.loss_spec())
        assert table.errors[("z", "JS1")] == str(raised.value)
        assert np.isnan(table.lookup("z", "JS1")[0])
        assert np.isfinite(table.lookup("z", "EB")[0])
        assert "JS1" in table.to_text()

    def test_hb2_numeric_failure_names_lowest_replicate(self, monkeypatch):
        # Two replicates of "spread", one in each 256-replicate block, make
        # the HB2 quadrature fail; they are picked by their scale statistic,
        # which the public sampler reproduces draw for draw. The clean run
        # records each block's statistics, which give the residual statistic
        # of those replicates; the rule is then made to give NaN for them at
        # every node count, so they miss at every size of the rule.
        cfg = small_config(estimators=("EB", "HB1", "HB2"), replicates=300)
        seen = []
        real_ratios = estimators.hb2_shrink_ratios

        def spy(f_stat, g_stat, s_stat, *args, **kwargs):
            seen.append((f_stat, s_stat))
            return real_ratios(f_stat, g_stat, s_stat, *args, **kwargs)

        monkeypatch.setattr(estimators, "hb2_shrink_ratios", spy)
        clean = run_experiment(cfg)
        monkeypatch.setattr(estimators, "hb2_shrink_ratios", real_ratios)
        truth = TrueParameters(mu=cfg.mean_configs[0].mu, sigma2=cfg.sigma2)
        failing_s = {
            sample_canonical(truth, cfg.v, cfg.n, cfg.seed, 0, r).s
            for r in (270, 7)
        }
        failing_f = [f for fs, ss in seen for f, s in zip(fs, ss) if s in failing_s]
        assert len(failing_f) == 2
        real_rule = numerics._joint_rule
        reason = "joint shrink-factor quadrature failed to converge with 168 nodes per axis"

        def missing(n, f_stat, *args, **kwargs):
            values, peak = real_rule(n, f_stat, *args, **kwargs)
            values[:, np.isin(f_stat, failing_f)] = np.nan
            return values, peak

        monkeypatch.setattr(numerics, "_joint_rule", missing)
        one = run_experiment(cfg)
        two = run_experiment(replace(cfg, threads=2))
        assert one.errors == {("spread", "HB2"): f"replicate 7: {reason}"}
        assert f"skipped HB2 on spread: replicate 7: {reason}" in one.to_text()
        assert np.isnan(one.lookup("spread", "HB2")[0])
        hit = np.zeros_like(one.risk, dtype=bool)
        hit[0, one.estimator_names.index("HB2")] = True
        assert np.array_equal(one.risk[~hit], clean.risk[~hit])
        assert np.array_equal(one.se[~hit], clean.se[~hit])
        assert one.to_text() == two.to_text()
        assert one.to_csv() == two.to_csv()


def spd_stack(count, p, seed):
    """count well-conditioned symmetric positive definite (p, p) matrices, none diagonal."""
    a = np.random.default_rng(seed).normal(size=(count, p, p))
    return np.einsum("kab,kcb->kac", a, a) + p * np.eye(p)


def blocked_values(monkeypatch, run, counts):
    """Per count, the (rows, count) arrays _blocked returns while run(count) runs."""
    real = montecarlo._blocked
    seen = []

    def recording(*args):
        values, errors = real(*args)
        seen[-1].append(values)
        return values, errors

    monkeypatch.setattr(montecarlo, "_blocked", recording)
    for count in counts:
        seen.append([])
        run(count)
    return seen


def assert_single_shot_rows(cfg, monkeypatch, rows):
    """pooled_summary of each replicate in rows is that row of the harness's first block."""
    real = PooledConstants.summarize
    batches = []

    def recording(self, *args, **kwargs):
        batches.append(real(self, *args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(PooledConstants, "summarize", recording)
    run_experiment(replace(cfg, replicates=256))
    monkeypatch.setattr(PooledConstants, "summarize", real)
    block = batches[0]
    truth = TrueParameters(mu=cfg.mean_configs[0].mu, sigma2=cfg.sigma2)
    for r in rows:
        model = sample_canonical(truth, cfg.v, cfg.n, cfg.seed, 0, r)
        one = pooled_summary(model, cfg.loss_spec(model))
        assert np.array_equal(one.pooled_mean, block.pooled_mean[r])
        assert one.residual_stat == block.residual_stat[r]
        assert one.pooled_norm_stat == block.pooled_norm_stat[r]


class TestNonDiagonalScale:
    """A replicate's values do not depend on the length of its block when v is not diagonal."""

    @pytest.fixture()
    def cfg(self):
        return small_config(
            p=5,
            k=5,
            v=spd_stack(5, 5, seed=8),
            mean_configs=(MeanConfig.from_scales("ramp", (0.0, 0.5, 1.0, 1.5, 2.0), 5),),
            estimators=("JS2", "EB*", "HB2"),
        )

    def test_first_losses_do_not_depend_on_the_count(self, cfg, monkeypatch):
        # Replicate 256 is a block of its own in the short run and the first
        # row of the second block in the long one.
        short, long = blocked_values(
            monkeypatch, lambda count: run_experiment(replace(cfg, replicates=count)), (257, 512)
        )
        assert len(short) == len(long) == len(cfg.mean_configs)
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:, :257])

    def test_first_identity_draws_do_not_depend_on_the_count(self, monkeypatch):
        cov = spd_stack(1, 4, seed=9)[0]
        short, long = blocked_values(
            monkeypatch, lambda count: validate_identities(p=4, cov=cov, draws=count), (257, 512)
        )
        assert np.array_equal(short[0], long[0][:, :257])

    def test_single_shot_summary_is_the_harness_row(self, cfg, monkeypatch):
        assert_single_shot_rows(cfg, monkeypatch, (0, 1, 100, 255))

    def test_single_shot_summary_is_the_harness_row_at_p2(self, monkeypatch):
        # At p = 2 numpy sums a lone replicate's quadratic forms in another
        # order than a block's unless quad_forms runs it as a block.
        cfg = small_config(
            p=2,
            v=spd_stack(3, 2, seed=10),
            mean_configs=(MeanConfig.from_scales("ramp", (0.0, 0.5, 1.0), 2),),
            estimators=("EB",),
        )
        assert_single_shot_rows(cfg, monkeypatch, range(256))

    def test_csv_shape(self):
        table = run_experiment(small_config())
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "config,estimator,risk,se,prial,replicates,seed"
        assert len(lines) == 1 + 2 * 8
        first = lines[1].split(",")
        assert first[0] == "spread"
        float(first[2]), float(first[3]), float(first[4])

    def test_text_table_lists_configs(self):
        text = run_experiment(small_config()).to_text()
        assert "spread" in text and "tight" in text
        assert "seed 777" in text


class TestPairedDomination:
    def test_self_comparison_is_exact_tie(self):
        rep = paired_domination(small_config(), "EB", "EB")
        assert rep.dominated is True
        assert rep.mean_diff == approx(np.zeros(2), abs=0.0)

    def test_star_variant_dominates_on_benchmark(self):
        cfg = ExperimentConfig.benchmark(replicates=500, threads=2)
        rep = paired_domination(cfg, "PT*", "PT")
        assert rep.candidate == "PT*"
        assert rep.baseline == "PT"
        assert rep.dominated is True
        assert rep.config_names == tuple(m.name for m in cfg.mean_configs)

    def test_aliases_resolve(self):
        rep = paired_domination(small_config(), "EB2", "EB1")
        assert (rep.candidate, rep.baseline) == ("EB*", "EB")

    def test_unavailable_estimator_raises(self):
        v = np.stack([np.eye(2)] * 3)
        cfg = ExperimentConfig(
            p=2, k=3, n=12, sigma2=1.0, v=v,
            mean_configs=(MeanConfig.from_scales("z", (0.0, 0.0, 1.0), 2),),
            replicates=32, seed=5,
        )
        with pytest.raises(PreconditionError, match="cannot compare"):
            paired_domination(cfg, "EB*", "EB")

    def test_table_domination_is_paired_domination(self):
        cfg = small_config()
        table = run_experiment(cfg)
        assert table.errors == {}
        pairs = (("PT*", "PT"), ("EB2", "EB1"), ("HB2", "HB1"), ("HB1", "HB2"),
                 ("JS1", "JS2"), ("EB", "EB"))
        for cand, base in pairs:
            got = table.domination(cand, base)
            want = paired_domination(cfg, cand, base)
            assert (got.candidate, got.baseline, got.config_names, got.dominated) == (
                want.candidate, want.baseline, want.config_names, want.dominated
            )
            assert np.array_equal(got.mean_diff, want.mean_diff)
            assert np.array_equal(got.se_diff, want.se_diff)
            assert np.array_equal(got.per_config, want.per_config)

    def test_contrasts_depend_on_neither_threads_nor_other_estimators(self):
        full = run_experiment(small_config())
        threaded = run_experiment(small_config(threads=3))
        assert np.array_equal(full.paired_diff, threaded.paired_diff)
        assert np.array_equal(full.paired_se, threaded.paired_se)
        some = run_experiment(small_config(estimators=("HB2", "PT", "EB*")))
        pick = [full.estimator_names.index(name) for name in some.estimator_names]
        assert np.array_equal(some.paired_diff, full.paired_diff[:, pick][:, :, pick])
        assert np.array_equal(some.paired_se, full.paired_se[:, pick][:, :, pick])

    def test_contrasts_are_antisymmetric(self):
        table = run_experiment(small_config())
        assert table.paired_diff.shape == table.paired_se.shape == (2, 8, 8)
        assert np.array_equal(table.paired_diff, -table.paired_diff.transpose(0, 2, 1))
        assert np.array_equal(table.paired_se, table.paired_se.transpose(0, 2, 1))
        assert np.all(np.diagonal(table.paired_diff, axis1=1, axis2=2) == 0.0)
        assert np.all(np.diagonal(table.paired_se, axis1=1, axis2=2) == 0.0)
        # The mean of a difference is the difference of the means, up to rounding.
        gaps = table.risk[:, :, None] - table.risk[:, None, :]
        assert table.paired_diff == approx(gaps, rel=1e-12, abs=1e-12)

    def test_skipped_estimator_cannot_be_compared(self):
        v = np.stack([np.eye(2)] * 3)
        cfg = ExperimentConfig(
            p=2, k=3, n=12, sigma2=1.0, v=v,
            mean_configs=(MeanConfig.from_scales("z", (0.0, 0.0, 1.0), 2),),
            estimators=("JS1", "EB", "PT"),
            replicates=32, seed=5,
        )
        table = run_experiment(cfg)
        reason = table.errors[("z", "JS1")]
        for cand, base in (("EB", "JS1"), ("JS1", "EB"), ("JS1", "JS1")):
            with pytest.raises(PreconditionError) as raised:
                table.domination(cand, base)
            assert str(raised.value) == f"cannot compare on 'z': JS1: {reason}"
        js1 = table.estimator_names.index("JS1")
        assert np.all(np.isnan(table.paired_diff[0, js1]))
        assert np.all(np.isnan(table.paired_diff[0, :, js1]))
        assert np.all(np.isfinite(table.domination("EB", "PT").mean_diff))


class TestUerMembers:
    def test_three_members_with_derivatives(self):
        members = uer_members(5, 5, 20)
        assert [name for name, _ in members] == ["mean-shrink", "double-shrink", "smooth"]
        for _, sf in members:
            assert sf.has_derivatives()

    def test_capped_factor_values(self):
        (_, mean_only), (_, double), _ = uer_members(5, 5, 20)
        f = np.array([0.1, 0.5, 0.9, 3.0])
        assert mean_only.phi(f, f, 10.0) == approx(np.minimum(18.0 / 22.0, f))
        assert mean_only.psi(f, f, 10.0) == approx(np.zeros(4))
        assert double.psi(f, f, 10.0) == approx(np.minimum(3.0 / 22.0, f))

    def test_derivatives_match_finite_differences(self):
        # Probe points keep clear of the cap kinks at 18/22 and 3/22.
        fs = np.array([0.2, 0.6, 1.4, 5.0])
        gs = np.array([0.05, 0.3, 0.9, 2.0])
        s = 12.0
        step = 1e-6
        for _, sf in uer_members(5, 5, 20):
            for fn, d_fn, which in (
                (sf.phi, sf.phi_f, 0),
                (sf.phi, sf.phi_g, 1),
                (sf.phi, sf.phi_s, 2),
                (sf.psi, sf.psi_f, 0),
                (sf.psi, sf.psi_g, 1),
                (sf.psi, sf.psi_s, 2),
            ):
                args = [fs, gs, s]
                up = list(args)
                dn = list(args)
                up[which] = np.asarray(args[which]) + step
                dn[which] = np.asarray(args[which]) - step
                fd = (np.asarray(fn(*up)) - np.asarray(fn(*dn))) / (2.0 * step)
                got = np.broadcast_to(np.asarray(d_fn(*args), dtype=float), fd.shape)
                assert got == approx(fd, abs=1e-6)


BENCH_CFG = ExperimentConfig.benchmark()


def mean_se_inputs(monkeypatch, run, counts):
    """Per count, the vectors _mean_se reduces while run(count) runs."""
    real = montecarlo._mean_se
    seen = []

    def recording(values):
        seen[-1].append(np.array(values))
        return real(values)

    monkeypatch.setattr(montecarlo, "_mean_se", recording)
    for count in counts:
        seen.append([])
        run(count)
    return seen


class TestValidateUer:
    @pytest.fixture()
    def cfg(self):
        return BENCH_CFG

    def test_members_match_risk(self, cfg):
        points = [
            TrueParameters(mu=cfg.mean_configs[0].mu, sigma2=cfg.sigma2),
            TrueParameters(mu=cfg.mean_configs[7].mu, sigma2=cfg.sigma2),
        ]
        members = uer_members(cfg.p, cfg.k, cfg.n)
        reports = validate_uer(replace(cfg, replicates=4000), [sf for _, sf in members], points)
        assert len(reports) == len(members)
        for (name, _), report in zip(members, reports):
            assert report.passed, name
            for check in report.checks:
                assert abs(check.mean_lhs - check.mean_rhs) == approx(
                    abs(check.diff), abs=1e-12
                )

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no-members", "no class members to check$"),
            ("no-points", "no truth points to check$"),
            ("bare", "member 1 lacks the partial derivatives "
                     "phi_f, phi_g, phi_s, psi_f, psi_g, psi_s$"),
            ("no-psi_g", "member 1 lacks the partial derivatives psi_g$"),
        ],
    )
    def test_vacuous_or_incomplete_input_rejected_before_drawing(
        self, cfg, monkeypatch, case, message
    ):
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        members = {
            "no-members": [],
            "no-points": [smooth],
            "bare": [smooth, ShrinkageFunctions(phi=smooth.phi, psi=smooth.psi)],
            "no-psi_g": [smooth, replace(smooth, psi_g=None)],
        }[case]
        points = [] if case == "no-points" else [
            TrueParameters(mu=cfg.mean_configs[0].mu, sigma2=cfg.sigma2)
        ]
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=message):
            validate_uer(replace(cfg, replicates=100), members, points)
        assert drawn == []

    def test_draws_are_pinned(self, cfg):
        # Pinned values: a change means the draws of validate_uer moved.
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        points = [
            TrueParameters(mu=cfg.mean_configs[i].mu, sigma2=cfg.sigma2) for i in (0, 7)
        ]
        checks = validate_uer(replace(cfg, replicates=2000), [smooth], points)[0].checks
        assert [(c.mean_rhs, c.diff, c.se_diff) for c in checks] == [
            (11.568080939573548, 0.08637367522486762, 0.07296616358431943),
            (20.355110713072943, 0.020957496917250296, 0.1279008388527683),
        ]

    def test_first_replicates_do_not_depend_on_the_count(self, cfg, monkeypatch):
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        points = [TrueParameters(mu=cfg.mean_configs[i].mu, sigma2=cfg.sigma2) for i in (0, 7)]
        short, long = mean_se_inputs(
            monkeypatch,
            lambda count: validate_uer(replace(cfg, replicates=count), [smooth], points),
            (300, 2001),
        )
        assert len(short) == len(long) == len(points)
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:300])

    @pytest.mark.parametrize("replicates", [1, 0, -3])
    def test_needs_two_replicates(self, cfg, replicates):
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        points = [TrueParameters(mu=cfg.mean_configs[0].mu, sigma2=cfg.sigma2)]
        with pytest.raises(ValueError, match=f"need at least 2 replicates, got {replicates}$"):
            validate_uer(replace(cfg, replicates=replicates), [smooth], points)

    def test_truth_shape_checked(self, cfg, monkeypatch):
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        bad = [TrueParameters(mu=np.zeros((2, 2)), sigma2=1.0)]
        with pytest.raises(ValueError, match="truth point"):
            validate_uer(replace(cfg, replicates=100), [smooth], bad)
        # A bad point after a good one is found before anything is drawn.
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        good = TrueParameters(mu=cfg.mean_configs[0].mu, sigma2=cfg.sigma2)
        with pytest.raises(ValueError, match="truth point 2 has shape"):
            validate_uer(replace(cfg, replicates=100), [smooth], [good, good, bad[0]])
        assert drawn == []

    @pytest.mark.parametrize("replicates", [2, 3, 257, 2001])
    def test_blocking_never_changes_results(self, cfg, monkeypatch, replicates):
        members = [sf for _, sf in uer_members(cfg.p, cfg.k, cfg.n)]
        points = [
            TrueParameters(mu=cfg.mean_configs[i].mu, sigma2=cfg.sigma2) for i in (0, 4, 7)
        ]
        cfg = replace(cfg, replicates=replicates)
        blocked = validate_uer(cfg, members, points)
        threaded = validate_uer(replace(cfg, threads=2), members, points)
        monkeypatch.setattr(montecarlo, "_BLOCK", 10**9)
        whole = validate_uer(cfg, members, points)
        assert len(blocked) == len(members)
        assert blocked == whole
        assert threaded == blocked

    @pytest.mark.parametrize("count", [1, 3])
    def test_draws_are_shared_by_members(self, cfg, monkeypatch, count):
        real = PooledConstants.summarize
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PooledConstants, "summarize", counting)
        members = [sf for _, sf in uer_members(cfg.p, cfg.k, cfg.n)][:count]
        points = [TrueParameters(mu=cfg.mean_configs[i].mu, sigma2=cfg.sigma2) for i in (0, 7)]
        replicates = 600
        validate_uer(replace(cfg, replicates=replicates), members, points)
        blocks = -(-replicates // montecarlo._BLOCK)
        assert len(calls) == len(points) * blocks
        assert max(calls) <= montecarlo._BLOCK

    def test_memory_grows_only_by_the_kept_values(self, cfg):
        # Per replicate, a point keeps f, g, s and each member's loss and
        # eight factor values and derivatives until its one uer call per
        # member; everything else lives for one block.
        members = [sf for _, sf in uer_members(cfg.p, cfg.k, cfg.n)]
        points = [TrueParameters(mu=cfg.mean_configs[i].mu, sigma2=cfg.sigma2) for i in (0, 7)]
        validate_uer(replace(cfg, replicates=300), members, points)  # warm caches
        peaks = {}
        for replicates in (2560, 20480):
            tracemalloc.start()
            try:
                validate_uer(replace(cfg, replicates=replicates), members, points)
                peaks[replicates] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        kept = (3 + 9 * len(members)) * 8 * (20480 - 2560)
        assert peaks[20480] - peaks[2560] <= 1.25 * kept


class TestValidateIdentities:
    def test_both_identities_pass(self):
        report = validate_identities(draws=20_000)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "gaussian-by-parts",
            "chi-square-derivative",
        ]
        for check in report.checks:
            assert abs(check.diff) <= 3.0 * check.se_diff

    def test_deterministic(self):
        a = validate_identities(draws=5000)
        b = validate_identities(draws=5000)
        assert a.checks[0].diff == b.checks[0].diff
        assert a.checks[1].mean_lhs == b.checks[1].mean_lhs

    def test_draws_are_pinned(self):
        # Pinned values: a change means the draws of validate_identities moved.
        gauss, chisq = validate_identities(draws=5000).checks
        assert (gauss.mean_lhs, gauss.diff, gauss.se_diff) == (
            0.5852457302331436, 0.010746688711452759, 0.008448304146040374
        )
        assert (chisq.mean_lhs, chisq.diff, chisq.se_diff) == (
            0.9730211770994736, -0.0014678090893692286, 0.004858979211671831
        )

    def test_first_draws_do_not_depend_on_the_count(self, monkeypatch):
        short, long = mean_se_inputs(
            monkeypatch, lambda count: validate_identities(draws=count), (300, 2001)
        )
        assert len(short) == len(long) == 2
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:300])

    @pytest.mark.parametrize("draws", [1, 0, -3])
    def test_needs_two_draws(self, draws):
        with pytest.raises(ValueError, match=f"need at least 2 replicates, got {draws}$"):
            validate_identities(draws=draws)

    @pytest.mark.parametrize("draws", [2, 3, 257, 2001])
    def test_blocking_never_changes_results(self, monkeypatch, draws):
        blocked = validate_identities(draws=draws)
        monkeypatch.setattr(montecarlo, "_BLOCK", 10**9)
        assert validate_identities(draws=draws) == blocked

    def test_reads_at_most_a_block_per_call(self, monkeypatch):
        real = montecarlo._replicate_uniforms
        spans = []

        def spying(seed, key, r0, r1, k, p):
            spans.append((r0, r1))
            return real(seed, key, r0, r1, k, p)

        monkeypatch.setattr(montecarlo, "_replicate_uniforms", spying)
        validate_identities(draws=600)
        assert sorted(spans) == [(0, 256), (256, 512), (512, 600)]
        assert max(r1 - r0 for r0, r1 in spans) <= montecarlo._BLOCK

    def test_memory_is_bounded(self):
        # Only the four per-draw rows (3.2 MB at 100,000 draws) live for the
        # whole run; every other array lives for one block.
        validate_identities(draws=300)  # warm caches
        tracemalloc.start()
        try:
            validate_identities(draws=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(p=0), "need p >= 1, got 0$"),
            (dict(n=0), "need n >= 1, got 0$"),
            (dict(sigma2=-1.0), "sigma2 must be positive and finite, got -1.0$"),
            (dict(sigma2=float("inf")), "sigma2 must be positive and finite, got inf$"),
            (dict(p=3, mu=np.array([0.0, np.nan, 1.0])), "mu has non-finite entries$"),
            (dict(p=3, cov=np.diag([1.0, 1.0, -1.0])), "cov is not positive definite"),
            (dict(p=2, cov=np.ones((2, 2))), "cov is not positive definite"),
            (dict(seed=-2), "seed must be >= 0, got -2$"),
        ],
        ids=["p0", "n0", "sigma2-negative", "sigma2-inf", "mu-nan", "cov-indefinite",
             "cov-singular", "seed-negative"],
    )
    def test_bad_arguments_rejected_before_drawing(self, monkeypatch, kwargs, message):
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=message):
            validate_identities(draws=100, **kwargs)
        assert drawn == []

    def test_custom_truth(self):
        mu = np.linspace(-1.0, 1.0, 4)
        cov = np.diag([0.5, 1.0, 1.5, 2.0])
        report = validate_identities(p=4, n=8, mu=mu, cov=cov, draws=20_000)
        assert report.passed

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="mu must have shape"):
            validate_identities(p=3, mu=np.zeros(4), draws=100)
        with pytest.raises(ValueError, match="cov must have shape"):
            validate_identities(p=3, cov=np.eye(4), draws=100)
