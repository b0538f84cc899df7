"""The simulation harness: determinism, engine agreement, validators."""

import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from pytest import approx

from kshrink import (
    CanonicalModel,
    ExperimentConfig,
    Hyperparameters,
    MeanConfig,
    run_experiment,
    sample_canonical,
    uer_members,
    validate_identities,
    validate_uer,
)
from kshrink import estimators, montecarlo, numerics
from kshrink.estimators import (
    BATCH_ESTIMATORS,
    ESTIMATORS,
    PreconditionError,
    ShrinkageFunctions,
    estimate_js1,
)
from kshrink.model import LossSpec, PooledConstants, pooled_summary
from kshrink.risk import loss
from kshrink.tolerances import DEGENERATE_STAT


def small_config(**overrides):
    v = np.stack([(0.5 + 0.25 * i) * np.eye(3) for i in range(3)])
    base = dict(
        n=12,
        sigma2=1.7,
        v=v,
        mean_configs=(
            MeanConfig.from_scales("spread", (0.0, 0.5, 1.0), 3),
            MeanConfig.from_scales("tight", (0.2, 0.2, 0.3), 3),
        ),
        replicates=64,
        seed=777,
        threads=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def block_rows(width):
    """Replicates per harness block when a replicate has width values per array."""
    return max(1, montecarlo._BLOCK_VALUES // width)


def one_block(monkeypatch):
    """Make every later harness run read each stream in a single block."""
    monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 10**12)


def read_spans(monkeypatch, run):
    """run()'s result and the (r0, r1) replicate ranges it read, in call order."""
    real = montecarlo._replicate_uniforms
    spans = []

    def spying(seed, key, r0, r1, k, p):
        spans.append((r0, r1))
        return real(seed, key, r0, r1, k, p)

    monkeypatch.setattr(montecarlo, "_replicate_uniforms", spying)
    result = run()
    monkeypatch.setattr(montecarlo, "_replicate_uniforms", real)
    return result, spans


def sampling_config(mu, sigma2, v, n, seed, configs=1):
    """A config of `configs` mean configurations, each with the mean rows mu."""
    means = tuple(MeanConfig(f"c{i}", mu) for i in range(configs))
    return ExperimentConfig(n=n, sigma2=sigma2, v=v, mean_configs=means, seed=seed)


class TestSampleCanonical:
    def test_reproducible_from_stream_address(self):
        v = np.array([np.eye(3), 2.0 * np.eye(3)])
        cfg = sampling_config(np.zeros((2, 3)), 2.0, v, 10, 1)
        a = sample_canonical(cfg, 0, 0)
        b = sample_canonical(cfg, 0, 0)
        assert np.array_equal(a.x, b.x)
        assert a.s == b.s

    def test_numpy_integer_address_is_the_int_address(self):
        v = np.array([np.eye(3), 2.0 * np.eye(3)])
        cfg = sampling_config(np.zeros((2, 3)), 2.0, v, 10, 1, configs=2)
        a = sample_canonical(cfg, np.int64(1), np.int64(3))
        b = sample_canonical(cfg, 1, 3)
        assert np.array_equal(a.x, b.x)
        assert a.s == b.s

    def test_distinct_replicates_differ(self):
        v = np.array([np.eye(3), np.eye(3)])
        cfg = sampling_config(np.zeros((2, 3)), 2.0, v, 10, 1, configs=2)
        a = sample_canonical(cfg, 0, 0)
        b = sample_canonical(cfg, 0, 1)
        c = sample_canonical(cfg, 1, 0)
        assert not np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_first_moments(self):
        mu = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        v = np.array([np.eye(3), np.eye(3)])
        cfg = sampling_config(mu, 2.0, v, 10, 99)
        xs = np.empty((3000, 2, 3))
        ss = np.empty(3000)
        for r in range(3000):
            m = sample_canonical(cfg, 0, r)
            xs[r] = m.x
            ss[r] = m.s
        assert xs.mean(axis=0) == approx(mu, abs=0.15)
        # S / sigma2 is chi-square with n degrees of freedom.
        assert ss.mean() == approx(2.0 * 10.0, abs=1.0)

    def test_scale_statistic_positive(self):
        v = np.array([np.eye(2), np.eye(2)])
        cfg = sampling_config(np.zeros((2, 2)), 0.5, v, 3, 4, configs=2)
        for r in range(50):
            m = sample_canonical(cfg, 1, r)
            assert m.s > 0.0

    @pytest.mark.parametrize(
        "address, message",
        [
            (dict(seed=-1), "seed must be >= 0, got -1"),
            (dict(config=-1), r"config must be in \[0, 2\), got -1"),
            (dict(config=2), r"config must be in \[0, 2\), got 2"),
            (dict(replicate=-1), "replicate must be >= 0, got -1"),
            (dict(config=1.0), "config must be an integer, got 1.0"),
            (dict(replicate=2.5), r"replicate must be an integer, got 2\.5"),
        ],
        ids=["seed", "config", "config-past-the-last", "replicate", "config-float",
             "replicate-float"],
    )
    def test_negative_address_rejected(self, address, message, monkeypatch):
        # Also a config past the last mean configuration, whose stream no run reads.
        where = {"seed": 4, "config": 0, "replicate": 0, **address}
        v = np.array([np.eye(2), np.eye(2)])
        cfg = sampling_config(np.zeros((2, 2)), 0.5, v, 3, where["seed"], configs=2)
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_canonical(cfg, where["config"], where["replicate"])
        assert drawn == []


def _validate_uer_of(cfg):
    return validate_uer(cfg, [sf for _, sf in uer_members(cfg.p, cfg.k, cfg.n)])


class TestOneGate:
    """Every Monte Carlo entry point runs cfg.validate() before its first draw."""

    SPREAD = MeanConfig.from_scales("spread", (0.0, 0.5, 1.0), 3)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(seed=-1), r"^seed must be >= 0, got -1$"),
            (dict(sigma2=np.inf), r"^sigma2 must be positive and finite, got inf$"),
            (dict(mean_configs=(SPREAD, SPREAD)),
             r"^mean config 'spread' is named more than once$"),
            (dict(q=np.stack([np.diag([1.0, 1.0, -1.0]), np.eye(3), np.eye(3)])),
             r"^q\[0\] is not positive definite"),
            (dict(estimators=()), r"^no estimators$"),
            (dict(mean_configs=(SPREAD, MeanConfig("flat", np.zeros((2, 2))))),
             r"^mean config 'flat' has shape \(2, 2\), expected \(3, 3\)$"),
            (dict(mean_configs=()), r"^no mean configurations$"),
        ],
        ids=["seed-negative", "sigma2-inf", "name-twice", "q-indefinite", "no-estimators",
             "mean-shape", "no-means"],
    )
    @pytest.mark.parametrize(
        "entry",
        [run_experiment, _validate_uer_of, validate_identities, sample_canonical],
        ids=["run_experiment", "validate_uer", "validate_identities", "sample_canonical"],
    )
    def test_bad_config_rejected_before_drawing(self, monkeypatch, entry, changes, message):
        cfg = small_config(**changes)
        with pytest.raises(ValueError, match=message):
            cfg.validate()
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=message):
            entry(cfg)
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
        rows = block_rows(3 * 3)
        cfg = small_config(replicates=2 * rows + 1, estimators=("EB",))
        run_experiment(cfg)
        blocks = -(-cfg.replicates // rows)
        assert blocks == 3
        assert len(made) == len(cfg.mean_configs) * blocks


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
            small_config(v=np.ones((1, 3, 3)) + np.eye(3)).validate()
        with pytest.raises(ValueError, match="v must have shape"):
            small_config(v=np.ones((3, 3, 2))).validate()
        bad_mean = (MeanConfig(name="bad", mu=np.zeros((2, 3))),)
        with pytest.raises(ValueError, match="mean config"):
            small_config(mean_configs=bad_mean).validate()

    def test_validate_rejects_unknown_estimator(self):
        with pytest.raises(KeyError, match="unknown estimator"):
            small_config(estimators=("JS1", "ridge")).validate()

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(n=20.5), r"^n must be an integer, got 20\.5$"),
            (dict(seed=1.5), r"^seed must be an integer, got 1\.5$"),
            (dict(replicates=200.5), r"^replicates must be an integer, got 200\.5$"),
            (dict(replicates=True), r"^replicates must be an integer, got True$"),
            (dict(threads="2"), r"^threads must be an integer, got '2'$"),
            (dict(estimators="JS1"),
             r"^estimators must be a sequence of names, got the string 'JS1'$"),
            (dict(sigma2="4"), r"^sigma2 must be a number, got '4'$"),
            (dict(sigma2=True), r"^sigma2 must be a number, got True$"),
        ],
        ids=["n-float", "seed-float", "replicates-float", "replicates-bool", "threads-str",
             "estimators-str", "sigma2-str", "sigma2-bool"],
    )
    def test_malformed_field_rejected_on_construction(self, changes, message):
        # dataclasses.replace builds a new config, so it is refused the same way.
        with pytest.raises(ValueError, match=message):
            small_config(**changes)
        with pytest.raises(ValueError, match=message):
            replace(small_config(), **changes)

    def test_estimators_are_canonical_from_construction(self):
        cfg = small_config(estimators=("EB1", "EB", "JS1"))
        assert cfg.estimators == ("EB", "JS1")
        assert replace(cfg, estimators=["EB2", "HB1", "EB*"]).estimators == ("EB*", "HB1")

    def test_numpy_integer_counts_are_the_ints(self):
        counts = dict(n=12, replicates=40, seed=777, threads=2)
        cfg = small_config(**{name: np.int64(value) for name, value in counts.items()})
        for name, value in counts.items():
            assert type(getattr(cfg, name)) is int and getattr(cfg, name) == value
        assert run_experiment(cfg).to_csv() == run_experiment(small_config(**counts)).to_csv()

    def test_sigma2_is_a_float(self):
        for value in (2, np.int64(2), np.float32(2.0)):
            cfg = small_config(sigma2=value)
            assert type(cfg.sigma2) is float and cfg.sigma2 == 2.0
        assert run_experiment(small_config(sigma2=2)).to_csv() == run_experiment(
            small_config(sigma2=2.0)
        ).to_csv()

    def test_default_threads_are_the_usable_cores(self):
        assert ExperimentConfig.benchmark().threads == montecarlo.usable_cores() >= 1

    def test_usable_cores_without_affinity_are_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        assert montecarlo.usable_cores() == 3
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo.usable_cores() == 1

    def test_validate_builds_the_constants_once(self, monkeypatch):
        # The config is frozen, so every entry point after the first reuses
        # the constants; a new config (replace builds one) is checked afresh.
        real = PooledConstants.from_model
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(PooledConstants, "from_model", counting)
        cfg = small_config(replicates=8)
        first = cfg.validate()
        for r in range(5):
            sample_canonical(cfg, 1, r)
        run_experiment(cfg)
        validate_identities(cfg)
        assert cfg.validate() is first
        assert len(built) == 1
        assert replace(cfg).validate() is not first
        assert len(built) == 2
        # A config that fails keeps nothing and fails again.
        bad = small_config(seed=-1)
        for _ in range(2):
            with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
                bad.validate()

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

    def test_infinite_sigma2_rejected_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        message = "^sigma2 must be positive and finite, got inf$"
        with pytest.raises(ValueError, match=message):
            small_config(sigma2=np.inf).validate()
        with pytest.raises(ValueError, match=message):
            run_experiment(small_config(sigma2=np.inf))
        assert drawn == []

    def test_k_and_p_are_read_from_v(self):
        cfg = small_config(v=np.stack([np.eye(2)] * 4))
        assert (cfg.k, cfg.p) == (4, 2)
        names = {f.name for f in fields(ExperimentConfig)}
        assert not names & {"p", "k"}
        assert not hasattr(cfg, "loss_spec")

    def test_caller_arrays_stay_the_callers(self):
        v = np.stack([np.eye(3)] * 3)
        q = np.stack([2.0 * np.eye(3)] * 3)
        mu = np.zeros((3, 3))
        mc = MeanConfig(name="flat", mu=mu)
        cfg = small_config(v=v, q=q, mean_configs=(mc,))
        v[0, 0] = q[0, 0] = mu[0] = 1.0
        assert np.array_equal(cfg.v, np.stack([np.eye(3)] * 3))
        assert np.array_equal(cfg.q, np.stack([2.0 * np.eye(3)] * 3))
        assert np.array_equal(mc.mu, np.zeros((3, 3)))
        for frozen in (cfg.v, cfg.q, mc.mu):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0, 0] = 3.0
        cfg.validate()

    def test_non_finite_mean_config_rejected_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        means = (
            MeanConfig.from_scales("flat", (0.0, 0.0, 0.0), 3),
            MeanConfig.from_scales("spread", (0.0, np.nan, 1.0), 3),
        )
        for bad in (means, means[::-1]):
            with pytest.raises(ValueError, match="^mean config 'spread' has non-finite entries$"):
                run_experiment(small_config(mean_configs=bad))
        inf = (MeanConfig(name="far", mu=np.full((3, 3), np.inf)),)
        with pytest.raises(ValueError, match="^mean config 'far' has non-finite entries$"):
            small_config(mean_configs=inf).validate()
        assert drawn == []

    def test_duplicate_mean_config_names_rejected_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        means = (
            MeanConfig.from_scales("a", (0.0, 0.0, 0.0), 3),
            MeanConfig.from_scales("b", (0.0, 0.5, 1.0), 3),
            MeanConfig.from_scales("a", (1.0, 1.0, 1.0), 3),
        )
        with pytest.raises(ValueError, match="^mean config 'a' is named more than once$"):
            small_config(mean_configs=means).validate()
        with pytest.raises(ValueError, match="^mean config 'a' is named more than once$"):
            run_experiment(small_config(mean_configs=means))
        assert drawn == []


class TestRunExperiment:
    def test_engine_agrees_with_public_estimators(self):
        # The vectorized engine must reproduce the one-model-at-a-time
        # estimators draw for draw. Rebuild every replicate through the
        # public sampling function and compare average losses.
        cfg = small_config(estimators=("X",) + ExperimentConfig.benchmark().estimators)
        table = run_experiment(cfg)
        ls = cfg.validate().loss
        for ci, mc in enumerate(cfg.mean_configs):
            by_hand = {name: [] for name in table.estimator_names}
            for r in range(cfg.replicates):
                model = sample_canonical(cfg, ci, r)
                for name in table.estimator_names:
                    est = ESTIMATORS[name](model, ls, hyper=cfg.hyper)
                    by_hand[name].append(loss(est.mu_hat, mc.mu, cfg.sigma2, ls))
            for ei, name in enumerate(table.estimator_names):
                want = float(np.sum(np.asarray(by_hand[name])) / cfg.replicates)
                assert table.risk[ci, ei] == approx(want, rel=1e-8), name

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

    def test_lookup_names_what_is_missing(self):
        table = run_experiment(small_config(estimators=("PT", "PT*"), replicates=16))
        with pytest.raises(KeyError) as raised:
            table.lookup("all-zero", "PT")
        assert raised.value.args[0] == (
            "configuration 'all-zero' is not in the table; it has: spread, tight"
        )
        with pytest.raises(KeyError) as raised:
            table.lookup("tight", "HB2")
        assert raised.value.args[0] == "estimator 'HB2' is not in the table; it has: PT, PT*"

    def test_lookup_resolves_aliases(self):
        table = run_experiment(small_config(estimators=("EB1", "EB2"), replicates=16))
        assert table.estimator_names == ("EB", "EB*")
        for config in table.config_names:
            assert table.lookup(config, "EB1") == table.lookup(config, "EB")
            assert table.lookup(config, "EB2") == table.lookup(config, "EB*")
        ci = table.config_names.index("tight")
        risk, se, gain = table.lookup("tight", "EB2")
        assert (risk, se, gain) == (table.risk[ci, 1], table.se[ci, 1], table.prial[ci, 1])
        with pytest.raises(KeyError) as raised:
            table.lookup("tight", "PT")
        assert raised.value.args[0] == "estimator 'PT' is not in the table; it has: EB, EB*"

    def test_aliases_deduplicate(self):
        cfg = small_config(estimators=("EB1", "EB", "EB2"))
        table = run_experiment(cfg)
        assert table.estimator_names == ("EB", "EB*")
        assert table.estimator_names == cfg.estimators

    def test_unavailable_estimator_reports_nan(self):
        v = np.stack([np.eye(2)] * 3)
        cfg = ExperimentConfig(
            n=12, sigma2=1.0, v=v,
            mean_configs=(MeanConfig.from_scales("z", (0.0, 0.0, 1.0), 2),),
            estimators=("JS1", "EB", "PT"),
            replicates=32, seed=5,
        )
        table = run_experiment(cfg)
        model = CanonicalModel(x=np.zeros((3, 2)), v=v, s=1.0, n=12)
        with pytest.raises(PreconditionError) as raised:
            estimate_js1(model, cfg.validate().loss)
        assert table.errors[("z", "JS1")] == str(raised.value)
        assert np.isnan(table.lookup("z", "JS1")[0])
        assert np.isfinite(table.lookup("z", "EB")[0])
        assert "JS1" in table.to_text()

    def test_hb2_too_wide_for_its_rule_is_skipped(self):
        # p(k-1) = 4032: HB2's exponents are past its rule's weights, which
        # is a skipped column, not the end of the run.
        k = p = 64
        cfg = ExperimentConfig(
            n=20, sigma2=1.0, v=np.broadcast_to(np.eye(p), (k, p, p)),
            mean_configs=(MeanConfig.from_scales("z", np.zeros(k), p),),
            estimators=("EB", "HB2"), replicates=2, seed=5,
        )
        table = run_experiment(cfg)
        assert np.isfinite(table.lookup("z", "EB")[0])
        assert np.isnan(table.lookup("z", "HB2")[0])
        assert "below 1024" in table.errors[("z", "HB2")]
        assert list(table.errors) == [("z", "HB2")]

    def test_hb2_numeric_failure_names_lowest_replicate(self, monkeypatch):
        # Two replicates of "spread", one in each block, make the HB2
        # quadrature fail; they are picked by their scale statistic,
        # which the public sampler reproduces draw for draw. The clean run
        # records each block's statistics, which give the residual statistic
        # of those replicates; the rule is then made to give NaN for them at
        # every node count, so they miss at every size of the rule.
        rows = block_rows(3 * 3)
        cfg = small_config(estimators=("EB", "HB1", "HB2"), replicates=rows + 44)
        seen = []
        real_ratios = estimators.hb2_shrink_ratios

        def spy(f_stat, g_stat, s_stat, *args, **kwargs):
            seen.append((f_stat, s_stat))
            return real_ratios(f_stat, g_stat, s_stat, *args, **kwargs)

        monkeypatch.setattr(estimators, "hb2_shrink_ratios", spy)
        clean = run_experiment(cfg)
        monkeypatch.setattr(estimators, "hb2_shrink_ratios", real_ratios)
        failing_s = {sample_canonical(cfg, 0, r).s for r in (rows + 14, 7)}
        failing_f = [f for fs, ss in seen for f, s in zip(fs, ss) if s in failing_s]
        assert len(failing_f) == 2
        real_rule = numerics._joint_rule
        reason = "joint shrink-factor quadrature failed to converge with 168 nodes per axis"

        def missing(n, f_stat, *args, **kwargs):
            values = real_rule(n, f_stat, *args, **kwargs)
            values[:, np.isin(f_stat, failing_f)] = np.nan
            return values

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


class TestPackedBlocks:
    """One block loop over the (configuration, replicate) rows, row c * R + r."""

    def test_rows_on_both_sides_of_a_boundary_are_the_single_shot_losses(self, monkeypatch):
        # 50-row blocks over 2 x 64 rows: the second block holds replicates
        # 50-63 of "spread" and 0-35 of "tight".
        cfg = small_config(estimators=ExperimentConfig.benchmark().estimators)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 50 * cfg.k * cfg.p)
        ((losses,),) = blocked_values(
            monkeypatch, lambda count: run_experiment(replace(cfg, replicates=count)), (64,)
        )
        packed = run_experiment(cfg)
        ls = cfg.validate().loss
        for ci, r in ((0, 49), (0, 50), (0, 63), (1, 0), (1, 35), (1, 36)):
            mu = cfg.mean_configs[ci].mu
            model = sample_canonical(cfg, ci, r)
            for ei, name in enumerate(packed.estimator_names):
                one = loss(ESTIMATORS[name](model, ls, hyper=cfg.hyper).mu_hat, mu, cfg.sigma2, ls)
                assert losses[ei, ci * cfg.replicates + r] == one, (ci, r, name)
        one_block(monkeypatch)
        assert run_experiment(cfg).to_csv() == packed.to_csv()

    def test_hb2_failures_in_one_block_stay_with_their_configuration(self, monkeypatch):
        # 100-row blocks over 3 x 40 rows: the first holds every replicate of
        # "spread" and "tight" and replicates 0-19 of "ramp". HB2 fails at
        # replicate 30 of "spread" and at replicates 5 and 25 of "ramp"; the
        # last is in the second block. "tight" fails nowhere.
        cfg = small_config(estimators=("EB", "HB1", "HB2"), replicates=40)
        ramp = MeanConfig.from_scales("ramp", (-0.5, 0.0, 1.5), cfg.p)
        cfg = replace(cfg, mean_configs=cfg.mean_configs + (ramp,))
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 100 * cfg.k * cfg.p)
        seen = []
        real_ratios = estimators.hb2_shrink_ratios

        def spy(f_stat, g_stat, s_stat, *args, **kwargs):
            seen.append((f_stat, s_stat))
            return real_ratios(f_stat, g_stat, s_stat, *args, **kwargs)

        monkeypatch.setattr(estimators, "hb2_shrink_ratios", spy)
        clean = run_experiment(cfg)
        monkeypatch.setattr(estimators, "hb2_shrink_ratios", real_ratios)
        failing_s = set()
        for ci, r in ((0, 30), (2, 5), (2, 25)):
            failing_s.add(sample_canonical(cfg, ci, r).s)
        failing_f = [f for fs, ss in seen for f, s in zip(fs, ss) if s in failing_s]
        assert len(failing_f) == 3
        real_rule = numerics._joint_rule
        reason = "joint shrink-factor quadrature failed to converge with 168 nodes per axis"

        def missing(n, f_stat, *args, **kwargs):
            values = real_rule(n, f_stat, *args, **kwargs)
            values[:, np.isin(f_stat, failing_f)] = np.nan
            return values

        monkeypatch.setattr(numerics, "_joint_rule", missing)
        one = run_experiment(cfg)
        two = run_experiment(replace(cfg, threads=2))
        assert one.errors == {
            ("spread", "HB2"): f"replicate 30: {reason}",
            ("ramp", "HB2"): f"replicate 5: {reason}",
        }
        hb2 = one.estimator_names.index("HB2")
        hit = np.zeros_like(one.risk, dtype=bool)
        hit[[0, 2], hb2] = True
        assert np.isnan(one.risk[hit]).all()
        assert np.array_equal(one.risk[~hit], clean.risk[~hit])
        assert np.array_equal(one.se[~hit], clean.se[~hit])
        assert np.array_equal(one.paired_se[1], clean.paired_se[1])
        assert one.to_csv() == two.to_csv()
        assert one.to_text() == two.to_text()

    def test_errors_keep_configuration_major_order(self):
        # JS1 and PT* need p >= 3; every configuration of the one block
        # records both, and the table lists them configuration by configuration.
        names = ("spread", "tight", "ramp")
        cfg = small_config(
            v=np.stack([np.eye(2)] * 3),
            mean_configs=tuple(MeanConfig.from_scales(name, (0.0, 0.5, 1.0), 2) for name in names),
            estimators=("JS1", "EB", "PT*"),
        )
        table = run_experiment(cfg)
        assert list(table.errors) == [(c, e) for c in names for e in ("JS1", "PT*")]
        assert np.isfinite(table.risk[:, 1]).all()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_draw_in_a_later_segment_names_its_configuration(self, threads):
        # One 1310-row block holds replicates 0-599 of "a" and then of "b";
        # the first scale draw of "b" that overflows is its replicate 535.
        p = k = 5
        cfg = ExperimentConfig(
            n=20, sigma2=3.7e306,
            v=np.stack([np.eye(p)] * k), q=np.stack([1e100 * np.eye(p)] * k),
            mean_configs=tuple(MeanConfig.from_scales(name, [0.0] * k, p) for name in "ab"),
            estimators=("JS1",), replicates=600, threads=threads,
        )
        with pytest.raises(numerics.ReplicateError) as raised:
            run_experiment(cfg)
        assert raised.value.replicate == 535
        assert str(raised.value).startswith(
            "mean config 'b', replicate 535: pooled statistics overflow: "
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_decomposition_names_its_configuration(self, threads):
        # Scale matrices of condition 1e9 pass every guard, yet the pooled
        # forms of some draws miss their decomposition by more than
        # IDENTITY_REL; the lowest such row is replicate 31 of "b".
        with pytest.raises(numerics.ReplicateError) as raised:
            run_experiment(replace(ill_conditioned_config(), threads=threads))
        assert raised.value.replicate == 31
        assert str(raised.value).startswith(
            "mean config 'b', replicate 31: "
            "pooled quadratic forms failed the decomposition check: "
        )

    def test_one_pool_per_run(self, monkeypatch, helper_threads):
        cfg = small_config(threads=2, estimators=("EB",))
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 50 * cfg.k * cfg.p)
        _, spans = read_spans(monkeypatch, lambda: run_experiment(cfg))
        # The calling thread and one helper read the three blocks in any order.
        assert sorted(spans) == [(0, 36), (0, 50), (36, 64), (50, 64)]
        assert len(helper_threads) == 1

    def test_benchmark_protocol_at_256_replicates_is_two_blocks(self, monkeypatch):
        # One thread, so the blocks run in row order.
        cfg = replace(ExperimentConfig.benchmark(), replicates=256, threads=1)
        assert block_rows(cfg.k * cfg.p) == 1310
        real = PooledConstants.summarize
        blocks = []

        def counting(self, x, s):
            blocks.append(len(s))
            return real(self, x, s)

        monkeypatch.setattr(PooledConstants, "summarize", counting)
        _, spans = read_spans(monkeypatch, lambda: run_experiment(cfg))
        # Replicates 0-29 of the sixth configuration end the first block.
        assert spans == [(0, 256)] * 5 + [(0, 30), (30, 256)] + [(0, 256)] * 2
        assert blocks == [1310, 8 * 256 - 1310]


class TestBlockLoop:
    """_blocked: the calling thread and min(threads, blocks) - 1 helpers share the blocks."""

    @pytest.mark.parametrize(
        "threads, blocks, helpers", [(1, 5, 0), (2, 5, 1), (8, 3, 2), (8, 1, 0)]
    )
    def test_helpers_never_outnumber_blocks(self, helper_threads, threads, blocks, helpers):
        runners = set()

        def block(r0, r1):
            runners.add(threading.get_ident())
            return np.full((2, r1 - r0), float(r0)), {"first": r0, r0 % 2: r0}

        # A row as wide as a block: one row per block.
        values, messages = montecarlo._blocked(
            blocks, montecarlo._BLOCK_VALUES, threads, 2, block
        )
        assert len(helper_threads) == helpers
        assert len(runners) <= blocks
        assert np.array_equal(values, np.tile(np.arange(blocks, dtype=float), (2, 1)))
        # The first message per key in row order.
        assert messages == {"first": 0, 0: 0} | ({1: 1} if blocks > 1 else {})

    def test_each_block_runs_once_under_frequent_switches(self, helper_threads):
        # More threads than cores, switching every microsecond: a block taken
        # twice or never shows in the runs or in the values.
        ran = []

        def block(r0, r1):
            ran.append(r0)
            return np.full((1, r1 - r0), r0 + 0.5), {r0: r0}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            values, messages = montecarlo._blocked(400, montecarlo._BLOCK_VALUES, 8, 1, block)
        finally:
            sys.setswitchinterval(interval)
        assert len(helper_threads) == 7
        assert sorted(ran) == list(range(400))
        assert np.array_equal(values[0], np.arange(400) + 0.5)
        assert list(messages) == list(range(400))

    def test_a_failure_stops_the_loop_and_the_lowest_block_raises(self):
        # Block 1 fails while block 0 is still running, then block 0 fails:
        # no further block starts, both threads are joined, and block 0's
        # exception is the one raised, as at one thread.
        block_1_failed = threading.Event()
        ran = []

        def block(r0, r1):
            ran.append(r0)
            if r0 == 0:
                assert block_1_failed.wait(timeout=60)
                raise ArithmeticError("block 0")
            if r0 == 1:
                block_1_failed.set()
                raise ArithmeticError("block 1")
            return np.zeros((1, r1 - r0)), {}

        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="^block 0$"):
            montecarlo._blocked(8, montecarlo._BLOCK_VALUES, 2, 1, block)
        assert sorted(ran) == [0, 1]
        assert threading.active_count() == before

    def test_a_refused_helper_leaves_the_blocks_to_the_started_threads(self, monkeypatch):
        # The system refuses the second of two helpers: the first helper and
        # the calling thread run all three blocks, and the table is the
        # one-thread table.
        cfg = small_config(estimators=("JS1", "EB"))
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 50 * cfg.k * cfg.p)
        want = run_experiment(cfg).to_csv()
        real = montecarlo.Thread
        started = []

        def refusing(*args, **kwargs):
            helper = real(*args, **kwargs)

            def start():
                if started:
                    raise RuntimeError("can't start new thread")
                started.append(helper)
                real.start(helper)

            helper.start = start
            return helper

        monkeypatch.setattr(montecarlo, "Thread", refusing)
        before = threading.active_count()
        assert run_experiment(replace(cfg, threads=3)).to_csv() == want
        assert len(started) == 1
        assert threading.active_count() == before


def ill_conditioned_config():
    """p = 4, k = 3: each v[i] is Q diag(geomspace(1, 1e9, 4)) Q', two configurations."""
    rotation = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
    v = rotation @ np.diag(np.geomspace(1.0, 1e9, 4)) @ rotation.T
    return ExperimentConfig(
        n=10, sigma2=1.0, v=np.stack([v] * 3),
        mean_configs=(
            MeanConfig.from_scales("a", (0.0, 0.0, 0.0), 4),
            MeanConfig.from_scales("b", (1.0, 1.0, 1.0), 4),
        ),
        replicates=2000,
    )


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
    for r in rows:
        model = sample_canonical(cfg, 0, r)
        one = pooled_summary(model, LossSpec.for_model(model, cfg.q))
        assert np.array_equal(one.pooled_mean[0], block.pooled_mean[r])
        assert one.residual_stat[0] == block.residual_stat[r]
        assert one.pooled_norm_stat[0] == block.pooled_norm_stat[r]


class TestNonDiagonalScale:
    """A replicate's values do not depend on the length of its block when v is not diagonal."""

    @pytest.fixture()
    def cfg(self):
        return small_config(
            v=spd_stack(5, 5, seed=8),
            mean_configs=(MeanConfig.from_scales("ramp", (0.0, 0.5, 1.0, 1.5, 2.0), 5),),
            estimators=("JS2", "EB*", "HB2"),
        )

    def test_first_losses_do_not_depend_on_the_count(self, cfg, monkeypatch):
        # Replicate `rows` is a block of its own in the short run and the
        # first row of the second block in the long one.
        rows = block_rows(cfg.k * cfg.p)
        assert rows == 1310
        short, long = blocked_values(
            monkeypatch,
            lambda count: run_experiment(replace(cfg, replicates=count)),
            (rows + 1, 2 * rows),
        )
        assert len(short) == len(long) == len(cfg.mean_configs)
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:, : rows + 1])

    def test_blocks_of_a_few_rows_change_no_bits(self, monkeypatch):
        # Many groups make a replicate 4096 values wide, so the budget gives
        # 8-row blocks; 19 replicates end in a 3-row block.
        k = p = 64
        cfg = small_config(
            v=spd_stack(k, p, seed=12),
            mean_configs=(MeanConfig.from_scales("ramp", np.linspace(0.0, 2.0, k), p),),
            estimators=("JS2", "PT*", "EB*", "HB1"),
            replicates=19,
        )
        table, spans = read_spans(monkeypatch, lambda: run_experiment(cfg))
        assert spans == [(0, 8), (8, 16), (16, 19)]
        assert table.errors == {}
        threaded = run_experiment(replace(cfg, threads=2))
        one_block(monkeypatch)
        whole = run_experiment(cfg)
        for other in (threaded, whole):
            assert np.array_equal(other.risk, table.risk)
            assert np.array_equal(other.paired_se, table.paired_se)
            assert other.to_csv() == table.to_csv()

    def test_single_shot_summary_is_the_harness_row(self, cfg, monkeypatch):
        assert_single_shot_rows(cfg, monkeypatch, (0, 1, 100, 255))

    def test_single_shot_summary_is_the_harness_row_at_p2(self, monkeypatch):
        # At p = 2 numpy sums a lone replicate's quadratic forms in another
        # order than a block's unless quad_forms runs it as a block.
        cfg = small_config(
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


class TestDegenerateRows:
    """Statistics at or below DEGENERATE_STAT take each kernel's limit branch, row by row."""

    @pytest.mark.parametrize("big_l", [0.0, 0.5])
    def test_block_rows_are_the_single_shot_estimates(self, big_l):
        cfg = small_config(v=spd_stack(3, 3, seed=12), hyper=Hyperparameters(big_l=big_l))
        constants = cfg.validate()
        rng = np.random.default_rng(3)
        y = rng.normal(size=(3, 3))
        y -= y.mean(axis=0)
        x = np.stack([
            np.zeros((3, 3)),  # x = 0: f = g = 0
            np.broadcast_to(rng.normal(size=3), (3, 3)),  # coincident groups: f ~ 0
            np.einsum("kab,kb->ka", cfg.v, y),  # sum_i inv(v[i]) x[i] ~ 0: g ~ 0
            rng.normal(size=(3, 3)),
        ])
        s = np.array([0.5, 1.0, 2.0, 4.0])
        batch = constants.summarize(x, s)
        f, g = batch.residual_stat, batch.pooled_norm_stat
        assert f[0] == g[0] == 0.0
        assert f[1] <= DEGENERATE_STAT < g[1]
        assert g[2] <= DEGENERATE_STAT < f[2]
        assert min(f[3], g[3]) > DEGENERATE_STAT
        # Each factor of a degenerate statistic is its limit: f at rows 0
        # and 1, g at rows 0 and 2; HB1's is (m + a) / (m + a + 1), m = 3.
        h = cfg.hyper
        e = numerics.HbExponents.from_model(cfg.p, cfg.k, cfg.n, h.a, h.b, h.c)
        at_f0, at_g0 = [0, 1], [0, 2]
        limits = [
            ("EB", "mean_shrink", at_f0, 1.0),
            ("EB*", "zero_shrink", at_g0, 1.0),
            ("PT*", "zero_shrink", at_g0, 1.0),
            ("HB1", "mean_shrink", at_f0, 3.1 / 4.1),
            ("HB2", "mean_shrink", at_f0, (e.alpha_e + 1.0) / (e.alpha_e + 2.0)),
            ("HB2", "zero_shrink", at_g0, (e.beta_e + 1.0) / (e.beta_e + 2.0)),
        ]
        for name, kernel in BATCH_ESTIMATORS.items():
            block, diags = kernel(cfg.hyper, batch)
            for lname, key, rows, want in limits:
                if lname == name:
                    assert np.all(diags[key][rows] == want), (name, key)
            for r in range(s.size):
                model = CanonicalModel(x=x[r], v=cfg.v, s=s[r], n=cfg.n)
                one = ESTIMATORS[name](model, constants.loss, hyper=cfg.hyper)
                assert np.array_equal(one.mu_hat, block[r]), (name, r)
                row = {key: value[r] if np.ndim(value) else value for key, value in diags.items()}
                assert one.diagnostics == row, (name, r)


class TestPairedDomination:
    def test_self_comparison_is_exact_tie(self):
        cfg = replace(small_config(), estimators=("EB", "EB"))
        rep = run_experiment(cfg).domination("EB", "EB")
        assert rep.dominated is True
        assert rep.mean_diff == approx(np.zeros(2), abs=0.0)

    def test_star_variant_dominates_on_benchmark(self):
        cfg = replace(ExperimentConfig.benchmark(), replicates=500, threads=2)
        rep = run_experiment(replace(cfg, estimators=("PT*", "PT"))).domination("PT*", "PT")
        assert rep.candidate == "PT*"
        assert rep.baseline == "PT"
        assert rep.dominated is True
        assert rep.config_names == tuple(m.name for m in cfg.mean_configs)

    def test_aliases_resolve(self):
        cfg = replace(small_config(), estimators=("EB2", "EB1"))
        rep = run_experiment(cfg).domination("EB2", "EB1")
        assert (rep.candidate, rep.baseline) == ("EB*", "EB")

    def test_unavailable_estimator_raises(self):
        v = np.stack([np.eye(2)] * 3)
        cfg = ExperimentConfig(
            n=12, sigma2=1.0, v=v,
            mean_configs=(MeanConfig.from_scales("z", (0.0, 0.0, 1.0), 2),),
            estimators=("EB*", "EB"), replicates=32, seed=5,
        )
        with pytest.raises(PreconditionError, match="cannot compare"):
            run_experiment(cfg).domination("EB*", "EB")

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
            n=12, sigma2=1.0, v=v,
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

    def test_estimator_missing_from_the_table_is_named(self):
        table = run_experiment(small_config(estimators=("PT", "PT*"), replicates=16))
        for cand, base in (("HB2", "PT"), ("PT", "EB1")):
            missing = "HB2" if cand == "HB2" else "EB"
            with pytest.raises(KeyError) as raised:
                table.domination(cand, base)
            assert raised.value.args[0] == (
                f"estimator {missing!r} is not in the table; it has: PT, PT*"
            )


class TestUerMembers:
    def test_three_members_with_derivatives(self):
        members = uer_members(5, 5, 20)
        assert [name for name, _ in members] == ["mean-shrink", "double-shrink", "smooth"]
        for _, sf in members:
            assert sf.missing_partials() == ()

    def test_capped_factor_values(self):
        (_, mean_only), (_, double), _ = uer_members(5, 5, 20)
        f = np.array([0.1, 0.5, 0.9, 3.0])
        assert mean_only.phi(f, f, 10.0) == approx(np.minimum(18.0 / 22.0, f))
        assert mean_only.psi(f, f, 10.0) == approx(np.zeros(4))
        assert double.psi(f, f, 10.0) == approx(np.minimum(3.0 / 22.0, f))

    def test_smooth_slope_vanishes_at_huge_statistics(self):
        # (1 + f)^2 overflows to inf there, and the slope goes to its limit 0.
        _, _, (_, smooth) = uer_members(5, 5, 20)
        huge = np.array([1e300, 1e200])
        assert np.array_equal(smooth.phi_f(huge, huge, 1.0), [0.0, 0.0])
        assert np.array_equal(smooth.psi_g(huge, huge, 1.0), [0.0, 0.0])

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


class TestMeanSe:
    @pytest.mark.parametrize("power", [-1000, -700, 0, 700, 960])
    def test_power_of_two_scale_moves_no_bit(self, power):
        # Deviations near 2^-700 square below the smallest double and near
        # 2^700 above the largest; the standard error scales exactly anyway.
        values = np.random.default_rng(3).normal(1.0, 0.25, size=(2, 3, 500))
        mean, se = montecarlo._mean_se(values)
        scaled_mean, scaled_se = montecarlo._mean_se(np.ldexp(values, power))
        assert np.array_equal(scaled_mean, np.ldexp(mean, power))
        assert np.array_equal(scaled_se, np.ldexp(se, power))
        assert np.all(se > 0.0)

    def test_constant_and_nan_rows(self):
        mean, se = montecarlo._mean_se(np.array([[2.0, 2.0, 2.0], [1.0, np.nan, 3.0]]))
        assert mean[0] == 2.0 and se[0] == 0.0
        assert np.isnan(mean[1]) and np.isnan(se[1])


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
        return replace(BENCH_CFG, threads=1)

    @pytest.fixture()
    def ends(self, cfg):
        """cfg with its first and last configurations, which read streams (1, 0) and (1, 1)."""
        return replace(cfg, mean_configs=(cfg.mean_configs[0], cfg.mean_configs[7]))

    def test_members_match_risk(self, ends):
        cfg = ends
        members = uer_members(cfg.p, cfg.k, cfg.n)
        reports = validate_uer(replace(cfg, replicates=4000), [sf for _, sf in members])
        assert len(reports) == len(members)
        for (name, _), report in zip(members, reports):
            assert report.passed, name
            assert [c.name for c in report.checks] == [mc.name for mc in cfg.mean_configs]
            for check in report.checks:
                assert abs(check.mean_lhs - check.mean_rhs) == approx(
                    abs(check.diff), abs=1e-12
                )

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no-members", "no class members to check$"),
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
            "bare": [smooth, ShrinkageFunctions(phi=smooth.phi, psi=smooth.psi)],
            "no-psi_g": [smooth, replace(smooth, psi_g=None)],
        }[case]
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=message):
            validate_uer(replace(cfg, replicates=100), members)
        assert drawn == []

    def test_draws_are_pinned(self, ends):
        # Pinned values: a change means the draws of validate_uer moved.
        _, _, (_, smooth) = uer_members(ends.p, ends.k, ends.n)
        checks = validate_uer(replace(ends, replicates=2000), [smooth])[0].checks
        assert [(c.mean_rhs, c.diff, c.se_diff) for c in checks] == [
            (11.568080939573548, 0.0863736752248676, 0.07296616358431943),
            (20.355110713072943, 0.020957496917250254, 0.1279008388527683),
        ]

    def test_first_replicates_do_not_depend_on_the_count(self, ends, monkeypatch):
        cfg = ends
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        short, long = mean_se_inputs(
            monkeypatch,
            lambda count: validate_uer(replace(cfg, replicates=count), [smooth]),
            (300, 2001),
        )
        assert len(short) == len(long) == len(cfg.mean_configs)
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:300])

    @pytest.mark.parametrize("replicates", [1, 0, -3])
    def test_needs_two_replicates(self, cfg, replicates):
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        with pytest.raises(ValueError, match=f"need at least 2 replicates, got {replicates}$"):
            validate_uer(replace(cfg, replicates=replicates), [smooth])

    @staticmethod
    def far_config(cfg):
        """cfg at sigma2 = 1e306 with "all-zero" and "far", whose every mean entry is 0.95 sd.

        "all-zero" never overflows in 20,000 replicates; "far" overflows at
        15 of them, in 1310-replicate blocks 1, 3-9, 12 and 14, the lowest at
        replicate 1782.
        """
        far = MeanConfig("far", np.full((cfg.k, cfg.p), 0.95e153))
        return replace(cfg, sigma2=1e306, mean_configs=(cfg.mean_configs[0], far))

    def test_overflowing_draw_names_configuration_and_replicate(self, cfg):
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        with pytest.raises(
            ArithmeticError,
            match="^mean config 'far', replicate 1782: pooled statistics overflow: ",
        ):
            validate_uer(replace(self.far_config(cfg), replicates=2000), [smooth])

    def test_overflow_names_the_same_replicate_at_any_thread_count(self, cfg, helper_threads):
        # One thread and three name the lowest, replicate 1782 of "far".
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        cfg = replace(self.far_config(cfg), replicates=20_000)
        raised = []
        for threads in (1, 3):
            with pytest.raises(numerics.ReplicateError) as error:
                validate_uer(replace(cfg, threads=threads), [smooth])
            raised.append((error.value.replicate, str(error.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] == 1782
        assert raised[0][1].startswith(
            "mean config 'far', replicate 1782: pooled statistics overflow: "
        )
        assert len(helper_threads) == 2 * len(cfg.mean_configs)

    def test_failed_decomposition_names_configuration_and_replicate(self):
        cfg = ill_conditioned_config()
        _, _, (_, smooth) = uer_members(cfg.p, cfg.k, cfg.n)
        with pytest.raises(numerics.ReplicateError) as raised:
            validate_uer(cfg, [smooth])
        assert raised.value.replicate == 1946
        assert str(raised.value).startswith(
            "mean config 'a', replicate 1946: "
            "pooled quadratic forms failed the decomposition check: "
        )

    # 1309, 1310 and 1311 sit at the 1310-replicate block of k = p = 5.
    @pytest.mark.parametrize("replicates", [2, 3, 257, 1309, 1310, 1311, 2001, 2621])
    def test_blocking_never_changes_results(self, cfg, monkeypatch, replicates):
        members = [sf for _, sf in uer_members(cfg.p, cfg.k, cfg.n)]
        picks = tuple(cfg.mean_configs[i] for i in (0, 4, 7))
        cfg = replace(cfg, replicates=replicates, mean_configs=picks)
        blocked = validate_uer(cfg, members)
        threaded = validate_uer(replace(cfg, threads=2), members)
        one_block(monkeypatch)
        whole = validate_uer(cfg, members)
        assert len(blocked) == len(members)
        assert blocked == whole
        assert threaded == blocked

    @pytest.mark.parametrize("count", [1, 3])
    def test_draws_are_shared_by_members(self, ends, monkeypatch, count):
        cfg = ends
        real = PooledConstants.summarize
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PooledConstants, "summarize", counting)
        members = [sf for _, sf in uer_members(cfg.p, cfg.k, cfg.n)][:count]
        rows = block_rows(cfg.k * cfg.p)
        replicates = 2 * rows + 3
        validate_uer(replace(cfg, replicates=replicates), members)
        blocks = -(-replicates // rows)
        assert blocks == 3
        assert len(calls) == len(cfg.mean_configs) * blocks
        assert max(calls) <= rows

    def test_memory_grows_only_by_the_kept_values(self, ends):
        cfg = ends
        # Per replicate, a configuration keeps f, g, s and each member's loss until
        # its uer calls, one member at a time, each holding its output row
        # and one slice's temporaries (under 2 rows); everything else lives
        # for one block, whatever the thread count.
        members = [sf for _, sf in uer_members(cfg.p, cfg.k, cfg.n)]
        validate_uer(replace(cfg, replicates=300), members)  # warm caches
        peaks = {}
        for replicates in (2560, 20480):
            tracemalloc.start()
            try:
                validate_uer(replace(cfg, replicates=replicates), members)
                peaks[replicates] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        kept = (3 + len(members) + 2) * 8 * (20480 - 2560)
        assert peaks[20480] - peaks[2560] <= 1.25 * kept


def identity_config(replicates, **changes):
    """The benchmark config at sigma2 = 2: p 5, n 20, the benchmark seed."""
    cfg = replace(ExperimentConfig.benchmark(), sigma2=2.0, replicates=replicates, threads=1)
    return replace(cfg, **changes)


class TestValidateIdentities:
    def test_both_identities_pass(self):
        report = validate_identities(identity_config(20_000))
        assert report.passed
        assert [c.name for c in report.checks] == [
            "gaussian-by-parts",
            "chi-square-derivative",
        ]
        for check in report.checks:
            assert abs(check.diff) <= 3.0 * check.se_diff

    def test_overflowing_scale_is_named(self):
        with pytest.raises(ArithmeticError, match="overflow at sigma2 = 1e\\+308"):
            validate_identities(identity_config(20, sigma2=1e308))

    def test_overflow_is_the_same_error_at_any_thread_count(self, helper_threads):
        # At sigma2 = 3.3e306 the scale draws overflow in the 6553-draw
        # blocks 2-5 and nowhere before; one thread and three raise alike.
        raised = []
        for threads in (1, 3):
            with pytest.raises(ArithmeticError) as error:
                validate_identities(identity_config(40_000, sigma2=3.3e306, threads=threads))
            raised.append(str(error.value))
        assert raised == ["the identity checks overflow at sigma2 = 3.3e+306"] * 2
        assert len(helper_threads) == 2

    def test_deterministic(self):
        a = validate_identities(identity_config(5000))
        b = validate_identities(identity_config(5000))
        assert a.checks[0].diff == b.checks[0].diff
        assert a.checks[1].mean_lhs == b.checks[1].mean_lhs

    def test_draws_are_pinned(self):
        # Pinned values: a change means the draws of validate_identities moved.
        gauss, chisq = validate_identities(identity_config(5000)).checks
        assert (gauss.mean_lhs, gauss.diff, gauss.se_diff) == (
            0.5852457302331436, 0.01074668871145276, 0.008448304146040374
        )
        assert (chisq.mean_lhs, chisq.diff, chisq.se_diff) == (
            0.9730211770994736, -0.0014678090893692286, 0.004858979211671831
        )

    def test_first_draws_do_not_depend_on_the_count(self, monkeypatch):
        short, long = mean_se_inputs(
            monkeypatch, lambda count: validate_identities(identity_config(count)), (300, 2001)
        )
        assert len(short) == len(long) == 2
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:300])

    @pytest.mark.parametrize("draws", [1, 0, -3])
    def test_needs_two_draws(self, draws):
        with pytest.raises(ValueError, match=f"need at least 2 replicates, got {draws}$"):
            validate_identities(identity_config(draws))

    # 6552, 6553 and 6554 sit at the 6553-draw block of p = 5.
    @pytest.mark.parametrize("draws", [2, 3, 257, 2001, 6552, 6553, 6554, 13107])
    def test_blocking_never_changes_results(self, monkeypatch, draws):
        blocked = validate_identities(identity_config(draws))
        one_block(monkeypatch)
        assert validate_identities(identity_config(draws)) == blocked

    def test_reads_at_most_a_block_per_call(self, monkeypatch):
        _, spans = read_spans(monkeypatch, lambda: validate_identities(identity_config(13194)))
        assert sorted(spans) == [(0, 6553), (6553, 13106), (13106, 13194)]
        assert max(r1 - r0 for r0, r1 in spans) <= block_rows(5)

    def test_memory_is_bounded(self):
        # Only the four per-draw rows (3.2 MB at 100,000 draws) live for the
        # whole run; every other array lives for one block.
        validate_identities(identity_config(300))  # warm caches
        tracemalloc.start()
        try:
            validate_identities(identity_config(100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(v=np.zeros((5, 0, 0))), "need p >= 1, got 0$"),
            (dict(n=0), "need n >= 1, got 0$"),
            (dict(sigma2=-1.0), "sigma2 must be positive and finite, got -1.0$"),
            (dict(sigma2=float("inf")), "sigma2 must be positive and finite, got inf$"),
            (dict(seed=-2), "seed must be >= 0, got -2$"),
        ],
        ids=["p0", "n0", "sigma2-negative", "sigma2-inf", "seed-negative"],
    )
    def test_bad_arguments_rejected_before_drawing(self, monkeypatch, changes, message):
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=message):
            validate_identities(identity_config(100, **changes))
        assert drawn == []
