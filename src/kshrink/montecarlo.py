"""Deterministic Monte Carlo harness for risk comparison.

Reproducibility contract: every uniform is addressed by (seed, key, i),
output i of the Philox stream keyed by SeedSequence(entropy=seed,
spawn_key=key), read by advancing the stream's counter, so no draw depends
on the draws taken before it. Every stream has one layout: replicate r
owns outputs r*w .. r*w + k*p, k*p for the observations and then one for
the scale statistic, where w is k*p + 1 rounded up to a whole counter step
of four outputs. So a replicate's address depends on neither the run's
length nor the draws before it. The keys are (0, c) for configuration c
of an experiment, (1, i) for truth point i of validate_uer, and (2, 0),
read with k = 1, for validate_identities. All variates are produced by
inverse-CDF transforms, so results are bit-identical across runs, thread
counts, and platforms with IEEE-754 doubles. Every stream is read in
blocks through one block loop, each block reading only its own slice of
the stream. A block holds max(1, _BLOCK_VALUES // width) replicates, where
width is the number of values a replicate has in the block's largest
arrays (k*p for an experiment or a truth point, p for the identities), so
a block's working set stays near _BLOCK_VALUES doubles per array at any
dimension; the block length is never a function of the thread count. The
per-replicate work takes no matrix product over replicate rows (whose
BLAS bits depend on the row count). Every matrix map of a replicate's
entries (the Cholesky map of the draws, the weights, the pooled mean and
the direction maps) goes through model.apply_maps, whose summation order
is fixed by p alone; every quadratic form goes through model.quad_forms;
every other sum over a replicate's own entries is an einsum or
elementwise step on that row alone. Both helpers take an elementwise path
when a matrix is diagonal (every scale and loss matrix of the default
experiment), which adds the same nonzero terms in the same order and so
gives the same bits as the full path. So a replicate's values do not
depend on the length of its block, whatever v and the loss weights are.
The per-replicate values are joined in replicate order and reduced with
numpy's pairwise summation, so the block size never changes a result.

Each block runs the batch kernels of the estimators module on the pooled
statistics of its replicates, the same code the single-shot estimators
run with one replicate. run_experiment is the one loop over
configurations; RiskTable.domination reads its paired contrasts. Both
self-checks, validate_uer and validate_identities, report paired checks
of one kind: the mean of lhs - rhs over common draws must lie within
three standard errors of 0.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincinv, ndtri

from .estimators import (
    BATCH_ESTIMATORS,
    ESTIMATOR_ORDER,
    EstimatorSetting,
    PreconditionError,
    ReplicateError,
    ShrinkageFunctions,
    batch_general,
    floored_statistics,
    resolve_estimator,
)
from .model import (
    CanonicalModel,
    Hyperparameters,
    LossSpec,
    PooledConstants,
    TrueParameters,
    _guarded_inverse,
    apply_maps,
    quad_forms,
)
# Unused here; kept because perfbench/spans.py traces them as attributes of this module.
from .numerics import f_quantile, hb1_shrink_ratio, hb2_shrink_ratios  # noqa: F401
from .risk import UerInputs, loss, prial, uer

__all__ = [
    "MeanConfig",
    "ExperimentConfig",
    "RiskTable",
    "DominationReport",
    "PairedCheck",
    "CheckSet",
    "sample_canonical",
    "run_experiment",
    "validate_uer",
    "validate_identities",
]

# Values per (R, k, p) array of a block; see the module docstring.
_BLOCK_VALUES = 2**15
# Replicates of a validate run, and identity draws, when no count is given.
VALIDATE_DRAWS = 100_000
# Stream namespaces; first spawn_key element.
_NS_EXPERIMENT = 0
_NS_UER = 1
_NS_IDENTITY = 2


def _uniforms(seed: int, key: tuple[int, ...], start: int, count: int) -> np.ndarray:
    """Outputs start .. start+count-1 of stream (seed, key) as (0, 1) uniforms.

    The uniforms sit on a fixed 2^53 lattice. Each Philox counter step
    yields four outputs, so start must be a multiple of four.
    """
    bitgen = np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=key))
    bitgen.advance(start // 4)
    raw = bitgen.random_raw(count)
    raw >>= 11
    u = raw.astype(float)
    u += 0.5
    u *= 2.0**-53
    return u


def _replicate_uniforms(
    seed: int, key: tuple[int, int], r0: int, r1: int, k: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms (R, k, p) and (R,) of replicates r0 .. r1-1 of stream key."""
    w = 4 * -(-(k * p + 1) // 4)
    u = _uniforms(seed, key, r0 * w, (r1 - r0) * w).reshape(r1 - r0, w)
    return u[:, : k * p].reshape(r1 - r0, k, p), u[:, k * p]


def _need_replicates(count: int) -> None:
    if count < 2:
        raise ValueError(f"need at least 2 replicates, got {count}")


def _need_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _draw(
    truth: TrueParameters, chol: np.ndarray, n: int, u: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms u (R, k, p) and us (R,) to (x, s); chol factors the v stack."""
    x = truth.mu + math.sqrt(truth.sigma2) * apply_maps(chol, ndtri(u))
    s = truth.sigma2 * 2.0 * gammaincinv(0.5 * n, us)
    return x, s


def sample_canonical(
    truth: TrueParameters, v: np.ndarray, n: int, seed: int, config: int = 0, replicate: int = 0
) -> CanonicalModel:
    """Draw replicate `replicate` of configuration `config` under `seed`.

    These are the harness's draws for that address: run_experiment with the
    same seed, truth and v sees exactly this model as that replicate. v is
    a (k, p, p) stack or, as CanonicalModel takes it, one (p, p) matrix
    that the k groups share.
    """
    for name, value in (("seed", seed), ("config", config), ("replicate", replicate)):
        _need_nonnegative(name, value)
    model = CanonicalModel(x=truth.mu, v=v, s=1.0, n=n)
    key = (_NS_EXPERIMENT, config)
    u, us = _replicate_uniforms(seed, key, replicate, replicate + 1, model.k, model.p)
    x, s = _draw(truth, np.linalg.cholesky(model.v), n, u, us)
    return replace(model, x=x[0], s=float(s[0]))


@dataclass(frozen=True)
class MeanConfig:
    """One truth configuration: a name and the (k, p) mean rows."""

    name: str
    mu: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.mu, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "mu", arr)

    @classmethod
    def from_scales(cls, name: str, scales: Sequence[float], p: int) -> "MeanConfig":
        """Mean rows t_i * (1, ..., 1) from per-group multipliers t."""
        mu = np.asarray(scales, dtype=float)[:, None] * np.ones(p)
        return cls(name=name, mu=mu)


_BENCHMARK_SCALES = (
    ("all-zero", (0.0, 0.0, 0.0, 0.0, 0.0)),
    ("common-2", (2.0, 2.0, 2.0, 2.0, 2.0)),
    ("centered-0.2", (-0.4, -0.2, 0.0, 0.2, 0.4)),
    ("centered-0.5", (-1.0, -0.5, 0.0, 0.5, 1.0)),
    ("centered-1.0", (-2.0, -1.0, 0.0, 1.0, 2.0)),
    ("ramp-1.2-2.0", (1.2, 1.4, 1.6, 1.8, 2.0)),
    ("ramp-1-3", (1.0, 1.5, 2.0, 2.5, 3.0)),
    ("ramp-0-4", (0.0, 1.0, 2.0, 3.0, 4.0)),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a simulation run depends on.

    q=None means inverse-scale loss (q[i] = inv(v[i])). The seed addresses
    the whole experiment; threads only affects wall time, never results.
    """

    p: int
    k: int
    n: int
    sigma2: float
    v: np.ndarray
    mean_configs: tuple[MeanConfig, ...]
    estimators: tuple[str, ...] = ESTIMATOR_ORDER
    q: np.ndarray | None = None
    replicates: int = 5000
    seed: int = 20260816
    threads: int = 1
    hyper: Hyperparameters = field(default_factory=Hyperparameters)

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if self.q is not None:
            q = np.asarray(self.q, dtype=float)
            q.setflags(write=False)
            object.__setattr__(self, "q", q)
        object.__setattr__(self, "mean_configs", tuple(self.mean_configs))
        object.__setattr__(self, "estimators", tuple(self.estimators))

    @staticmethod
    def check_dimensions(p: int, k: int, n: int) -> None:
        """Reject dimensions no experiment can have: k >= 2 groups, p >= 1, n >= 1."""
        if k < 2:
            raise ValueError(f"need k >= 2 groups, got {k}")
        if p < 1:
            raise ValueError(f"need p >= 1, got {p}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")

    def validate(self) -> EstimatorSetting:
        """Check the configuration; return the estimator setting its replicates share."""
        self.check_dimensions(self.p, self.k, self.n)
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.v.shape != (self.k, self.p, self.p):
            raise ValueError(
                f"v must have shape {(self.k, self.p, self.p)}, got {self.v.shape}"
            )
        if self.q is not None and self.q.shape != (self.k, self.p, self.p):
            raise ValueError(f"q must have shape {(self.k, self.p, self.p)}, got {self.q.shape}")
        _need_replicates(self.replicates)
        _need_nonnegative("seed", self.seed)
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not self.mean_configs:
            raise ValueError("no mean configurations")
        seen: set[str] = set()
        for mc in self.mean_configs:
            if mc.name in seen:
                raise ValueError(f"mean config {mc.name!r} is named more than once")
            seen.add(mc.name)
            if mc.mu.shape != (self.k, self.p):
                raise ValueError(
                    f"mean config {mc.name!r} has shape {mc.mu.shape}, "
                    f"expected {(self.k, self.p)}"
                )
            if not np.all(np.isfinite(mc.mu)):
                raise ValueError(f"mean config {mc.name!r} has non-finite entries")
        for name in self.estimators:
            resolve_estimator(name)
        template = CanonicalModel(x=np.zeros((self.k, self.p)), v=self.v, s=1.0, n=self.n)
        pooled = PooledConstants.from_model(template, self.loss_spec(template))
        return EstimatorSetting(pooled, self.hyper)

    def loss_spec(self, model: CanonicalModel | None = None) -> LossSpec:
        if model is None:
            model = CanonicalModel(x=np.zeros((self.k, self.p)), v=self.v, s=1.0, n=self.n)
        if self.q is None:
            return LossSpec.inverse_v(model)
        return LossSpec.for_model(model, self.q)

    @classmethod
    def benchmark(cls) -> "ExperimentConfig":
        """The standard comparison protocol: five groups of dimension five.

        v[i] = 0.1 * (i+1) * identity, inverse-scale loss, noise standard
        deviation 2 (sigma2 = 4), n = 20, eight mean configurations ranging
        from all-equal to widely spread, hyperparameters a = b = c = 0.1
        with no precision tilt, and the field defaults for the rest; change
        those with dataclasses.replace.
        """
        p = k = 5
        v = np.stack([0.1 * (i + 1) * np.eye(p) for i in range(k)])
        means = tuple(
            MeanConfig.from_scales(name, scales, p) for name, scales in _BENCHMARK_SCALES
        )
        return cls(
            p=p,
            k=k,
            n=20,
            sigma2=4.0,
            v=v,
            mean_configs=means,
            hyper=Hyperparameters(a=0.1, b=0.1, c=0.1, big_l=0.0, alpha=0.05),
        )


def _position(what: str, names: tuple[str, ...], name: str) -> int:
    """Index of name in names, else a KeyError naming it and listing names."""
    if name not in names:
        raise KeyError(f"{what} {name!r} is not in the table; it has: {', '.join(names)}")
    return names.index(name)


@dataclass(frozen=True)
class RiskTable:
    """Monte Carlo risks, standard errors, percentage improvements and contrasts.

    risk, se, prial are (configs, estimators) arrays. risk_reference is the
    exact risk of the unshrunk estimator (sum of traces), used as the
    improvement baseline. paired_diff[c, a, b] and paired_se[c, a, b] are the
    mean and standard error of loss[a] - loss[b] over configuration c's
    replicates. An estimator whose preconditions fail on some
    configuration gets NaN entries and a message in errors.
    """

    config_names: tuple[str, ...]
    estimator_names: tuple[str, ...]
    risk: np.ndarray
    se: np.ndarray
    prial: np.ndarray
    paired_diff: np.ndarray
    paired_se: np.ndarray
    risk_reference: float
    replicates: int
    seed: int
    errors: dict[tuple[str, str], str] = field(default_factory=dict)

    def _estimator(self, name: str) -> tuple[str, int]:
        """The canonical name of estimator name (or an alias) and its column."""
        canon, _ = resolve_estimator(name)
        return canon, _position("estimator", self.estimator_names, canon)

    def lookup(self, config: str, estimator: str) -> tuple[float, float, float]:
        ci = _position("configuration", self.config_names, config)
        _, ei = self._estimator(estimator)
        return float(self.risk[ci, ei]), float(self.se[ci, ei]), float(self.prial[ci, ei])

    def domination(self, candidate: str, baseline: str) -> "DominationReport":
        """Paired 3-SE test that candidate never does worse than baseline.

        Raises KeyError if either is not in the table, and
        PreconditionError if either was skipped on a configuration.
        """
        cand, ci = self._estimator(candidate)
        base, bi = self._estimator(baseline)
        for cname in self.config_names:
            skipped = [n for n in dict.fromkeys((cand, base)) if (cname, n) in self.errors]
            if skipped:
                what = "; ".join(f"{n}: {self.errors[cname, n]}" for n in skipped)
                raise PreconditionError(f"cannot compare on {cname!r}: {what}")
        mean_diff = self.paired_diff[:, bi, ci]  # baseline minus candidate
        se_diff = self.paired_se[:, bi, ci]
        per_config = mean_diff >= -3.0 * se_diff
        return DominationReport(
            candidate=cand,
            baseline=base,
            config_names=self.config_names,
            mean_diff=mean_diff,
            se_diff=se_diff,
            per_config=per_config,
            dominated=bool(np.all(per_config)),
        )

    def to_csv(self) -> str:
        lines = ["config,estimator,risk,se,prial,replicates,seed"]
        for ci, cname in enumerate(self.config_names):
            for ei, ename in enumerate(self.estimator_names):
                lines.append(
                    f"{cname},{ename},{self.risk[ci, ei]:.17g},{self.se[ci, ei]:.17g},"
                    f"{self.prial[ci, ei]:.17g},{self.replicates},{self.seed}"
                )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        width = max(12, max((len(c) for c in self.config_names), default=12))
        header = "PRIAL (%), reference risk {:.6g}, {} replicates, seed {}".format(
            self.risk_reference, self.replicates, self.seed
        )
        cols = "".join(f"{e:>9}" for e in self.estimator_names)
        lines = [header, f"{'config':<{width}}" + cols]
        for ci, cname in enumerate(self.config_names):
            cells = "".join(
                f"{self.prial[ci, ei]:>9.1f}" if np.isfinite(self.prial[ci, ei]) else f"{'-':>9}"
                for ei in range(len(self.estimator_names))
            )
            lines.append(f"{cname:<{width}}" + cells)
        if self.errors:
            lines.append("")
            for (cname, ename), msg in sorted(self.errors.items()):
                lines.append(f"skipped {ename} on {cname}: {msg}")
        return "\n".join(lines) + "\n"


def _blocked(
    count: int,
    width: int,
    threads: int,
    rows: int,
    block: Callable[[int, int], tuple[np.ndarray, dict[str, str]]],
) -> tuple[np.ndarray, dict[str, str]]:
    """Run block(r0, r1) over replicates 0 .. count-1, width values per replicate.

    A block has max(1, _BLOCK_VALUES // width) replicates; the last one may
    be shorter. Each block returns its (rows, r1 - r0) values and a dict of
    messages. The values are joined in replicate order into one
    (rows, count) array, and the first message per key is kept, so neither
    depends on the block length or the thread count.
    """
    step = max(1, _BLOCK_VALUES // width)
    blocks = [(r0, min(r0 + step, count)) for r0 in range(0, count, step)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(block, r0, r1) for r0, r1 in blocks]
            results = [fut.result() for fut in futures]
    else:
        results = (block(r0, r1) for r0, r1 in blocks)
    values = np.empty((rows, count))
    errors: dict[str, str] = {}
    for (r0, r1), (block_values, block_errors) in zip(blocks, results):
        values[:, r0:r1] = block_values
        for name, msg in block_errors.items():
            errors.setdefault(name, msg)  # blocks in replicate order: the first is the lowest
    return values, errors


def _config_losses(
    cfg: ExperimentConfig, setting: EstimatorSetting, ci: int, names: tuple[str, ...]
) -> tuple[np.ndarray, dict[str, str]]:
    """Full (estimators, replicates) loss matrix for one configuration.

    An estimator whose preconditions fail, or whose numerics fail on some
    replicate, gets NaN losses and a message in the returned errors; a
    numeric failure names the lowest failing replicate, so the message does
    not depend on the thread count.
    """
    truth = TrueParameters(mu=cfg.mean_configs[ci].mu, sigma2=cfg.sigma2)
    chol = np.linalg.cholesky(cfg.v)

    def losses_block(r0: int, r1: int) -> tuple[np.ndarray, dict[str, str]]:
        u, us = _replicate_uniforms(cfg.seed, (_NS_EXPERIMENT, ci), r0, r1, cfg.k, cfg.p)
        x, s = _draw(truth, chol, cfg.n, u, us)
        batch = setting.pooled.summarize(x, s)
        out = np.full((len(names), r1 - r0), np.nan)
        errors: dict[str, str] = {}
        for ei, name in enumerate(names):
            try:
                mu_hat, _ = BATCH_ESTIMATORS[name](setting, batch)
            except PreconditionError as exc:
                errors[name] = str(exc)
                continue
            except ReplicateError as exc:
                errors[name] = f"replicate {r0 + exc.replicate}: {exc}"
                continue
            out[ei] = loss(mu_hat, truth, setting.pooled.loss)
        return out, errors

    return _blocked(cfg.replicates, cfg.k * cfg.p, cfg.threads, len(names), losses_block)


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (pairwise-sum) means and standard errors along the last axis."""
    r = values.shape[-1]
    mean = np.sum(values, axis=-1) / r
    var = np.sum((values - mean[..., None]) ** 2, axis=-1) / (r - 1)
    return mean, np.sqrt(var / r)


def run_experiment(cfg: ExperimentConfig) -> RiskTable:
    """Estimate the risk of each requested estimator on each configuration.

    Identical (seed, config) pairs give bit-identical tables regardless of
    cfg.threads. Estimators whose preconditions fail on a configuration are
    reported in RiskTable.errors and skipped; the rest proceed. The paired
    contrasts come from the same loss matrices.
    """
    setting = cfg.validate()
    names = tuple(dict.fromkeys(resolve_estimator(raw)[0] for raw in cfg.estimators))
    errors: dict[tuple[str, str], str] = {}
    rows = []
    for ci, mc in enumerate(cfg.mean_configs):
        losses, cfg_errors = _config_losses(cfg, setting, ci, names)
        errors.update(((mc.name, name), msg) for name, msg in cfg_errors.items())
        # A skipped estimator's NaN losses give NaN means and standard errors.
        rows.append((*_mean_se(losses), *_mean_se(losses[:, None] - losses[None])))
    risk, se, paired_diff, paired_se = (np.array(col) for col in zip(*rows))
    reference = setting.pooled.trace_sum
    return RiskTable(
        config_names=tuple(mc.name for mc in cfg.mean_configs),
        estimator_names=names,
        risk=risk,
        se=se,
        prial=prial(reference, risk),
        paired_diff=paired_diff,
        paired_se=paired_se,
        risk_reference=reference,
        replicates=cfg.replicates,
        seed=cfg.seed,
        errors=errors,
    )


@dataclass(frozen=True)
class DominationReport:
    """Paired comparison of two estimators on common random numbers.

    mean_diff[i] is (baseline loss - candidate loss) averaged on
    configuration i; positive means the candidate does better. dominated is
    true when every configuration satisfies mean_diff >= -3 * se_diff.
    """

    candidate: str
    baseline: str
    config_names: tuple[str, ...]
    mean_diff: np.ndarray
    se_diff: np.ndarray
    per_config: np.ndarray
    dominated: bool


@dataclass(frozen=True)
class PairedCheck:
    """One paired comparison of per-draw values lhs and rhs on common draws.

    mean_lhs and mean_rhs are the two means; diff and se_diff are the mean
    and standard error of lhs - rhs, and passed is |diff| <= 3 se_diff.
    """

    name: str
    mean_lhs: float
    mean_rhs: float
    diff: float
    se_diff: float
    passed: bool


@dataclass(frozen=True)
class CheckSet:
    """Paired checks that pass together: passed is true when every check passed."""

    checks: tuple[PairedCheck, ...]
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))


def _paired_check(name: str, lhs: np.ndarray, rhs: np.ndarray) -> PairedCheck:
    """The three-standard-error verdict on lhs - rhs, with pairwise-sum means."""
    diff, se_diff = _mean_se(lhs - rhs)
    count = lhs.shape[0]
    return PairedCheck(
        name=name,
        mean_lhs=float(np.sum(lhs) / count),
        mean_rhs=float(np.sum(rhs) / count),
        diff=float(diff),
        se_diff=float(se_diff),
        passed=bool(abs(diff) <= 3.0 * se_diff),
    )


def validate_uer(
    cfg: ExperimentConfig,
    members: Sequence[ShrinkageFunctions],
    truth_points: Sequence[TrueParameters],
) -> tuple[CheckSet, ...]:
    """Check that the unbiased risk estimator matches Monte Carlo loss.

    Returns one CheckSet per class member, in member order, each over
    cfg.replicates replicates. Truth point i draws replicate r from the
    address every stream uses (see the module docstring) under key (1, i),
    so the first R replicates are the same whatever the run's length. Each
    point is summarized once per block of replicates and every member runs
    on that block; the blocks go through the harness's block loop in order,
    one at a time (cfg.threads is not used), so results do not depend on
    the block size. Check i compares the per-replicate unbiased risk
    estimate (lhs) with the realized loss (rhs) at truth point i and is
    named point-i. Every member must carry all six partial derivatives of
    its factors; there is no numerical fallback. No member, no truth
    point, a member without derivatives and a truth point of the wrong
    shape are all rejected before anything is drawn.
    """
    setting = cfg.validate()
    if not members:
        raise ValueError("no class members to check")
    if not truth_points:
        raise ValueError("no truth points to check")
    for mi, sf in enumerate(members):
        if missing := sf.missing_partials():
            raise ValueError(f"member {mi} lacks the partial derivatives {', '.join(missing)}")
    for pi, truth in enumerate(truth_points):
        if truth.mu.shape != (cfg.k, cfg.p):
            raise ValueError(
                f"truth point {pi} has shape {truth.mu.shape}, expected {(cfg.k, cfg.p)}"
            )
    chol = np.linalg.cholesky(cfg.v)

    # Rows of a point's per-replicate values: f, g, s, then for each member
    # its loss and the eight factor values and derivatives UerInputs takes;
    # uer then runs once per check, on the rows joined over all blocks.
    factor_rows = ("phi", "psi") + ShrinkageFunctions.PARTIALS
    per_member = 1 + len(factor_rows)

    def point_checks(pi: int, truth: TrueParameters) -> list[PairedCheck]:
        def uer_block(r0: int, r1: int) -> tuple[np.ndarray, dict[str, str]]:
            u, us = _replicate_uniforms(cfg.seed, (_NS_UER, pi), r0, r1, cfg.k, cfg.p)
            x, s = _draw(truth, chol, cfg.n, u, us)
            batch = setting.pooled.summarize(x, s)
            f, g = floored_statistics(batch)
            out = np.empty((3 + per_member * len(members), r1 - r0))
            out[0], out[1], out[2] = f, g, s
            for mi, sf in enumerate(members):
                mu_hat, diags = batch_general(setting, batch, sf)
                rows = out[3 + per_member * mi : 3 + per_member * (mi + 1)]
                rows[0] = loss(mu_hat, truth, setting.pooled.loss)
                rows[1], rows[2] = diags["phi"], diags["psi"]
                for i, name in enumerate(sf.PARTIALS):
                    rows[3 + i] = getattr(sf, name)(f, g, s)
            return out, {}

        values, _ = _blocked(
            cfg.replicates, cfg.k * cfg.p, 1, 3 + per_member * len(members), uer_block
        )
        f, g, s = values[:3]
        checks = []
        for mi in range(len(members)):
            losses, *factors = values[3 + per_member * mi : 3 + per_member * (mi + 1)]
            inputs = UerInputs(
                f_stat=f,
                g_stat=g,
                scale_sum=s,
                p=cfg.p,
                k=cfg.k,
                n=cfg.n,
                trace_sum=setting.pooled.trace_sum,
                **dict(zip(factor_rows, factors)),
            )
            checks.append(_paired_check(f"point-{pi}", np.asarray(uer(inputs)), losses))
        return checks

    per_point = [point_checks(pi, truth) for pi, truth in enumerate(truth_points)]
    return tuple(
        CheckSet(tuple(checks[mi] for checks in per_point)) for mi in range(len(members))
    )


def uer_members(p: int, k: int, n: int) -> tuple[tuple[str, ShrinkageFunctions], ...]:
    """Three class members with closed-form derivatives for risk checks.

    The first shrinks group means only, with the capped factor of the
    empirical mean-shrink estimator; the second adds the capped zero-shrink
    of the pooled mean; the third uses smooth rational factors with the
    same large-statistic limits. min-based factors get their almost-
    everywhere derivatives, which is all the risk identity needs.
    """
    t1 = (p * (k - 1) - 2.0) / (n + 2.0)
    t2 = (p - 2.0) / (n + 2.0)

    def zero(f, g, s):
        return np.zeros_like(np.asarray(f, dtype=float))

    def capped_f(f, g, s):
        return np.minimum(t1, np.asarray(f, dtype=float))

    def capped_f_df(f, g, s):
        return np.where(np.asarray(f, dtype=float) < t1, 1.0, 0.0)

    def capped_g(f, g, s):
        return np.minimum(t2, np.asarray(g, dtype=float))

    def capped_g_dg(f, g, s):
        return np.where(np.asarray(g, dtype=float) < t2, 1.0, 0.0)

    def smooth_f(f, g, s):
        f = np.asarray(f, dtype=float)
        return t1 * f / (1.0 + f)

    def smooth_f_df(f, g, s):
        with np.errstate(over="ignore"):  # the square overflows to inf, the slope to 0
            return t1 / (1.0 + np.asarray(f, dtype=float)) ** 2

    def smooth_g(f, g, s):
        g = np.asarray(g, dtype=float)
        return t2 * g / (1.0 + g)

    def smooth_g_dg(f, g, s):
        with np.errstate(over="ignore"):
            return t2 / (1.0 + np.asarray(g, dtype=float)) ** 2

    mean_only = ShrinkageFunctions(
        phi=capped_f, psi=zero,
        phi_f=capped_f_df, phi_g=zero, phi_s=zero,
        psi_f=zero, psi_g=zero, psi_s=zero,
    )
    double = ShrinkageFunctions(
        phi=capped_f, psi=capped_g,
        phi_f=capped_f_df, phi_g=zero, phi_s=zero,
        psi_f=zero, psi_g=capped_g_dg, psi_s=zero,
    )
    smooth = ShrinkageFunctions(
        phi=smooth_f, psi=smooth_g,
        phi_f=smooth_f_df, phi_g=zero, phi_s=zero,
        psi_f=zero, psi_g=smooth_g_dg, psi_s=zero,
    )
    return (
        ("mean-shrink", mean_only),
        ("double-shrink", double),
        ("smooth", smooth),
    )


def validate_identities(
    p: int = 5,
    n: int = 20,
    sigma2: float = 2.0,
    mu: np.ndarray | None = None,
    cov: np.ndarray | None = None,
    draws: int = VALIDATE_DRAWS,
    seed: int = ExperimentConfig.seed,
) -> CheckSet:
    """Monte Carlo check of the two identities behind the risk calculus.

    Gaussian part: for Y ~ N_p(mu, cov) and the bounded test field
    h(y) = y / (1 + |y|^2), the mean of (Y - mu)' h(Y) must match the mean
    of tr(cov J_h(Y)). Chi-square part: for S = sigma2 * chi2(n) and
    g(s) = 1 / (1 + s), the mean of S g(S) must match
    sigma2 * (n g(S) + 2 S g'(S)). Both are paired checks. Draw r is
    replicate r of stream (2, 0) read with k = 1: Y takes its
    observations, S its scale uniform. The draws run through the harness's
    block loop, max(1, _BLOCK_VALUES // p) draws per block, so only the four
    per-draw rows are kept at full length. p and n must be at least 1, the seed
    non-negative, mu finite, sigma2 positive and finite, and cov a
    well-conditioned positive definite matrix; all of that is checked
    before anything is drawn.
    """
    _need_replicates(draws)
    _need_nonnegative("seed", seed)
    for name, value in (("p", p), ("n", n)):
        if value < 1:
            raise ValueError(f"need {name} >= 1, got {value}")
    mu_vec = np.ones(p) if mu is None else np.asarray(mu, dtype=float)
    cov_mat = 2.0 * np.eye(p) if cov is None else np.asarray(cov, dtype=float)
    if mu_vec.shape != (p,):
        raise ValueError(f"mu must have shape ({p},), got {mu_vec.shape}")
    if cov_mat.shape != (p, p):
        raise ValueError(f"cov must have shape ({p}, {p}), got {cov_mat.shape}")
    truth = TrueParameters(mu_vec[None], sigma2)
    _guarded_inverse("cov", cov_mat)
    chol = np.linalg.cholesky(cov_mat)
    trace = np.trace(cov_mat)

    def identity_block(r0: int, r1: int) -> tuple[np.ndarray, dict[str, str]]:
        u, us = _replicate_uniforms(seed, (_NS_IDENTITY, 0), r0, r1, 1, p)
        y = mu_vec + apply_maps(chol, ndtri(u[:, 0]))
        denom = 1.0 + np.einsum("ra,ra->r", y, y)
        quad = quad_forms(y, cov_mat)
        with np.errstate(over="ignore", invalid="ignore"):
            s = truth.sigma2 * 2.0 * gammaincinv(0.5 * n, us)
            g = 1.0 / (1.0 + s)
            rows = np.stack((
                np.einsum("ra,ra->r", y - mu_vec, y / denom[:, None]),
                trace / denom - 2.0 * quad / denom**2,
                s * g,
                truth.sigma2 * (n * g - 2.0 * s * g**2),
            ))
        if not np.isfinite(rows).all():
            raise ArithmeticError(f"the identity checks overflow at sigma2 = {truth.sigma2:g}")
        return rows, {}

    values, _ = _blocked(draws, p, 1, 4, identity_block)
    return CheckSet(
        (
            _paired_check("gaussian-by-parts", values[0], values[1]),
            _paired_check("chi-square-derivative", values[2], values[3]),
        )
    )
