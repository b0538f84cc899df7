"""Deterministic Monte Carlo harness for risk comparison.

Reproducibility contract: every uniform is addressed by (seed, key, i),
output i of the Philox stream keyed by SeedSequence(entropy=seed,
spawn_key=key), read by advancing the stream's counter, so no draw depends
on the draws taken before it. Replicate r of configuration c owns outputs
r*w .. r*w + k*p of key (0, c): k*p for the observations, then one for the
scale statistic; w is k*p + 1 rounded up to a whole counter step of four
outputs. All variates are produced by inverse-CDF transforms, so results
are bit-identical across runs, thread counts, and platforms with IEEE-754
doubles. Replicates are evaluated in fixed-size blocks (never a function
of the thread count), each drawn by one call, and reduced with numpy's
pairwise summation.

Each block runs the batch kernels of the estimators module on the pooled
statistics of its replicates, the same code the single-shot estimators
run with one replicate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

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
from .model import CanonicalModel, Hyperparameters, LossSpec, PooledConstants, TrueParameters
# Unused here; kept because perfbench/spans.py traces them as attributes of this module.
from .numerics import f_quantile, hb1_shrink_ratio, hb2_shrink_ratios  # noqa: F401
from .risk import UerInputs, loss, uer
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "MeanConfig",
    "ExperimentConfig",
    "RiskTable",
    "DominationReport",
    "UerValidation",
    "IdentityValidation",
    "sample_canonical",
    "run_experiment",
    "paired_domination",
    "validate_uer",
    "validate_identities",
]

_BLOCK = 256
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
    return (raw + 0.5) * 2.0**-53


def _replicate_uniforms(
    seed: int, config: int, r0: int, r1: int, k: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms (R, k, p) and (R,) of replicates r0 .. r1-1 of one configuration."""
    w = 4 * -(-(k * p + 1) // 4)
    u = _uniforms(seed, (_NS_EXPERIMENT, config), r0 * w, (r1 - r0) * w).reshape(r1 - r0, w)
    return u[:, : k * p].reshape(r1 - r0, k, p), u[:, k * p]


def _need_replicates(count: int) -> None:
    if count < 2:
        raise ValueError(f"need at least 2 replicates, got {count}")


def _draw(
    truth: TrueParameters, chol: np.ndarray, n: int, u: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms u (R, k, p) and us (R,) to (x, s); chol factors the v stack."""
    x = truth.mu + math.sqrt(truth.sigma2) * np.einsum("kab,rkb->rka", chol, ndtri(u))
    s = truth.sigma2 * 2.0 * gammaincinv(0.5 * n, us)
    return x, s


def sample_canonical(
    truth: TrueParameters, v: np.ndarray, n: int, seed: int, config: int = 0, replicate: int = 0
) -> CanonicalModel:
    """Draw replicate `replicate` of configuration `config` under `seed`.

    These are the harness's draws for that address: run_experiment with the
    same seed, truth and v sees exactly this model as that replicate.
    """
    va = np.asarray(v, dtype=float)
    k, p = truth.mu.shape
    u, us = _replicate_uniforms(seed, config, replicate, replicate + 1, k, p)
    x, s = _draw(truth, np.linalg.cholesky(va), n, u, us)
    return CanonicalModel(x=x[0], v=va, s=float(s[0]), n=n)


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
    positive_part_js: bool = False

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

    def validate(self, tol: Tolerances = DEFAULT) -> EstimatorSetting:
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
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not self.mean_configs:
            raise ValueError("no mean configurations")
        for mc in self.mean_configs:
            if mc.mu.shape != (self.k, self.p):
                raise ValueError(
                    f"mean config {mc.name!r} has shape {mc.mu.shape}, "
                    f"expected {(self.k, self.p)}"
                )
        for name in self.estimators:
            resolve_estimator(name)
        template = CanonicalModel(x=np.zeros((self.k, self.p)), v=self.v, s=1.0, n=self.n)
        pooled = PooledConstants.from_model(template, self.loss_spec(template, tol), tol)
        return EstimatorSetting(pooled, self.hyper, tol, self.positive_part_js)

    def loss_spec(
        self, model: CanonicalModel | None = None, tol: Tolerances = DEFAULT
    ) -> LossSpec:
        if model is None:
            model = CanonicalModel(x=np.zeros((self.k, self.p)), v=self.v, s=1.0, n=self.n)
        if self.q is None:
            return LossSpec.inverse_v(model, tol)
        return LossSpec.for_model(model, self.q, tol)

    @classmethod
    def benchmark(
        cls,
        replicates: int = 5000,
        seed: int = 20260816,
        threads: int = 1,
        estimators: tuple[str, ...] = ESTIMATOR_ORDER,
    ) -> "ExperimentConfig":
        """The standard comparison protocol: five groups of dimension five.

        v[i] = 0.1 * (i+1) * identity, inverse-scale loss, noise standard
        deviation 2 (sigma2 = 4), n = 20, eight mean configurations ranging
        from all-equal to widely spread, hyperparameters a = b = c = 0.1
        with no precision tilt.
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
            estimators=tuple(estimators),
            replicates=replicates,
            seed=seed,
            threads=threads,
            hyper=Hyperparameters(a=0.1, b=0.1, c=0.1, big_l=0.0, alpha=0.05),
        )


@dataclass(frozen=True)
class RiskTable:
    """Monte Carlo risks, standard errors and percentage improvements.

    risk, se, prial are (configs, estimators) arrays. risk_reference is the
    exact risk of the unshrunk estimator (sum of traces), used as the
    improvement baseline. An estimator whose preconditions fail on some
    configuration gets NaN entries and a message in errors.
    """

    config_names: tuple[str, ...]
    estimator_names: tuple[str, ...]
    risk: np.ndarray
    se: np.ndarray
    prial: np.ndarray
    risk_reference: float
    replicates: int
    seed: int
    errors: dict[tuple[str, str], str] = field(default_factory=dict)

    def lookup(self, config: str, estimator: str) -> tuple[float, float, float]:
        ci = self.config_names.index(config)
        ei = self.estimator_names.index(estimator)
        return float(self.risk[ci, ei]), float(self.se[ci, ei]), float(self.prial[ci, ei])

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
        u, us = _replicate_uniforms(cfg.seed, ci, r0, r1, cfg.k, cfg.p)
        x, s = _draw(truth, chol, cfg.n, u, us)
        batch = setting.pooled.summarize(x, s, setting.tol)
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

    losses = np.empty((len(names), cfg.replicates))
    blocks = [(r0, min(r0 + _BLOCK, cfg.replicates)) for r0 in range(0, cfg.replicates, _BLOCK)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [pool.submit(losses_block, r0, r1) for r0, r1 in blocks]
            results = [fut.result() for fut in futures]
    else:
        results = (losses_block(r0, r1) for r0, r1 in blocks)
    errors: dict[str, str] = {}
    for (r0, r1), (block_losses, block_errors) in zip(blocks, results):
        losses[:, r0:r1] = block_losses
        for name, msg in block_errors.items():
            errors.setdefault(name, msg)  # blocks in replicate order: the first is the lowest
    return losses, errors


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Deterministic (pairwise-sum) mean and standard error along a vector."""
    r = values.shape[0]
    mean = float(np.sum(values) / r)
    var = float(np.sum((values - mean) ** 2) / (r - 1))
    return mean, math.sqrt(var / r)


def run_experiment(cfg: ExperimentConfig, tol: Tolerances = DEFAULT) -> RiskTable:
    """Estimate the risk of each requested estimator on each configuration.

    Identical (seed, config) pairs give bit-identical tables regardless of
    cfg.threads. Estimators whose preconditions fail on a configuration are
    reported in RiskTable.errors and skipped; the rest proceed.
    """
    setting = cfg.validate(tol)
    names = []
    for raw in cfg.estimators:
        canon, _ = resolve_estimator(raw)
        if canon not in names:
            names.append(canon)
    names = tuple(names)
    ncfg = len(cfg.mean_configs)
    risk = np.empty((ncfg, len(names)))
    se = np.empty_like(risk)
    errors: dict[tuple[str, str], str] = {}
    for ci, mc in enumerate(cfg.mean_configs):
        losses, cfg_errors = _config_losses(cfg, setting, ci, names)
        for name, msg in cfg_errors.items():
            errors[(mc.name, name)] = msg
        for ei in range(len(names)):
            if np.any(np.isnan(losses[ei])):
                risk[ci, ei] = np.nan
                se[ci, ei] = np.nan
            else:
                risk[ci, ei], se[ci, ei] = _mean_se(losses[ei])
    reference = setting.pooled.trace_sum
    with np.errstate(invalid="ignore"):
        prial_tab = 100.0 * (reference - risk) / reference
    return RiskTable(
        config_names=tuple(mc.name for mc in cfg.mean_configs),
        estimator_names=names,
        risk=risk,
        se=se,
        prial=prial_tab,
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


def paired_domination(
    cfg: ExperimentConfig, candidate: str, baseline: str, tol: Tolerances = DEFAULT
) -> DominationReport:
    """Test whether candidate never does worse than baseline on cfg.

    Both estimators see the same replicates, so the comparison is paired;
    the margin is three standard errors of the paired loss difference.
    """
    setting = cfg.validate(tol)
    cand, _ = resolve_estimator(candidate)
    base, _ = resolve_estimator(baseline)
    names = (cand, base) if cand != base else (cand,)
    ncfg = len(cfg.mean_configs)
    mean_diff = np.empty(ncfg)
    se_diff = np.empty(ncfg)
    for ci in range(ncfg):
        losses, errors = _config_losses(cfg, setting, ci, names)
        if errors:
            what = "; ".join(f"{n}: {m}" for n, m in errors.items())
            raise PreconditionError(
                f"cannot compare on {cfg.mean_configs[ci].name!r}: {what}"
            )
        diffs = losses[-1] - losses[0]  # baseline minus candidate
        mean_diff[ci], se_diff[ci] = _mean_se(diffs)
    per_config = mean_diff >= -3.0 * se_diff
    return DominationReport(
        candidate=cand,
        baseline=base,
        config_names=tuple(mc.name for mc in cfg.mean_configs),
        mean_diff=mean_diff,
        se_diff=se_diff,
        per_config=per_config,
        dominated=bool(np.all(per_config)),
    )


@dataclass(frozen=True)
class UerCheck:
    point: str
    mean_loss: float
    mean_uer: float
    diff: float
    se_diff: float
    passed: bool


@dataclass(frozen=True)
class UerValidation:
    checks: tuple[UerCheck, ...]
    passed: bool


def validate_uer(
    cfg: ExperimentConfig,
    sf: ShrinkageFunctions,
    truth_points: Sequence[TrueParameters],
    replicates: int = 100_000,
    fd_step: float = 1e-5,
    tol: Tolerances = DEFAULT,
) -> UerValidation:
    """Check that the unbiased risk estimator matches Monte Carlo loss.

    For each truth point, draws are taken as one vectorized block from the
    start of a point-indexed stream (the per-replicate addressing of the
    experiment runner is not needed here), the supplied class member is
    applied, and the paired difference between its realized loss and the
    unbiased risk estimate must be within three standard errors of zero.
    Derivatives come from the member when present, otherwise from central
    differences with relative step fd_step.
    """
    _need_replicates(replicates)
    setting = cfg.validate(tol)
    chol = np.linalg.cholesky(cfg.v)
    size = replicates * cfg.k * cfg.p

    def derivative(direct, base, args: list, which: int) -> np.ndarray:
        if direct is not None:
            return np.asarray(direct(*args), dtype=float)
        step = fd_step * args[which]
        up = list(args)
        dn = list(args)
        up[which] = args[which] + step
        dn[which] = args[which] - step
        return (
            np.asarray(base(*up), dtype=float) - np.asarray(base(*dn), dtype=float)
        ) / (2.0 * step)

    checks = []
    for pi, truth in enumerate(truth_points):
        if truth.mu.shape != (cfg.k, cfg.p):
            raise ValueError(
                f"truth point {pi} has shape {truth.mu.shape}, expected {(cfg.k, cfg.p)}"
            )
        u = _uniforms(cfg.seed, (_NS_UER, pi), 0, size + replicates)
        x, s = _draw(truth, chol, cfg.n, u[:size].reshape(replicates, cfg.k, cfg.p), u[size:])
        batch = setting.pooled.summarize(x, s, tol)
        mu_hat, diags = batch_general(setting, batch, sf)
        f, g = floored_statistics(batch, tol)

        args = [f, g, s]
        phi_f = derivative(sf.phi_f, sf.phi, args, 0)
        phi_g = derivative(sf.phi_g, sf.phi, args, 1)
        phi_s = derivative(sf.phi_s, sf.phi, args, 2)
        psi_f = derivative(sf.psi_f, sf.psi, args, 0)
        psi_g = derivative(sf.psi_g, sf.psi, args, 1)
        psi_s = derivative(sf.psi_s, sf.psi, args, 2)

        losses = loss(mu_hat, truth, setting.pooled.loss)

        inputs = UerInputs(
            f_stat=f,
            g_stat=g,
            scale_sum=s,
            p=cfg.p,
            k=cfg.k,
            n=cfg.n,
            trace_sum=setting.pooled.trace_sum,
            phi=diags["phi"],
            psi=diags["psi"],
            phi_f=phi_f,
            phi_g=phi_g,
            phi_s=phi_s,
            psi_f=psi_f,
            psi_g=psi_g,
            psi_s=psi_s,
        )
        estimates = np.asarray(uer(inputs))
        mean_d, se_d = _mean_se(estimates - losses)
        mean_loss = float(np.sum(losses) / replicates)
        checks.append(
            UerCheck(
                point=f"point-{pi}",
                mean_loss=mean_loss,
                mean_uer=mean_loss + mean_d,
                diff=mean_d,
                se_diff=se_d,
                passed=bool(abs(mean_d) <= 3.0 * se_d),
            )
        )
    return UerValidation(checks=tuple(checks), passed=all(c.passed for c in checks))


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
        f = np.asarray(f, dtype=float)
        return t1 / (1.0 + f) ** 2

    def smooth_g(f, g, s):
        g = np.asarray(g, dtype=float)
        return t2 * g / (1.0 + g)

    def smooth_g_dg(f, g, s):
        g = np.asarray(g, dtype=float)
        return t2 / (1.0 + g) ** 2

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


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    mean_lhs: float
    mean_rhs: float
    diff: float
    se_diff: float
    passed: bool


@dataclass(frozen=True)
class IdentityValidation:
    checks: tuple[IdentityCheck, ...]
    passed: bool


def validate_identities(
    p: int = 5,
    n: int = 20,
    sigma2: float = 2.0,
    mu: np.ndarray | None = None,
    cov: np.ndarray | None = None,
    draws: int = 100_000,
    seed: int = 20260816,
) -> IdentityValidation:
    """Monte Carlo check of the two identities behind the risk calculus.

    Gaussian part: for Y ~ N_p(mu, cov) and the bounded test field
    h(y) = y / (1 + |y|^2), the mean of (Y - mu)' h(Y) must match the mean
    of tr(cov J_h(Y)). Chi-square part: for S = sigma2 * chi2(n) and
    g(s) = 1 / (1 + s), the mean of S g(S) must match
    sigma2 * (n g(S) + 2 S g'(S)). Both are paired comparisons with a
    three-standard-error margin.
    """
    _need_replicates(draws)
    mu_vec = np.ones(p) if mu is None else np.asarray(mu, dtype=float)
    cov_mat = 2.0 * np.eye(p) if cov is None else np.asarray(cov, dtype=float)
    if mu_vec.shape != (p,):
        raise ValueError(f"mu must have shape ({p},), got {mu_vec.shape}")
    if cov_mat.shape != (p, p):
        raise ValueError(f"cov must have shape ({p}, {p}), got {cov_mat.shape}")

    z = ndtri(_uniforms(seed, (_NS_IDENTITY, 0), 0, draws * p).reshape(draws, p))
    y = mu_vec + z @ np.linalg.cholesky(cov_mat).T
    r2 = np.einsum("ra,ra->r", y, y)
    denom = 1.0 + r2
    h_val = y / denom[:, None]
    lhs = np.einsum("ra,ra->r", y - mu_vec, h_val)
    quad = np.einsum("ra,ab,rb->r", y, cov_mat, y)
    rhs = np.trace(cov_mat) / denom - 2.0 * quad / denom**2
    mean_d, se_d = _mean_se(lhs - rhs)
    mean_lhs = float(np.sum(lhs) / draws)
    gauss = IdentityCheck(
        name="gaussian-by-parts",
        mean_lhs=mean_lhs,
        mean_rhs=mean_lhs - mean_d,
        diff=mean_d,
        se_diff=se_d,
        passed=bool(abs(mean_d) <= 3.0 * se_d),
    )

    s = sigma2 * 2.0 * gammaincinv(0.5 * n, _uniforms(seed, (_NS_IDENTITY, 1), 0, draws))
    g_val = 1.0 / (1.0 + s)
    lhs2 = s * g_val
    rhs2 = sigma2 * (n * g_val - 2.0 * s * g_val**2)
    mean_d2, se_d2 = _mean_se(lhs2 - rhs2)
    mean_lhs2 = float(np.sum(lhs2) / draws)
    chisq = IdentityCheck(
        name="chi-square-derivative",
        mean_lhs=mean_lhs2,
        mean_rhs=mean_lhs2 - mean_d2,
        diff=mean_d2,
        se_diff=se_d2,
        passed=bool(abs(mean_d2) <= 3.0 * se_d2),
    )
    return IdentityValidation(checks=(gauss, chisq), passed=gauss.passed and chisq.passed)
