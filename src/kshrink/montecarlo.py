"""Deterministic Monte Carlo harness for risk comparison.

Reproducibility contract: every uniform is addressed by (seed, key, i),
output i of the Philox stream keyed by SeedSequence(entropy=seed,
spawn_key=key), read by advancing the stream's counter, so no draw depends
on the draws taken before it. Every stream has one layout: replicate r
owns outputs r*w .. r*w + k*p, k*p for the observations and then one for
the scale statistic, where w is k*p + 1 rounded up to a whole counter step
of four outputs. So a replicate's address depends on neither the run's
length nor the draws before it. The keys are (0, c) for configuration c of
an experiment, (1, c) for configuration c of validate_uer, and (2, 0), read
with k = 1, for validate_identities. All variates are produced by
inverse-CDF transforms, so results are bit-identical across runs, thread
counts, and platforms with IEEE-754 doubles. Every stream is read in
blocks through one block loop over rows, _blocked, each block reading
only its own slices of the streams; run_experiment, validate_uer and
validate_identities all run it on cfg.threads threads, the calling
thread among them. One function, _draw, reads a slice (replicates r0
to r1-1 of one stream) and maps it to (x, s) at every entry point but
validate_identities, which reads its k = 1 stream and maps it itself. In
run_experiment and validate_uer, row c*R + r is replicate r of
configuration c, and a failing row is named by both. run_experiment's one
block loop covers every row, so a block may read slices of several
configurations' streams, each at its replicates' own addresses, with one
_draw per slice; validate_uer runs one block loop per configuration. A
block holds max(1, _BLOCK_VALUES // width) rows, where width is the number
of values a row has in the block's largest arrays (k*p for a
configuration's draws, p for the identities), so a block's working set
stays near _BLOCK_VALUES doubles per array at any dimension; the block
length is never a function of the thread count. The per-replicate work
takes no matrix product over rows (whose BLAS bits depend on the row
count). Every matrix map of a replicate's entries (the
Cholesky map of the draws, the weights, the pooled mean and the direction
maps) goes through model.apply_maps, whose summation order is fixed by p
alone; every quadratic form goes through model.quad_forms; every other sum
over a replicate's own entries is an einsum or elementwise step on that
row alone. Both helpers follow one rule: a lone replicate runs as two
copies of itself, and full matrices run with the replicate axis innermost
(maps up to p = 16, wider ones replicate-first). Both take an elementwise
path when a matrix is diagonal (every scale and loss matrix of the default
experiment), which adds the same nonzero terms in the same order and so
gives the same bits as the full path. So a replicate's values depend on
neither the length of its block nor its neighbours in it, whatever v and
the loss weights are. The per-replicate values are joined in row order and
each stream's are reduced with numpy's pairwise summation, so the block
size never changes a result.

Each block runs the batch kernels of the estimators module on the pooled
statistics of its rows, the same code the single-shot estimators run
with one replicate. run_experiment's one block loop covers every
configuration; RiskTable.domination reads its paired contrasts. Both
self-checks, validate_uer and validate_identities, report paired checks
of one kind: the mean of lhs - rhs over common draws must lie within
three standard errors of 0. Every entry point that draws (run_experiment,
validate_uer, validate_identities, sample_canonical) takes the
ExperimentConfig and runs cfg.validate() before its first draw. The
config holds its counts as Python ints and its estimators as canonical
names from construction, so no entry point converts or resolves them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from threading import Lock, Thread
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincinv, ndtri

from .datasets import number_cell, quote_cell
from .estimators import (
    BATCH_ESTIMATORS,
    ESTIMATOR_ORDER,
    PreconditionError,
    ReplicateError,
    ShrinkageFunctions,
    batch_general,
    canonical_estimators,
    eb_members,
    floored_statistics,
    resolve_estimator,
)
from .model import (
    CanonicalModel,
    Hyperparameters,
    LossSpec,
    PooledBatch,
    PooledConstants,
    TrueParameters,
    _as_float,
    _as_int,
    _freeze,
    apply_maps,
    quad_forms,
)
# Unused here; kept because perfbench/spans.py traces them as attributes of this module.
from .numerics import f_quantile, hb1_shrink_ratio, hb2_shrink_ratios  # noqa: F401
from .risk import loss, prial, uer

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
# Replicates of a validate run when no count is given.
VALIDATE_DRAWS = 100_000
# Stream namespaces; first spawn_key element.
_NS_EXPERIMENT = 0
_NS_UER = 1
_NS_IDENTITY = 2


def usable_cores() -> int:
    """The cores this process may run on: the default thread count of a run."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _uniforms(seed: int, key: tuple[int, ...], start: int, count: int) -> np.ndarray:
    """Outputs start .. start+count-1 of stream (seed, key) as (0, 1) uniforms.

    The uniforms sit on a fixed 2^53 lattice. Each Philox counter step
    yields four outputs, so start must be a multiple of four.
    """
    bitgen = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
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


def _need_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _draw(
    cfg: ExperimentConfig,
    key: tuple[int, int],
    mu: np.ndarray,
    chol: np.ndarray,
    r0: int,
    r1: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(x, s) of replicates r0 .. r1-1 of stream key, drawn at mean rows mu and cfg.sigma2.

    chol factors cfg.v. Each row is mapped from its own uniforms alone, so a
    range split into parts gives the same rows as the whole. A draw may
    overflow to inf; PooledConstants.summarize rejects it.
    """
    u, us = _replicate_uniforms(cfg.seed, key, r0, r1, cfg.k, cfg.p)
    with np.errstate(over="ignore"):
        x = mu + math.sqrt(cfg.sigma2) * apply_maps(chol, ndtri(u))
        s = cfg.sigma2 * 2.0 * gammaincinv(0.5 * cfg.n, us)
    return x, s


@dataclass(frozen=True)
class MeanConfig:
    """One truth configuration: a name and the (k, p) mean rows."""

    name: str
    mu: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _freeze(np.atleast_2d(self.mu)))

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

    k and p are read from the (k, p, p) stack v, as CanonicalModel reads
    them from x; v, q and the mean rows are frozen copies of the caller's.
    q=None means inverse-scale loss (q[i] = inv(v[i])), as
    LossSpec.for_model reads it. The seed addresses the whole experiment;
    threads, by default usable_cores(), only affects wall time, never
    results. Construction stores n, replicates, seed and threads as Python
    ints (numpy integers pass; a bool, float or string raises ValueError
    naming the field), sigma2 as a Python float (real numbers pass; a bool
    or string raises ValueError naming it) and estimators as canonical
    names, aliases resolved and each kept once in the order it first
    appears (estimators.canonical_estimators: an unknown name raises
    KeyError, a bare string ValueError). validate() checks the values.
    """

    n: int
    sigma2: float
    v: np.ndarray
    mean_configs: tuple[MeanConfig, ...]
    estimators: tuple[str, ...] = ESTIMATOR_ORDER
    q: np.ndarray | None = None
    replicates: int = 5000
    seed: int = 20260816
    threads: int = field(default_factory=usable_cores)
    hyper: Hyperparameters = field(default_factory=Hyperparameters)

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _freeze(self.v))
        if self.q is not None:
            object.__setattr__(self, "q", _freeze(self.q))
        object.__setattr__(self, "mean_configs", tuple(self.mean_configs))
        object.__setattr__(self, "estimators", canonical_estimators(self.estimators))
        object.__setattr__(self, "sigma2", _as_float("sigma2", self.sigma2))
        for name in ("n", "replicates", "seed", "threads"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))

    @property
    def k(self) -> int:
        return self.v.shape[0]

    @property
    def p(self) -> int:
        return self.v.shape[-1]

    @staticmethod
    def check_dimensions(p: int, k: int, n: int) -> None:
        """Reject dimensions no experiment can have: k >= 2 groups, p >= 1, n >= 1."""
        if k < 2:
            raise ValueError(f"need k >= 2 groups, got {k}")
        if p < 1:
            raise ValueError(f"need p >= 1, got {p}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")

    def validate(self) -> PooledConstants:
        """Check the configuration; return the pooled constants its replicates share.

        A config and its arrays never change, so the first call that passes
        keeps the constants on the object and later calls return them; a
        call that fails keeps nothing. dataclasses.replace builds a new
        object, which is checked afresh.
        """
        return self._constants

    @cached_property
    def _constants(self) -> PooledConstants:
        if self.v.ndim != 3 or self.v.shape[1] != self.v.shape[2]:
            raise ValueError(f"v must have shape (k, p, p), got {self.v.shape}")
        self.check_dimensions(self.p, self.k, self.n)
        if not (self.sigma2 > 0.0 and np.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.q is not None and self.q.shape != self.v.shape:
            raise ValueError(f"q must have shape {self.v.shape}, got {self.q.shape}")
        if self.replicates < 2:
            raise ValueError(f"need at least 2 replicates, got {self.replicates}")
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
        if not self.estimators:
            raise ValueError("no estimators")
        template = CanonicalModel(x=np.zeros((self.k, self.p)), v=self.v, s=1.0, n=self.n)
        return PooledConstants.from_model(template, LossSpec.for_model(template, self.q))

    @classmethod
    def benchmark(cls) -> "ExperimentConfig":
        """The standard comparison protocol: five groups of dimension five.

        v[i] = 0.1 * (i+1) * identity, inverse-scale loss, noise standard
        deviation 2 (sigma2 = 4), n = 20, eight mean configurations ranging
        from all-equal to widely spread, and the field defaults for the
        rest, among them Hyperparameters() (a = b = c = 0.1, no precision
        tilt, alpha = 0.05); change those with dataclasses.replace.
        """
        p = k = 5
        v = np.stack([0.1 * (i + 1) * np.eye(p) for i in range(k)])
        means = tuple(
            MeanConfig.from_scales(name, scales, p) for name, scales in _BENCHMARK_SCALES
        )
        return cls(n=20, sigma2=4.0, v=v, mean_configs=means)


def sample_canonical(
    cfg: ExperimentConfig, config: int = 0, replicate: int = 0
) -> CanonicalModel:
    """Draw replicate `replicate` of cfg's mean configuration `config`.

    These are the harness's draws for that address: run_experiment(cfg)
    sees exactly this model as that replicate, drawn at the mean rows of
    cfg.mean_configs[config] and at cfg's sigma2, v, n and seed. cfg is
    checked by cfg.validate(), and config must index cfg.mean_configs,
    before anything is drawn; config and replicate are integers (numpy
    integers pass, a bool, float or string raises ValueError).
    """
    cfg.validate()
    config, replicate = _as_int("config", config), _as_int("replicate", replicate)
    if not 0 <= config < len(cfg.mean_configs):
        raise ValueError(f"config must be in [0, {len(cfg.mean_configs)}), got {config}")
    _need_nonnegative("replicate", replicate)
    mu, chol = cfg.mean_configs[config].mu, np.linalg.cholesky(cfg.v)
    x, s = _draw(cfg, (_NS_EXPERIMENT, config), mu, chol, replicate, replicate + 1)
    return CanonicalModel(x=x[0], v=cfg.v, s=float(s[0]), n=cfg.n)


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
        canon = resolve_estimator(name)
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
        enames = [quote_cell(ename) for ename in self.estimator_names]
        for ci, cname in enumerate(map(quote_cell, self.config_names)):
            for ei, ename in enumerate(enames):
                numbers = (self.risk[ci, ei], self.se[ci, ei], self.prial[ci, ei])
                lines.append(
                    f"{cname},{ename},{','.join(map(number_cell, numbers))},"
                    f"{self.replicates},{self.seed}"
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
    block: Callable[[int, int], tuple[np.ndarray, dict]],
) -> tuple[np.ndarray, dict]:
    """Run block(r0, r1) over rows 0 .. count-1 on `threads` threads, width values per row.

    A block has max(1, _BLOCK_VALUES // width) rows; the last one may be
    shorter. Each block returns its (rows, r1 - r0) values and a dict of
    messages, and its values go straight into one (rows, count) array,
    allocated first so that a count past memory fails before any block
    runs. The calling thread is one of the threads: it starts
    min(threads, blocks) - 1 helpers, fewer if the system refuses one, and
    each thread takes the lowest block not yet taken until none is left.
    The first message per key in row order is kept, so neither the values
    nor the messages depend on the block length or the thread count. Once
    a block raises, no block starts; every helper is joined, then the
    exception of the lowest failing block is raised, the one a single
    thread raises.
    """
    values = np.empty((rows, count))
    step = max(1, _BLOCK_VALUES // width)
    starts = range(0, count, step)
    messages: list[dict] = [{}] * len(starts)
    failures: dict[int, BaseException] = {}
    untaken = iter(range(len(starts)))
    lock = Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if failures else next(untaken, None)
            if i is None:
                return
            r0 = starts[i]
            try:
                values[:, r0 : r0 + step], messages[i] = block(r0, min(r0 + step, count))
            except BaseException as exc:  # an interrupt too: it stops the helpers, then is raised
                with lock:
                    failures[i] = exc
                return

    helpers: list[Thread] = []
    try:
        for _ in range(min(threads, len(starts)) - 1):
            helper = Thread(target=work)
            try:
                helper.start()
            except RuntimeError:  # the system refused a thread: run with the ones started
                break
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        # Blocks are taken in order, so every block below a failed one ran.
        raise failures[min(failures)]
    errors: dict = {}
    for block_errors in messages:
        for key, msg in block_errors.items():
            errors.setdefault(key, msg)
    return values, errors


def _summarize(cfg: ExperimentConfig, x: np.ndarray, s: np.ndarray, row0: int) -> PooledBatch:
    """Pooled statistics of rows row0, row0 + 1, ...; row c*R + r is replicate r of configuration c.

    A failing row raises a ReplicateError naming its configuration and replicate.
    """
    try:
        return cfg.validate().summarize(x, s)
    except ReplicateError as exc:
        ci, r = divmod(row0 + exc.replicate, cfg.replicates)
        label = f"mean config {cfg.mean_configs[ci].name!r}, replicate {r}"
        raise ReplicateError(r, ArithmeticError(f"{label}: {exc}")) from exc


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (pairwise-sum) means and standard errors along the last axis."""
    r = values.shape[-1]
    mean = np.sum(values, axis=-1) / r
    dev = values - mean[..., None]
    # Squared deviations near 1e-200 underflow to 0 (near 1e200 they
    # overflow), so square them scaled by a power of two, which is exact.
    _, exponent = np.frexp(np.max(np.abs(dev), axis=-1, keepdims=True))
    np.ldexp(dev, -exponent, out=dev)
    var = np.sum(np.square(dev, out=dev), axis=-1) / (r - 1)
    return mean, np.ldexp(np.sqrt(var / r), exponent[..., 0])


def run_experiment(cfg: ExperimentConfig) -> RiskTable:
    """Estimate the risk of each requested estimator on each configuration.

    One block loop runs over the rows c * replicates + r, replicate r of
    configuration c, so a block may span configurations: it reads each
    one's replicates from that configuration's stream, draws against
    per-row means and runs each batch kernel once. Identical (seed, config)
    pairs give bit-identical tables regardless of cfg.threads. An
    estimator whose preconditions fail is skipped, with its message in
    RiskTable.errors. One whose numerics fail on a block is rerun on each
    configuration's part of it, so only the failing configurations skip
    it, each naming its lowest failing replicate. A draw that overflows
    stops the run with a ReplicateError naming the configuration and the
    replicate, and so does a block whose pooled statistics fail their
    decomposition check. The paired contrasts come from the same loss
    matrices.
    """
    constants = cfg.validate()
    names = cfg.estimators
    count = cfg.replicates
    config_names = tuple(mc.name for mc in cfg.mean_configs)
    means = np.stack([mc.mu for mc in cfg.mean_configs])
    chol = np.linalg.cholesky(cfg.v)

    def losses_block(b0: int, b1: int) -> tuple[np.ndarray, dict[tuple[str, str], str]]:
        # (configuration, first replicate, end replicate) of each configuration in the block.
        segments = [
            (ci, max(b0 - ci * count, 0), min(b1 - ci * count, count))
            for ci in range(b0 // count, (b1 - 1) // count + 1)
        ]
        drawn = [
            _draw(cfg, (_NS_EXPERIMENT, ci), means[ci], chol, r0, r1)
            for ci, r0, r1 in segments
        ]
        x, s = (np.concatenate(parts) for parts in zip(*drawn))
        truth = TrueParameters(mu=means[np.arange(b0, b1) // count], sigma2=cfg.sigma2)
        batch = _summarize(cfg, x, s, b0)
        out = np.full((len(names), b1 - b0), np.nan)
        errors: dict[tuple[str, str], str] = {}
        for ei, name in enumerate(names):
            kernel = BATCH_ESTIMATORS[name]
            try:
                mu_hat, _ = kernel(cfg.hyper, batch)
            except PreconditionError as exc:
                errors.update(((config_names[ci], name), str(exc)) for ci, _, _ in segments)
                continue
            except ReplicateError:
                # Each configuration keeps its own values and lowest failing replicate.
                mu_hat = np.full_like(x, np.nan)
                for ci, r0, r1 in segments:
                    rows = slice(ci * count + r0 - b0, ci * count + r1 - b0)
                    part = constants.summarize(x[rows], s[rows])
                    try:
                        mu_hat[rows], _ = kernel(cfg.hyper, part)
                    except ReplicateError as exc:
                        errors[config_names[ci], name] = f"replicate {r0 + exc.replicate}: {exc}"
            out[ei] = loss(mu_hat, truth, constants.loss)
        return out, errors

    losses, errors = _blocked(
        len(config_names) * count, cfg.k * cfg.p, cfg.threads, len(names), losses_block
    )
    # Configuration-major; the stable sort keeps each configuration's own order.
    errors = dict(sorted(errors.items(), key=lambda item: config_names.index(item[0][0])))
    # A skipped estimator's NaN losses give NaN means and standard errors.
    stats = [
        (*_mean_se(part), *_mean_se(part[:, None] - part[None]))
        for part in np.split(losses, len(config_names), axis=1)
    ]
    risk, se, paired_diff, paired_se = (np.array(col) for col in zip(*stats))
    reference = constants.trace_sum
    return RiskTable(
        config_names=config_names,
        estimator_names=names,
        risk=risk,
        se=se,
        prial=prial(reference, risk),
        paired_diff=paired_diff,
        paired_se=paired_se,
        risk_reference=reference,
        replicates=count,
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
    cfg: ExperimentConfig, members: Sequence[ShrinkageFunctions]
) -> tuple[CheckSet, ...]:
    """Check that the unbiased risk estimator matches Monte Carlo loss.

    Returns one CheckSet per class member, in member order, with one check
    per configuration of cfg.mean_configs, each over cfg.replicates
    replicates drawn at the configuration's mean rows and cfg.sigma2.
    Configuration c draws replicate r from the address every stream uses
    (see the module docstring) under key (1, c), so the first R replicates
    are the same whatever the run's length. Each configuration is
    summarized once per block of replicates and every member runs on that
    block; the blocks go through the harness's block loop on cfg.threads
    threads, so results depend on neither the block size nor the thread
    count. A block keeps only f, g, s and each member's loss; risk.uer
    evaluates a member's factors once per check, on the rows joined over
    all blocks. The check of configuration c compares the per-replicate
    unbiased risk estimate (lhs) with the realized loss (rhs) there and
    carries the configuration's name. Every member must carry all six
    partial derivatives of its factors; there is no numerical fallback.
    cfg.validate(), no member and a member without derivatives all reject
    the call before anything is drawn. A draw that overflows, or whose
    pooled statistics fail their decomposition check, raises a
    ReplicateError naming the configuration and the replicate.
    """
    constants = cfg.validate()
    if not members:
        raise ValueError("no class members to check")
    for mi, sf in enumerate(members):
        if missing := sf.missing_partials():
            raise ValueError(f"member {mi} lacks the partial derivatives {', '.join(missing)}")
    chol = np.linalg.cholesky(cfg.v)

    # Rows of a configuration's per-replicate values: f, g, s, then each
    # member's loss; uer then runs once per check, on the rows joined over
    # all blocks. One block loop per configuration holds one configuration's
    # rows at a time.
    def config_checks(ci: int, mc: MeanConfig) -> list[PairedCheck]:
        truth = TrueParameters(mu=mc.mu, sigma2=cfg.sigma2)

        def uer_block(r0: int, r1: int) -> tuple[np.ndarray, dict[str, str]]:
            x, s = _draw(cfg, (_NS_UER, ci), mc.mu, chol, r0, r1)
            batch = _summarize(cfg, x, s, ci * cfg.replicates + r0)
            out = np.empty((3 + len(members), r1 - r0))
            out[0], out[1] = floored_statistics(batch)
            out[2] = s
            for mi, sf in enumerate(members):
                mu_hat, _ = batch_general(batch, sf)
                out[3 + mi] = loss(mu_hat, truth, constants.loss)
            return out, {}

        values, _ = _blocked(
            cfg.replicates, cfg.k * cfg.p, cfg.threads, 3 + len(members), uer_block
        )
        f, g, s = values[:3]
        dims = dict(p=cfg.p, k=cfg.k, n=cfg.n, trace_sum=constants.trace_sum)
        return [
            _paired_check(mc.name, uer(sf, f, g, s, **dims), losses)
            for sf, losses in zip(members, values[3:])
        ]

    per_config = [config_checks(ci, mc) for ci, mc in enumerate(cfg.mean_configs)]
    return tuple(
        CheckSet(tuple(checks[mi] for checks in per_config)) for mi in range(len(members))
    )


def uer_members(p: int, k: int, n: int) -> tuple[tuple[str, ShrinkageFunctions], ...]:
    """Three class members with closed-form derivatives for risk checks.

    "mean-shrink" and "double-shrink" are EB's and EB*'s own members
    (estimators.eb_members), the objects their kernels run, with the
    capped factors' almost-everywhere derivatives. "smooth" has the smooth
    rational factors t u / (1 + u), u = f for phi and g for psi, with the
    capped factors' large-statistic limits t and EB*'s zero cross partials.
    """
    eb, eb_star = eb_members(p, k, n)

    def smooth_pair(t, i):
        """t u / (1 + u) and its slope in u, where u is argument i of (f, g, s)."""

        def factor(*fgs):
            u = np.asarray(fgs[i], dtype=float)
            return t * u / (1.0 + u)

        def slope(*fgs):
            with np.errstate(over="ignore"):  # the square overflows to inf, the slope to 0
                return t / (1.0 + np.asarray(fgs[i], dtype=float)) ** 2

        return factor, slope

    # t is the capped factor's value at an infinite statistic.
    smooth_f, smooth_f_df = smooth_pair(float(eb_star.phi(np.inf, np.inf, 1.0)), 0)
    smooth_g, smooth_g_dg = smooth_pair(float(eb_star.psi(np.inf, np.inf, 1.0)), 1)
    smooth = replace(eb_star, phi=smooth_f, psi=smooth_g, phi_f=smooth_f_df, psi_g=smooth_g_dg)
    return (
        ("mean-shrink", eb),
        ("double-shrink", eb_star),
        ("smooth", smooth),
    )


def validate_identities(cfg: ExperimentConfig) -> CheckSet:
    """Monte Carlo check of the two identities behind the risk calculus.

    Gaussian part: for Y ~ N_p(mu, cov), with mu = (1, ..., 1) and
    cov = 2 I, and the bounded test field h(y) = y / (1 + |y|^2), the mean
    of (Y - mu)' h(Y) must match the mean of tr(cov J_h(Y)). Chi-square
    part: for S = sigma2 * chi2(n) and g(s) = 1 / (1 + s), the mean of
    S g(S) must match sigma2 * (n g(S) + 2 S g'(S)). p, n, sigma2, the
    seed and the draw count (cfg.replicates) are cfg's, checked by
    cfg.validate() before anything is drawn. Both are paired checks. Draw
    r is replicate r of stream (2, 0) read with k = 1: Y takes its
    observations, S its scale uniform. The draws run through the harness's
    block loop on cfg.threads threads, max(1, _BLOCK_VALUES // p) draws per
    block, so only the four per-draw rows are kept at full length, and
    the results and any overflow error are the same at any thread count.
    """
    cfg.validate()
    p, n, sigma2 = cfg.p, cfg.n, cfg.sigma2
    mu = np.ones(p)
    cov = 2.0 * np.eye(p)
    chol = np.linalg.cholesky(cov)
    trace = np.trace(cov)

    def identity_block(r0: int, r1: int) -> tuple[np.ndarray, dict[str, str]]:
        u, us = _replicate_uniforms(cfg.seed, (_NS_IDENTITY, 0), r0, r1, 1, p)
        y = mu + apply_maps(chol, ndtri(u[:, 0]))
        denom = 1.0 + np.einsum("ra,ra->r", y, y)
        quad = quad_forms(y, cov)
        with np.errstate(over="ignore", invalid="ignore"):
            s = sigma2 * 2.0 * gammaincinv(0.5 * n, us)
            g = 1.0 / (1.0 + s)
            g2 = g**2
            # s g^2 as (s g) g where g^2 leaves the normal range (sigma2 past
            # about 1e150) and underflows; elsewhere s * g2 keeps the pinned bits.
            s_g2 = np.where(g2 >= np.finfo(float).tiny, s * g2, (s * g) * g)
            rows = np.stack((
                np.einsum("ra,ra->r", y - mu, y / denom[:, None]),
                trace / denom - 2.0 * quad / denom**2,
                s * g,
                sigma2 * (n * g - 2.0 * s_g2),
            ))
        if not np.isfinite(rows).all():
            raise ArithmeticError(f"the identity checks overflow at sigma2 = {sigma2:g}")
        return rows, {}

    values, _ = _blocked(cfg.replicates, p, cfg.threads, 4, identity_block)
    return CheckSet(
        (
            _paired_check("gaussian-by-parts", values[0], values[1]),
            _paired_check("chi-square-derivative", values[2], values[3]),
        )
    )
