"""The benchmark's workloads: inputs made from the seed, commands, checks.

Each workload runs one of kshrink's user commands in-process through
``kshrink.cli.main`` and checks what it wrote. Inputs are generated from
the seed before anything is timed; the program receives only the files.
Every command runs with ``threads=1``, the CLI default, so the numbers
measure the program rather than the scheduler.

Why each workload is in the benchmark:

- table1: the paper's table and the ROADMAP headline. Nearly all of its
  time goes to scalar zero-tilt ``hb2_shrink_ratios`` (three quadratures of
  165 evaluations per call, none bisected), so batching HB2 shows here;
  the rest is per-replicate sampling, pooled statistics and the
  closed-form estimators, which become the bulk once HB2 is batched.
- estimate: the only workload through ``cli``, ``config`` and ``datasets``,
  the canonicalisation, ``LossSpec``, the guarded ``pooled_summary`` and the
  single-shot ``estimate_*``. It catches a batch-native rewrite that makes
  the one-replicate case slower, and it bypasses changes to the harness.
- validate: the only caller of ``risk.uer`` and the big-block path: pooled
  statistics over (R, 5, 5) arrays and one large inverse-CDF draw per
  truth point, with a working set far larger than cache. ``table1`` runs
  the same kind of code in 256-replicate blocks.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import math
import re
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from kshrink.datasets import write_ksample_csv
from kshrink.estimators import ESTIMATOR_ORDER, ESTIMATORS
from kshrink.model import (
    Hyperparameters,
    LossSpec,
    canonicalize_ksample,
    canonicalize_regression,
    pooled_summary,
)

ROOT = Path(__file__).resolve().parent.parent

# Published-table tolerance at the published 5000 replicates.
PRIAL_TOLERANCE = 2.5
# Chance that a correct program fails a whole family of statistical checks
# in one run. Each check's z-bound is set from it and the family size.
FAMILY_ALPHA = 1e-4


def family_z(checks: int) -> float:
    """Two-sided normal bound giving FAMILY_ALPHA over `checks` checks."""
    return statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * checks))


def expected_prial() -> dict[str, tuple[float, ...]]:
    """The published table, taken from the acceptance test, not copied.

    The assignment is parsed rather than imported, so the test's own
    imports (pytest, the oracles) never enter the measured process.
    """
    path = ROOT / "tests" / "test_acceptance.py"
    try:
        tree = ast.parse(path.read_text())
    except OSError as exc:
        raise ImportError(f"cannot read {path}: {exc}") from exc
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXPECTED_PRIAL" for t in node.targets):
            return ast.literal_eval(node.value)
    raise ImportError(f"no EXPECTED_PRIAL assignment in {path}")


@dataclass
class Repeat:
    """One run of a workload's command (one pass over its inputs).

    wall: program seconds; evaluations: replicate evaluations done;
    latencies: seconds per command; digest: SHA-256 of all it wrote.
    """

    wall: float
    evaluations: int
    latencies: list[float]
    digest: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def call_cli(main, argv: list[str]) -> tuple[int, str, str, float]:
    """Run one command; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments, say
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            if not isinstance(exc.code, (int, type(None))):
                err.write(f"{exc.code}\n")
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), wall


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


_SKIPPED = re.compile(r"^skipped (\S+) on (\S+): ")


class Table1:
    """``kshrink table1 --seed S --threads T --replicates R``.

    Every one of the 64 (configuration, estimator) cells must be finite,
    not skipped, and near the published PRIAL.
    """

    name = "table1"
    configs = 8  # mean configurations of the protocol
    cells = configs * len(ESTIMATOR_ORDER)

    def __init__(self, workdir: Path, seed: int, replicates: int, threads: int = 1):
        self.seed = seed
        self.replicates = replicates
        self.csv = workdir / f"table1-t{threads}.csv"
        self.argv = ["table1", "--seed", str(seed), "--threads", str(threads),
                     "--replicates", str(replicates), "--output", str(self.csv)]
        self._verdicts: dict[str, tuple[int, list[str]]] = {}
        self.facts: dict = {}

    def run_once(self, main) -> Repeat:
        rc, out, err, wall = call_cli(main, self.argv)
        evaluations = self.configs * self.replicates
        if rc != 0:
            return Repeat(wall, evaluations, [wall], "", self.cells, self.cells,
                          [f"{self.name} exited {rc}: {_first_line(err)}"])
        data = self.csv.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._verdicts:
            self._verdicts[digest] = self.check(data.decode(), out)
        failed, problems = self._verdicts[digest]
        return Repeat(wall, evaluations, [wall], digest, self.cells, failed, list(problems))

    def check(self, text: str, stdout: str) -> tuple[int, list[str]]:
        """(failed cells, problems) for one distinct output.

        The published 2.5 tolerance holds at 5000 replicates. Below that,
        Monte Carlo noise alone exceeds it, so each cell may also deviate by
        z standard errors of its own PRIAL, z set by FAMILY_ALPHA over the
        64 cells. The standard error is this run's: 100 * se / reference.
        """
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            for key in ("risk", "se", "prial"):
                row[key] = float(row[key])
        bad = {(r["config"], r["estimator"]) for r in rows
               if not all(math.isfinite(r[k]) for k in ("risk", "se", "prial"))}
        bad |= {(m[2], m[1]) for m in map(_SKIPPED.match, stdout.splitlines()) if m}
        problems = [f"cell {c}/{e} is non-finite or skipped" for c, e in sorted(bad)]
        missing = max(self.cells - len(rows), 0)
        if missing:
            problems.append(f"{missing} of {self.cells} cells missing")
        failed = len(bad) + missing
        expected = expected_prial()
        z = family_z(self.cells)
        worst_dev = worst_z = 0.0
        for row in rows:
            order = ESTIMATOR_ORDER.index(row["estimator"])
            want = expected[row["config"]][order]
            if not math.isfinite(row["prial"]):
                continue
            reference = 100.0 * row["risk"] / (100.0 - row["prial"])
            se_prial = 100.0 * row["se"] / reference
            dev = abs(row["prial"] - want)
            worst_dev = max(worst_dev, dev)
            if se_prial > 0.0:
                worst_z = max(worst_z, (dev - PRIAL_TOLERANCE) / se_prial)
            if dev > PRIAL_TOLERANCE + z * se_prial:
                failed += 1
                problems.append(
                    f"PRIAL {row['config']}/{row['estimator']} = {row['prial']:.2f}, "
                    f"published {want}, bound {PRIAL_TOLERANCE} + {z:.2f} x {se_prial:.2f}"
                )
        self.facts = {"prial_max_deviation": worst_dev,
                      "prial_worst_excess_in_se": worst_z,
                      "prial_bound": f"{PRIAL_TOLERANCE} + {z:.3f} x own PRIAL standard error"}
        return failed, problems


def _dataset_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))


# (kind, groups k, parameters p) of the estimate inputs, in the order used.
SHAPES = tuple((kind, k, p) for k in range(3, 9) for p in range(3, 7)
               for kind in ("ksample", "regression"))


class Estimate:
    """``kshrink estimate --config C --input D --output O`` once per input.

    Inputs cycle through SHAPES, every (kind, k, p) once per cycle, so
    each seed gives the same mix of k-sample CSVs and regression
    directories of each size; group sizes and values are drawn from the
    seed. Every output row must
    equal the direct ``ESTIMATORS[name]`` result on the same canonical
    model, built from the in-memory data the files were written from.
    """

    name = "estimate"

    def __init__(self, workdir: Path, seed: int, inputs: int):
        self.seed = seed
        root = workdir / "estimate"
        root.mkdir(parents=True, exist_ok=True)
        configs = {}
        for kind in ("ksample", "regression"):
            configs[kind] = root / f"{kind}.yaml"
            configs[kind].write_text(yaml.safe_dump({"dataset": {"kind": kind}}))
        rng = _dataset_rng(seed)
        self.calls = []  # (argv, output path, expected rows)
        self.shapes = []
        for i in range(inputs):
            kind, k, p = SHAPES[i % len(SHAPES)]
            src = root / (f"in{i:04d}.csv" if kind == "ksample" else f"in{i:04d}")
            if kind == "ksample":
                model, labels = self._ksample(rng, src, k, p)
            else:
                model, labels = self._regression(rng, src, k, p)
            out = root / f"out{i:04d}.csv"
            argv = ["estimate", "--config", str(configs[kind]), "--input", str(src),
                    "--output", str(out)]
            self.calls.append((argv, out, self._expected(model, labels)))
            self.shapes.append((kind, k, p, model.n))
        self._digests: list[str | None] = [None] * inputs

    @staticmethod
    def _ksample(rng, path: Path, k: int, p: int):
        sizes = rng.integers(2, 9, size=k)
        centre = rng.normal(0.0, 2.0, size=p)
        spread = rng.uniform(0.0, 2.0)
        noise = rng.uniform(0.5, 2.0)
        groups = [centre + spread * rng.normal(size=p) + noise * rng.normal(size=(m, p))
                  for m in sizes]
        write_ksample_csv(str(path), groups)
        v0 = np.broadcast_to(np.eye(p), (k, p, p)).copy()
        return canonicalize_ksample(groups, v0), [str(i + 1) for i in range(k)]

    @staticmethod
    def _regression(rng, path: Path, k: int, p: int):
        path.mkdir(exist_ok=True)
        centre = rng.normal(0.0, 2.0, size=p)
        spread = rng.uniform(0.0, 2.0)
        noise = rng.uniform(0.5, 2.0)
        designs, responses, labels = [], [], []
        for g in range(k):
            m = int(rng.integers(p + 2, p + 9))
            z = rng.normal(size=(m, p))
            y = z @ (centre + spread * rng.normal(size=p)) + noise * rng.normal(size=m)
            label = f"g{g + 1:02d}"
            with open(path / f"{label}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["y"] + [f"z{j + 1}" for j in range(p)])
                for yi, zi in zip(y, z):
                    writer.writerow([f"{yi:.17g}"] + [f"{v:.17g}" for v in zi])
            designs.append(z)
            responses.append(y)
            labels.append(label)
        return canonicalize_regression(designs, responses), labels

    @staticmethod
    def _expected(model, labels) -> dict[tuple[str, str, str], tuple]:
        ls = LossSpec.inverse_v(model)
        summary = pooled_summary(model, ls)
        hyper = Hyperparameters()
        rows = {}
        for name in ESTIMATOR_ORDER:
            est = ESTIMATORS[name](model, ls, summary, hyper)
            for label, row in zip(labels, est.mu_hat):
                rows[(name, "estimate", label)] = tuple(float(v) for v in row)
            for key, value in est.diagnostics.items():
                rows[(name, "diagnostic", key)] = (value if isinstance(value, bool)
                                                   else float(value),)
        return rows

    @staticmethod
    def _parse(text: str) -> dict[tuple[str, str, str], tuple]:
        rows = {}
        for cells in list(csv.reader(io.StringIO(text)))[1:]:
            name, kind, label, *values = cells
            if kind == "diagnostic":
                cell = values[0]
                rows[(name, kind, label)] = (cell == "true" if cell in ("true", "false")
                                             else float(cell),)
            else:
                rows[(name, kind, label)] = tuple(float(v) for v in values)
        return rows

    def run_once(self, main) -> Repeat:
        latencies, problems = [], []
        failed = 0
        whole = hashlib.sha256()
        for i, (argv, out, expected) in enumerate(self.calls):
            rc, _, err, wall = call_cli(main, argv)
            latencies.append(wall)
            if rc != 0:
                failed += 1
                problems.append(f"{argv[4]} exited {rc}: {_first_line(err)}")
                continue
            data = out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            whole.update(data)
            if self._digests[i] is None:
                got = self._parse(data.decode())
                if got != expected:
                    wrong = sorted(k for k in expected.keys() | got.keys()
                                   if got.get(k) != expected.get(k))
                    problems.append(f"{argv[4]}: rows differ from ESTIMATORS: {wrong[:3]}")
                    failed += 1
                    continue
                self._digests[i] = digest
            elif digest != self._digests[i]:
                failed += 1
                problems.append(f"{argv[4]}: output changed between passes")
        return Repeat(sum(latencies), len(self.calls), latencies, whole.hexdigest(),
                      len(self.calls), failed, problems)

    @property
    def facts(self) -> dict:
        kinds = [s[0] for s in self.shapes]
        return {
            "inputs": len(self.shapes),
            "ksample_inputs": kinds.count("ksample"),
            "regression_inputs": kinds.count("regression"),
            "k_range": [min(s[1] for s in self.shapes), max(s[1] for s in self.shapes)],
            "p_range": [min(s[2] for s in self.shapes), max(s[2] for s in self.shapes)],
            "df_range": [min(s[3] for s in self.shapes), max(s[3] for s in self.shapes)],
        }


_VERDICT = re.compile(
    r"^(?P<name>[^|]+): \|(?P<lhs>\S+) - (?P<rhs>\S+)\| = (?P<diff>\S+) "
    r"vs 3 SE = (?P<margin>\S+): (?P<verdict>pass|FAIL)$"
)


class Validate:
    """``kshrink validate --seed S --replicates R``: 2 identity and 9 risk checks.

    The program's own verdict is a 3-standard-error test per check, which a
    correct program fails by chance on about 3% of seeds (11 checks at
    0.27% each). A FAIL line is therefore a failure only when its
    deviation also exceeds the family-wise bound (FAMILY_ALPHA over the 11
    checks); a FAIL inside that bound is counted as a chance alarm and
    reported. The exit code must agree with the verdict lines.
    """

    name = "validate"
    checks = 11

    def __init__(self, workdir: Path, seed: int, replicates: int):
        self.seed = seed
        self.replicates = replicates
        self.argv = ["validate", "--seed", str(seed), "--replicates", str(replicates)]
        self.facts: dict = {}

    def run_once(self, main) -> Repeat:
        rc, out, err, wall = call_cli(main, self.argv)
        evaluations = self.checks * self.replicates
        digest = hashlib.sha256(out.encode()).hexdigest()
        problems = []
        verdicts = [m for m in map(_VERDICT.match, out.splitlines()) if m]
        if rc not in (0, 1):
            problems.append(f"validate exited {rc}: {_first_line(err)}")
        elif len(verdicts) != self.checks:
            problems.append(f"{len(verdicts)} verdict lines, expected {self.checks}")
        else:
            alarms = [m["name"] for m in verdicts if m["verdict"] == "FAIL"]
            if (rc == 1) != bool(alarms):
                problems.append(f"exit {rc} disagrees with {len(alarms)} FAIL lines")
            z = family_z(self.checks)
            for m in verdicts:
                if float(m["diff"]) > z / 3.0 * float(m["margin"]):
                    problems.append(f"{m['name']}: deviation beyond {z:.2f} SE")
            self.facts = {"chance_alarms": alarms, "family_z": z}
        return Repeat(wall, evaluations, [wall], digest, 1, int(bool(problems)), problems)


def make(name: str, workdir: Path, seed: int, size: int):
    """The workload called `name` at `size` (replicates, or estimate inputs)."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "table1":
        return Table1(workdir, seed, size)
    if name == "estimate":
        return Estimate(workdir, seed, size)
    if name == "validate":
        return Validate(workdir, seed, size)
    raise KeyError(name)


NAMES = ("table1", "estimate", "validate")
# Replicates per command (estimate: inputs per pass), chosen so one run of
# `--seconds 25` repeats each command several times; see README.md.
SIZES = {"table1": 256, "estimate": 384, "validate": 50_000}
# table1 replicates for the thread comparison: two 256-replicate blocks per
# configuration, so two threads have work to share.
SPEEDUP_REPLICATES = 512
