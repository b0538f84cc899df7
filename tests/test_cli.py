"""The command-line interface, driven in process through main(argv)."""

import csv
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

import kshrink
from kshrink import ExperimentConfig, cli, montecarlo, numerics
from kshrink.cli import main
from kshrink.montecarlo import VALIDATE_DRAWS, usable_cores

# Two observations per group chosen so the reduction lands on exact
# integers: group means (0,0,0) and (2,2,2), pooled spread 10, and with
# v0 = 2 * identity the canonical scale matrices are exactly the identity.
EXACT_KSAMPLE = textwrap.dedent(
    """\
    group,x1,x2,x3
    1,1,2,0
    1,-1,-2,0
    2,3,4,2
    2,1,0,2
    """
)

KSAMPLE_CONFIG = textwrap.dedent(
    """\
    dataset:
      kind: ksample
      v0: {scaled_identity: 2.0}
      estimators: [EB2]
    """
)

SIMULATE_CONFIG = textwrap.dedent(
    """\
    experiment:
      p: 3
      k: 3
      n: 12
      sigma2: 1.5
      v: identity
      mean_configs:
        - name: flat
          scales: [0.0, 0.0, 0.0]
        - name: tilt
          scales: [-1.0, 0.0, 1.0]
      estimators: [JS2, EB, HB1]
      replicates: 40
      seed: 31
    """
)


# `kshrink validate --seed 1 --replicates 2001`, one line per check.
VALIDATE_SEED1_2001 = (
    "gaussian-by-parts: |0.578958 - 0.574675| = 0.00428 vs 3 SE = 0.0379: pass\n"
    "chi-square-derivative: |0.986161 - 0.998162| = 0.012 vs 3 SE = 0.0241: pass\n"
    "risk-estimate mean-shrink @ all-zero: |7.81562 - 7.52433| = 0.291 vs 3 SE = 0.483: pass\n"
    "risk-estimate mean-shrink @ centered-1.0: |20.611 - 20.608| = 0.00305 vs 3 SE = 0.424: pass\n"
    "risk-estimate mean-shrink @ ramp-0-4: |20.6358 - 20.8112| = 0.175 vs 3 SE = 0.448: pass\n"
    "risk-estimate double-shrink @ all-zero: |4.50905 - 4.25001| = 0.259 vs 3 SE = 0.49: pass\n"
    "risk-estimate double-shrink @ centered-1.0: |20.2034 - 20.1858| = 0.0177 vs 3 SE = 0.419: pass\n"
    "risk-estimate double-shrink @ ramp-0-4: |20.4415 - 20.6031| = 0.162 vs 3 SE = 0.446: pass\n"
    "risk-estimate smooth @ all-zero: |11.8083 - 11.7457| = 0.0626 vs 3 SE = 0.232: pass\n"
    "risk-estimate smooth @ centered-1.0: |20.2005 - 20.2125| = 0.012 vs 3 SE = 0.388: pass\n"
    "risk-estimate smooth @ ramp-0-4: |20.421 - 20.5782| = 0.157 vs 3 SE = 0.41: pass\n"
    "all checks passed\n"
)


# Three groups of dimension two: JS1, PT* and EB* need p >= 3.
P2_KSAMPLE = textwrap.dedent(
    """\
    group,x1,x2
    1,0.5,1.0
    1,1.5,-0.5
    1,0.0,0.25
    2,2.0,1.5
    2,3.0,2.5
    3,-1.0,0.5
    3,-0.5,1.5
    3,0.25,0.0
    """
)


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def csv_rows(text):
    """The rows of text as the csv module reads them."""
    return list(csv.reader(io.StringIO(text)))


# Four groups of dimension two, two observations each: p(k-1) = 6 and
# n = 8, where the upper 1e-300 F(6, 8) quantile is not a finite float.
P2_N8_KSAMPLE = textwrap.dedent(
    """\
    group,x1,x2
    1,0.5,1.0
    1,1.5,-0.5
    2,2.0,1.5
    2,3.0,2.5
    3,-1.0,0.5
    3,-0.5,1.5
    4,0.25,0.0
    4,1.0,-1.0
    """
)
NO_F_QUANTILE = "F quantile is not finite and positive: d1=6, d2=8, alpha=1e-300"


class TestEstimate:
    def run_exact(self, tmp_path):
        cfg = put(tmp_path, "cfg.yaml", KSAMPLE_CONFIG)
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE)
        out = str(tmp_path / "est.csv")
        code = main(["estimate", "--config", cfg, "--input", data, "--output", out])
        assert code == 0
        with open(out) as fh:
            return csv_rows(fh.read())

    def test_exact_cancellation_prints_plain_zero(self, tmp_path):
        rows = self.run_exact(tmp_path)
        assert rows[0] == ["estimator", "kind", "label", "v1", "v2", "v3"]
        first = next(r for r in rows if r[:3] == ["EB*", "estimate", "1"])
        # The two capped factors coincide here, so group one lands exactly
        # on the origin and the cells must be the literal digit zero.
        assert first[3:] == ["0", "0", "0"]

    def test_second_group_values(self, tmp_path):
        rows = self.run_exact(tmp_path)
        second = next(r for r in rows if r[:3] == ["EB*", "estimate", "2"])
        vals = [float(v) for v in second[3:]]
        # 2 - 2/4.8 in every coordinate.
        assert vals == pytest.approx([1.5833333333333333] * 3, rel=1e-14)

    def test_diagnostic_rows(self, tmp_path):
        rows = self.run_exact(tmp_path)
        diag = {r[2]: r[3] for r in rows if r[1] == "diagnostic"}
        assert set(diag) == {
            "mean_shrink", "pooled_norm_stat", "residual_stat", "zero_shrink",
        }
        assert float(diag["residual_stat"]) == pytest.approx(0.6)
        assert float(diag["mean_shrink"]) == pytest.approx(1.0 / 4.8)
        # Padding keeps every row the same width.
        widths = {len(r) for r in rows}
        assert widths == {6}

    def test_writes_to_stdout_by_default(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", KSAMPLE_CONFIG)
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE)
        assert main(["estimate", "--config", cfg, "--input", data]) == 0
        out = capsys.readouterr().out
        assert out.startswith("estimator,kind,label,")

    def test_regression_directory(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: regression, estimators: [JS2]}\n")
        data_dir = tmp_path / "groups"
        data_dir.mkdir()
        (data_dir / "north.csv").write_text("y,z1,z2\n1.0,1.0,0.0\n2.0,1.0,1.0\n2.5,1.0,2.0\n")
        (data_dir / "south.csv").write_text("y,z1,z2\n0.5,1.0,0.5\n1.5,1.0,1.5\n3.0,1.0,2.5\n")
        assert main(["estimate", "--config", cfg, "--input", str(data_dir)]) == 0
        rows = csv_rows(capsys.readouterr().out)
        labels = [r[2] for r in rows if r[1] == "estimate"]
        assert labels == ["north", "south"]
        diagnostics = {r[2] for r in rows if r[1] == "diagnostic"}
        assert diagnostics == {"retained"}

    def test_regression_directory_name_is_literal(self, tmp_path, capsys):
        # "data[1]" is a glob pattern that matches "data1", not itself.
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: regression, estimators: [JS2]}\n")
        rows = "y,z1,z2\n1.0,1.0,0.0\n2.0,1.0,1.0\n2.5,1.0,2.0\n"
        for name, labels in (("data[1]", ("east", "north", "south")), ("data1", ("a", "b"))):
            (tmp_path / name).mkdir()
            for label in labels:
                (tmp_path / name / f"{label}.csv").write_text(rows)
        assert main(["estimate", "--config", cfg, "--input", str(tmp_path / "data[1]")]) == 0
        got = [r[2] for r in csv_rows(capsys.readouterr().out) if r[1] == "estimate"]
        assert got == ["east", "north", "south"]

    def test_repeated_estimator_is_written_once(self, tmp_path):
        # EB1 is EB: the list names one estimator, so the CSV has one block.
        cfg = put(tmp_path, "cfg.yaml", KSAMPLE_CONFIG.replace("[EB2]", "[EB, EB1, EB]"))
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--input", data, "--output", str(out)]) == 0
        rows = csv_rows(out.read_text())
        assert {r[0] for r in rows[1:]} == {"EB"}
        assert [r[2] for r in rows if r[1] == "estimate"] == ["1", "2"]
        assert len(rows) == 1 + 2 + 2

    def test_missing_input_is_input_error(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", KSAMPLE_CONFIG)
        code = main(["estimate", "--config", cfg, "--input", str(tmp_path / "gone.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_cell_is_input_error(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", KSAMPLE_CONFIG)
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE + "2," + "1" * 140_000 + ",0,0\n")
        assert main(["estimate", "--config", cfg, "--input", data]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}:")
        assert "field larger than field limit" in err
        assert err.count("\n") == 1

    def test_mistyped_first_row_is_input_error(self, tmp_path, capsys):
        # A first row with a numeric value cell is data: its bad cell is an
        # error, where taking the row for a header would drop an observation.
        cfg = put(tmp_path, "cfg.yaml", KSAMPLE_CONFIG)
        data = put(tmp_path, "data.csv", "1,0.5,O.5,1\n1,0.4,0.6,1.2\n2,0.7,0.1,0.9\n")
        assert main(["estimate", "--config", cfg, "--input", data]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {data}:1: column 3 is not numeric: 'O.5'\n"
        assert captured.out == ""

    def test_bad_config_is_input_error(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: ksample, shape: big}\n")
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE)
        assert main(["estimate", "--config", cfg, "--input", data]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_estimator_precondition_exit_code(self, tmp_path, capsys):
        text = textwrap.dedent(
            """\
            dataset:
              kind: ksample
              v0: {scaled_identity: 2.0}
              q: {scaled_identity: 2.0}
              estimators: [PT]
            """
        )
        cfg = put(tmp_path, "cfg.yaml", text)
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE)
        code = main(["estimate", "--config", cfg, "--input", data])
        assert code == 3
        assert "inverse" in capsys.readouterr().err

    def test_estimators_that_cannot_run_are_skipped(self, tmp_path, capsys):
        # The default list names all eight; at p = 2 the rest still write rows.
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: ksample}\n")
        data = put(tmp_path, "data.csv", P2_KSAMPLE)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--input", data, "--output", str(out)]) == 0
        rows = csv_rows(out.read_text())
        written = list(dict.fromkeys(r[0] for r in rows[1:]))
        assert written == ["JS2", "PT", "EB", "HB1", "HB2"]
        for name in written:
            assert [r[2] for r in rows if r[:2] == [name, "estimate"]] == ["1", "2", "3"]
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "skipped JS1: groupwise zero-shrink needs p >= 3, got p=2",
            "skipped PT*: pooled-mean zero-shrink needs p >= 3, got p=2",
            "skipped EB*: pooled-mean zero-shrink needs p >= 3, got p=2",
        ]

    def test_nothing_is_written_when_no_estimator_runs(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: ksample, estimators: [JS1, EB*]}\n")
        data = put(tmp_path, "data.csv", P2_KSAMPLE)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--input", data, "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "skipped JS1: groupwise zero-shrink needs p >= 3, got p=2",
            "skipped EB*: pooled-mean zero-shrink needs p >= 3, got p=2",
            "error: no estimator could run on this input",
        ]
        assert captured.out == ""
        assert not out.exists()

    def test_uncomputable_pt_threshold_skips_pt(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: ksample}\nhyper: {alpha: 1.0e-300}\n")
        data = put(tmp_path, "data.csv", P2_N8_KSAMPLE)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--input", data, "--output", str(out)]) == 0
        rows = csv_rows(out.read_text())
        assert list(dict.fromkeys(r[0] for r in rows[1:])) == ["JS2", "EB", "HB1", "HB2"]
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            "skipped JS1", "skipped PT", "skipped PT*", "skipped EB*"
        ]
        assert err[1].startswith(f"skipped PT: {NO_F_QUANTILE}")

    def test_nearly_collinear_regression_runs_pt(self, tmp_path, capsys):
        # z3 = z1 + 1e-3 N(0, 1) gives scale matrices of condition about
        # 2.6e7, where v @ inv(v) misses the identity by 1.9e-9. With no q
        # the loss is inverse-scale all the same, so PT and PT* run.
        rng = np.random.default_rng(29)
        data = tmp_path / "in"
        data.mkdir()
        for g in range(4):
            z = rng.normal(size=(12, 3))
            z[:, 2] = z[:, 0] + 1e-3 * rng.normal(size=12)
            y = z @ rng.normal(size=3) + rng.normal(size=12)
            rows = [f"{yi:.6f}," + ",".join(f"{v:.6f}" for v in zi) for yi, zi in zip(y, z)]
            (data / f"g{g + 1}.csv").write_text("\n".join(["y,z1,z2,z3"] + rows) + "\n")
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: regression}\n")
        out = tmp_path / "est.csv"
        argv = ["estimate", "--config", cfg, "--input", str(data), "--output", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        names = list(dict.fromkeys(r[0] for r in csv_rows(out.read_text())[1:]))
        assert names == list(kshrink.estimators.ESTIMATOR_ORDER)

    def test_divergent_hb2_integrals_skip_only_hb2(self, tmp_path, capsys):
        # b = 20 makes beta_e so large that gamma_e > alpha_e + beta_e + 2
        # fails: HB2's integrals diverge, and EB still writes its rows.
        body = "dataset: {kind: ksample, estimators: [EB, HB2]}\nhyper: {b: 20}\n"
        cfg = put(tmp_path, "cfg.yaml", body)
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--input", data, "--output", str(out)]) == 0
        assert capsys.readouterr().err == (
            "skipped HB2: gamma_e=5.9 must exceed alpha_e + beta_e + 2 = 23.1\n"
        )
        assert {r[0] for r in csv_rows(out.read_text())[1:]} == {"EB"}

    def test_text_cells_are_quoted(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: ksample, estimators: [EB, HB1]}\n")
        text = EXACT_KSAMPLE.replace("\n1,", '\n"g,1",').replace("\n2,", '\n"say ""2""",')
        data = put(tmp_path, "data.csv", text)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--input", data, "--output", str(out)]) == 0
        rows = csv_rows(out.read_text())
        assert {len(row) for row in rows} == {6}
        labels = [r[2] for r in rows if r[1] == "estimate"]
        assert labels == ["g,1", 'say "2"'] * 2
        plain = tmp_path / "plain.csv"
        data = put(tmp_path, "plain_data.csv", EXACT_KSAMPLE)
        assert main(["estimate", "--config", cfg, "--input", data, "--output", str(plain)]) == 0
        # The numbers are the same, and only the quoted label cells differ.
        assert [r[3:] for r in rows] == [r[3:] for r in csv_rows(plain.read_text())]
        assert out.read_text().replace('"g,1"', "1").replace('"say ""2"""', "2") == (
            plain.read_text()
        )

    def test_regression_input_must_be_directory(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: regression}\n")
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE)
        assert main(["estimate", "--config", cfg, "--input", data]) == 2
        assert "directory" in capsys.readouterr().err

    def test_empty_regression_directory(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: regression}\n")
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["estimate", "--config", cfg, "--input", str(empty)]) == 2
        assert "no CSV files" in capsys.readouterr().err


class TestDecompositionCount:
    """Each scale and loss matrix is guarded once where it enters an estimate run.

    Per command with inverse-scale loss: v0 (ksample only), v where the loss
    spec inverts it, and the weight sum, so at most 2k+1 eigvalsh calls (k+1
    without v0). The pooled constants take inv(v) from the loss spec. The
    loss spec neither guards q = inv(v) again nor factors anything for
    eig_floor, which is 1 by construction.
    """

    K, P = 6, 5

    def count_eigvalsh(self, monkeypatch, argv):
        real = np.linalg.eigvalsh
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(1)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert main(argv) == 0
        return len(calls)

    def test_ksample(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(6)
        rows = [f"{g},{','.join(f'{v:.6f}' for v in rng.normal(size=self.P))}"
                for g in range(self.K) for _ in range(4)]
        header = "group," + ",".join(f"x{j}" for j in range(self.P))
        data = put(tmp_path, "data.csv", "\n".join([header] + rows) + "\n")
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: ksample, v0: identity}\n")
        calls = self.count_eigvalsh(monkeypatch, ["estimate", "--config", cfg, "--input", data])
        capsys.readouterr()
        assert calls <= 2 * self.K + 1

    def test_regression(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(7)
        groups = tmp_path / "groups"
        groups.mkdir()
        header = "y," + ",".join(f"z{j}" for j in range(self.P))
        for g in range(self.K):
            rows = [",".join(f"{v:.6f}" for v in rng.normal(size=self.P + 1)) for _ in range(9)]
            (groups / f"g{g}.csv").write_text("\n".join([header] + rows) + "\n")
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: regression}\n")
        calls = self.count_eigvalsh(
            monkeypatch, ["estimate", "--config", cfg, "--input", str(groups)]
        )
        capsys.readouterr()
        assert calls <= self.K + 1


def _band(p, diag, off):
    """A (p, p) tridiagonal matrix as config rows: diag on the diagonal, off beside it."""
    return [[diag if i == j else off if abs(i - j) == 1 else 0.0 for j in range(p)]
            for i in range(p)]


def _golden_ksample(path, seed, k, p):
    rng = np.random.default_rng(seed)
    rows = [f"{g + 1}," + ",".join(f"{v:.6f}" for v in rng.normal(g % 3, 1.5, size=p))
            for g in range(k) for _ in range(int(rng.integers(2, 7)))]
    header = "group," + ",".join(f"x{j + 1}" for j in range(p))
    path.write_text("\n".join([header] + rows) + "\n")


def _golden_regression(path, seed, k, p):
    rng = np.random.default_rng(seed)
    path.mkdir()
    header = "y," + ",".join(f"z{j + 1}" for j in range(p))
    for g in range(k):
        beta = rng.normal(0.0, 2.0, size=p)
        z = rng.normal(size=(int(rng.integers(p + 2, p + 8)), p))
        y = z @ beta + rng.normal(size=z.shape[0])
        rows = [f"{yi:.6f}," + ",".join(f"{v:.6f}" for v in zi) for yi, zi in zip(y, z)]
        (path / f"g{g + 1:02d}.csv").write_text("\n".join([header] + rows) + "\n")


class TestEstimateGoldenBytes:
    """estimate --output bytes pinned by sha256, default estimator list.

    The workload check of the benchmark compares against ESTIMATORS run by
    the same code, so only a pinned digest sees a bit move on the shared
    path. A full v0 and a full q take LossSpec.for_model; with that q, PT
    and PT* are skipped and the other six write rows.
    """

    CASES = {
        # name: (kind, seed, k, p, dataset keys beyond kind, sha256 of --output)
        "ksample-4x3": ("ksample", 11, 4, 3, {},
            "2be6f3b75f77f1753da08e1d237131f5a2824e32e6817187263d35c85225a8db"),
        "ksample-6x5-full-v0": (
            "ksample", 12, 6, 5, {"v0": _band(5, 2.0, 0.5)},
            "bce39e755727a03bd94a7f3969849ee10a41e4dca7e84c492410986d5fae70d5"),
        "regression-3x3": ("regression", 13, 3, 3, {},
            "5e064e6dbc97507b31985b064dbdf97b60301473e5e28b665bf091055a2c5406"),
        "regression-5x4-full-q": (
            "regression", 14, 5, 4, {"q": _band(4, 1.0, 0.25)},
            "ad062d3d7b8b6e9c154ac319d4da72b4cf89cd121ed9d6156419f65402939da9"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_bytes(self, tmp_path, case):
        kind, seed, k, p, extra, digest = self.CASES[case]
        src = tmp_path / ("in.csv" if kind == "ksample" else "in")
        (_golden_ksample if kind == "ksample" else _golden_regression)(src, seed, k, p)
        cfg = put(tmp_path, "cfg.yaml", yaml.safe_dump({"dataset": {"kind": kind, **extra}}))
        out = tmp_path / "est.csv"
        argv = ["estimate", "--config", cfg, "--input", str(src), "--output", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestRunGoldenBytes:
    """table1 and simulate --output, validate and check-conditions stdout bytes pinned by sha256.

    Both runs use their default replicate counts and seeds (validate at
    50,000 replicates), so a bit that moves anywhere on the harness's path
    (draws, pooled statistics, kernels, the unbiased risk estimate, the
    standard errors or the formatting) changes a digest. table1's scale and
    loss matrices are diagonal; the simulate run (FULL_MATRIX_CONFIG) takes
    the full-matrix maps, LossSpec.for_model and eig_floor != 1 over two
    blocks of 3640 and 360 rows, and skips PT and PT*.
    """

    TABLE1 = "457fade0e794c3355c96c82063d4dc1c768fe3449571466c3f05903eaa6390d6"
    FULL_MATRIX = "78fbfc3b31079bf0adcfbf4b2e0002d70d1e1508942c29f9ceef6f60587382ec"
    VALIDATE = "c393c353248c411a0eb7f7f3736c9eecc35195085a3da07fb192e198cacfeef2"
    CHECK_CONDITIONS = "d5a72d4cb0c775d4a4045cd835ef8c11d60086ae6448265a519a8ecd46a74f58"
    FULL_MATRIX_CONFIG = textwrap.dedent(
        """\
        experiment:
          p: 3
          k: 3
          n: 12
          sigma2: 1.5
          v:
            - [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.5]]
            - [[1.0, -0.3, 0.0], [-0.3, 0.8, 0.1], [0.0, 0.1, 0.6]]
            - [[0.5, 0.1, -0.2], [0.1, 1.2, 0.3], [-0.2, 0.3, 0.9]]
          q: [[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 1.0]]
          mean_configs:
            - name: flat
              scales: [0.0, 0.0, 0.0]
            - name: tilt
              scales: [-1.0, 0.0, 1.0]
          replicates: 2000
          seed: 31
        """
    )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_table1_output_bytes(self, tmp_path, capsys, threads):
        out = tmp_path / "table1.csv"
        assert main(["table1", "--threads", threads, "--output", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.TABLE1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_full_matrix_simulate_output_bytes(self, tmp_path, capsys, threads):
        cfg = put(tmp_path, "cfg.yaml", self.FULL_MATRIX_CONFIG)
        out = tmp_path / "full.csv"
        assert main(["simulate", "--config", cfg, "--threads", threads, "--output", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        skipped = [line for line in lines if line.startswith("skipped")]
        assert [line.split(":")[0] for line in skipped] == [
            "skipped PT on flat", "skipped PT* on flat", "skipped PT on tilt", "skipped PT* on tilt"
        ]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.FULL_MATRIX

    def test_validate_stdout_bytes(self, capsys):
        assert main(["validate", "--replicates", "50000"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.VALIDATE

    def test_check_conditions_stdout_bytes(self, capsys):
        assert main(["check-conditions"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.CHECK_CONDITIONS


@pytest.mark.parametrize("command", [None, "table1", "estimate"])
def test_start_up_imports_no_root_finder(tmp_path, command):
    # scipy.optimize is about a third of the CLI's import time, and nothing
    # in kshrink needs it; a fresh interpreter shows what start-up loads.
    # HB2's Gauss-Jacobi rules take their eigenvalues from numpy, so an HB2
    # command does not load scipy.linalg (about 40 ms and 5-8 MB) either.
    out_csv = str(tmp_path / "out.csv")
    if command == "table1":
        argv = ["table1", "--replicates", "4", "--output", out_csv]
    elif command == "estimate":
        src = tmp_path / "in.csv"
        _golden_ksample(src, 11, 4, 3)
        cfg = put(tmp_path, "cfg.yaml", "dataset:\n  kind: ksample\n")
        argv = ["estimate", "--config", cfg, "--input", str(src), "--output", out_csv]
    code = "import sys, kshrink, kshrink.cli\n"
    if command is not None:
        code += f"assert kshrink.cli.main({argv!r}) == 0\n"
    code += "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(kshrink.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # Under the C locale, with UTF-8 mode and locale coercion off, open()
    # defaults to ASCII; the writers still write the UTF-8 the readers read.
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(kshrink.__file__).resolve().parents[1]),
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
    )
    data, out = tmp_path / "in.csv", tmp_path / "out.csv"
    labels = ["contrôle", "traité", "témoin"]
    # The child's command line is read in the locale's encoding too, so its
    # source spells the labels in ASCII escapes.
    code = textwrap.dedent(
        f"""\
        import codecs, locale
        import numpy as np
        from kshrink.datasets import read_ksample_csv, write_ksample_csv
        assert codecs.lookup(locale.getpreferredencoding(False)).name == "ascii"
        groups = np.random.default_rng(3).normal(size=(3, 4, 3))
        labels = {ascii(labels)}
        write_ksample_csv({str(data)!r}, groups, labels)
        assert read_ksample_csv({str(data)!r})[1] == labels
        """
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    cfg = put(tmp_path, "cfg.yaml", "dataset:\n  kind: ksample\n  estimators: [JS2]\n")
    argv = ["estimate", "--config", cfg, "--input", str(data), "--output", str(out)]
    run = subprocess.run(
        [sys.executable, "-m", "kshrink.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    rows = csv_rows(out.read_bytes().decode("utf-8"))
    assert [row[2] for row in rows[1:4]] == labels
    # Standard output is UTF-8 too: the same CSV, byte for byte, and a
    # configuration name in the text table.
    run = subprocess.run(
        [sys.executable, "-m", "kshrink.cli", *argv[:-2]], env=env, capture_output=True, timeout=120
    )
    assert (run.returncode, run.stderr, run.stdout) == (0, b"", out.read_bytes())
    sim = tmp_path / "sim.yaml"
    sim.write_text(SIMULATE_CONFIG.replace("name: flat", "name: zéro"), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "kshrink.cli", "simulate", "--config", str(sim)],
        env=env, capture_output=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, b"")
    assert "zéro" in run.stdout.decode("utf-8")


class TestSimulate:
    def test_threads_do_not_change_bytes(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", SIMULATE_CONFIG)
        one = str(tmp_path / "one.csv")
        four = str(tmp_path / "four.csv")
        assert main(["simulate", "--config", cfg, "--output", one, "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--output", four, "--threads", "4"]) == 0
        with open(one, "rb") as fa, open(four, "rb") as fb:
            assert fa.read() == fb.read()
        capsys.readouterr()

    def test_seed_override_changes_numbers(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", SIMULATE_CONFIG)
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--output", a]) == 0
        assert main(["simulate", "--config", cfg, "--output", b, "--seed", "77"]) == 0
        with open(a) as fa, open(b) as fb:
            ra, rb = fa.read(), fb.read()
        assert ra != rb
        assert ",31" in ra.splitlines()[1]
        assert ",77" in rb.splitlines()[1]
        capsys.readouterr()

    @pytest.mark.parametrize(
        "key, flag, value",
        [
            ("replicates", "--replicates", "3"),
            ("seed", "--seed", "2"),
            ("threads", "--threads", "2"),
        ],
    )
    def test_mistyped_file_value_is_bad_input_under_its_flag(
        self, tmp_path, capsys, key, flag, value
    ):
        # The flag overrides the file's value, but a mistyped value is still an error.
        body = SIMULATE_CONFIG.replace("  seed: 31\n", "  seed: 31\n  threads: 1\n")
        body = re.sub(rf"  {key}: \d+\n", f'  {key}: "abc"\n', body)
        cfg = put(tmp_path, "cfg.yaml", body)
        message = f"error: experiment.{key} must be an integer, got 'abc'\n"
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == message
        assert main(["simulate", "--config", cfg, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""

    def test_uncomputable_pt_threshold_skips_pt_and_pt_star(self, tmp_path, capsys):
        body = SIMULATE_CONFIG.replace("  n: 12\n", "  n: 8\n").replace(
            "[JS2, EB, HB1]", "[JS2, PT, PT*, EB]"
        )
        cfg = put(tmp_path, "cfg.yaml", body + "hyper: {alpha: 1.0e-300}\n")
        out = tmp_path / "table.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        text = capsys.readouterr().out
        skipped = [line for line in text.splitlines() if line.startswith("skipped")]
        assert [line.split(":")[0] for line in skipped] == [
            "skipped PT on flat", "skipped PT* on flat",
            "skipped PT on tilt", "skipped PT* on tilt",
        ]
        assert all(line.split(": ", 1)[1].startswith(NO_F_QUANTILE) for line in skipped)
        rows = csv_rows(out.read_text())[1:]
        risk = {(r[0], r[1]): float(r[2]) for r in rows}
        assert all(np.isnan(risk[c, e]) for c in ("flat", "tilt") for e in ("PT", "PT*"))
        assert all(np.isfinite(risk[c, e]) for c in ("flat", "tilt") for e in ("JS2", "EB"))

    def test_divergent_hb2_integrals_skip_only_hb2(self, tmp_path, capsys):
        body = SIMULATE_CONFIG.replace("[JS2, EB, HB1]", "[JS2, EB, HB2]")
        cfg = put(tmp_path, "cfg.yaml", body + "hyper: {b: 20}\n")
        out = tmp_path / "table.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        skipped = [line for line in captured.out.splitlines() if line.startswith("skipped")]
        assert skipped == [
            f"skipped HB2 on {name}: gamma_e=10.4 must exceed alpha_e + beta_e + 2 = 24.6"
            for name in ("flat", "tilt")
        ]
        risk = {(r[0], r[1]): float(r[2]) for r in csv_rows(out.read_text())[1:]}
        assert all(np.isnan(risk[c, "HB2"]) for c in ("flat", "tilt"))
        assert all(np.isfinite(risk[c, e]) for c in ("flat", "tilt") for e in ("JS2", "EB"))

    def test_tail_dead_at_the_corner_skips_hb2_without_a_rule(self, tmp_path, capsys, monkeypatch):
        # p = k = 5, n = 20,000 under big_l 2: z0 is near 20,000, past
        # gamma_e + 1 of about 10,014, so the upper gamma tail is 0 at the
        # box's corner and every replicate is refused before the rule runs.
        body = SIMULATE_CONFIG.replace("p: 3\n  k: 3\n  n: 12", "p: 5\n  k: 5\n  n: 20000")
        for old, new in (
            ("[0.0, 0.0, 0.0]", "[0, 0, 0, 0, 0]"),
            ("[-1.0, 0.0, 1.0]", "[-1, 0, 1, 2, 3]"),
            ("[JS2, EB, HB1]", "[HB1, HB2]"),
            ("replicates: 40", "replicates: 8"),
        ):
            body = body.replace(old, new)
        cfg = put(tmp_path, "cfg.yaml", body + "hyper: {big_l: 2.0}\n")
        calls = []
        monkeypatch.setattr(numerics, "_joint_rule", lambda *args: calls.append(args))
        assert main(["simulate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("skipped")] == [
            f"skipped HB2 on {name}: replicate 0: joint shrink-factor integrand underflowed "
            "everywhere"
            for name in ("flat", "tilt")
        ]
        assert calls == []

    def test_config_names_are_quoted_in_the_csv(self, tmp_path, capsys):
        body = SIMULATE_CONFIG.replace("name: flat", "name: 'a,b'").replace(
            "name: tilt", """name: 'say "hi"'"""
        )
        cfg = put(tmp_path, "cfg.yaml", body)
        out = tmp_path / "table.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        capsys.readouterr()
        rows = csv_rows(out.read_text())
        assert {len(row) for row in rows} == {7}
        assert [r[0] for r in rows[1:]] == ["a,b"] * 3 + ['say "hi"'] * 3
        plain = tmp_path / "plain.csv"
        assert main(["simulate", "--config", put(tmp_path, "plain.yaml", SIMULATE_CONFIG),
                     "--output", str(plain)]) == 0
        capsys.readouterr()
        # Names leave the run unchanged, and only their cells differ.
        assert [r[1:] for r in rows] == [r[1:] for r in csv_rows(plain.read_text())]

    def test_prints_text_table(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", SIMULATE_CONFIG)
        assert main(["simulate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PRIAL" in out
        assert "flat" in out and "tilt" in out

    @pytest.mark.parametrize(
        "bad, text",
        [
            ("[[0, 0, 0], [0, 0, 0], [0, 0, 0]]", "v[1] is the zero matrix"),
            ("[[1, 0, 0], [0, 1, 0], [0, 0, -1]]", "v[1] is not positive definite"),
        ],
        ids=["zero", "indefinite"],
    )
    def test_bad_scale_with_explicit_loss_is_bad_input(self, tmp_path, capsys, bad, text):
        body = SIMULATE_CONFIG.replace(
            "  v: identity\n", f"  v: [identity, {bad}, identity]\n  q: identity\n"
        )
        cfg = put(tmp_path, "cfg.yaml", body)
        assert main(["simulate", "--config", cfg]) == 2
        assert f"error: {text}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, replicate",
        [
            # s overflows to inf, which leaves f = g = 0 finite.
            ("sigma2: 1.0e+307, v: identity, q: {scaled_identity: 1.0e+100}, replicates: 500", 0),
            # s and the quadratic forms overflow together.
            ("sigma2: 1.0e+307, v: {scaled_identity: 100.0}, replicates: 500", 0),
            # The first overflowing s is replicate 1513, in the second block.
            ("sigma2: 4.0e+306, v: identity, q: {scaled_identity: 1.0e+100}, "
             "estimators: [JS1], replicates: 2000, seed: 20260816", 1513),
        ],
        ids=["scale", "scale-and-forms", "later-block"],
    )
    def test_overflowing_draw_names_config_and_replicate(
        self, tmp_path, capsys, experiment, replicate
    ):
        zero = "mean_configs: [{name: zero, scales: [0, 0, 0, 0, 0]}]"
        body = f"experiment: {{p: 5, k: 5, n: 20, {zero}, {experiment}}}\n"
        cfg = put(tmp_path, "cfg.yaml", body)
        lines = set()
        for threads in ("1", "2"):
            assert main(["simulate", "--config", cfg, "--threads", threads]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("error:") == 1
            lines.add(captured.err)
        (line,) = lines
        assert line.startswith(
            f"error: mean config 'zero', replicate {replicate}: pooled statistics overflow: "
        )

    def test_failed_decomposition_names_config_and_replicate(self, tmp_path, capsys):
        # Scale matrices of condition 1e9 pass every guard, but replicate 31
        # of "b" misses the pooled decomposition check.
        rotation = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
        v = rotation @ np.diag(np.geomspace(1.0, 1e9, 4)) @ rotation.T
        experiment = {
            "p": 4, "k": 3, "n": 10, "sigma2": 1.0, "v": v.tolist(), "replicates": 2000,
            "mean_configs": [
                {"name": "a", "scales": [0.0] * 3}, {"name": "b", "scales": [1.0] * 3}
            ],
        }
        cfg = put(tmp_path, "cfg.yaml", yaml.safe_dump({"experiment": experiment}))
        lines = set()
        for threads in ("1", "2"):
            assert main(["simulate", "--config", cfg, "--threads", threads]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines.add(captured.err)
        (line,) = lines
        assert line.startswith(
            "error: mean config 'b', replicate 31: "
            "pooled quadratic forms failed the decomposition check: "
        )
        assert line.count("\n") == 1

    def test_loss_past_the_weighted_form_range_is_finite(self, tmp_path, capsys):
        # sigma2 times the loss weights is 1e400, but each loss is about the
        # reference risk 2.5e101: every estimator that runs gets a PRIAL.
        body = (
            "experiment: {p: 5, k: 5, n: 20, sigma2: 1.0e+300, v: identity, "
            "q: {scaled_identity: 1.0e+100}, "
            "mean_configs: [{name: zero, scales: [0, 0, 0, 0, 0]}], replicates: 300}\n"
        )
        cfg = put(tmp_path, "cfg.yaml", body)
        assert main(["simulate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].startswith("PRIAL (%), reference risk 2.5e+101, 300 replicates")
        header, row = lines[1].split(), lines[2].split()
        assert row[0] == "zero"
        cells = dict(zip(header[1:], row[1:]))
        assert cells.pop("PT") == cells.pop("PT*") == "-"
        assert all(np.isfinite(float(cell)) for cell in cells.values()), cells
        assert [line.split(":")[0] for line in lines[4:]] == [
            "skipped PT on zero", "skipped PT* on zero"
        ]

    def test_non_finite_mean_config_is_bad_input(self, tmp_path, capsys, monkeypatch):
        # Rejected before any configuration is simulated, naming the configuration.
        drawn = []
        monkeypatch.setattr(kshrink.montecarlo, "_uniforms", lambda *args: drawn.append(args))
        body = SIMULATE_CONFIG.replace(
            "    - name: tilt\n      scales: [-1.0, 0.0, 1.0]\n",
            "    - name: spread\n      scales: [0, .nan, 1]\n",
        )
        cfg = put(tmp_path, "cfg.yaml", body)
        assert main(["simulate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: mean config 'spread' has non-finite entries\n"
        assert captured.out == ""
        assert drawn == []

    def test_duplicate_mean_config_name_is_bad_input(self, tmp_path, capsys, monkeypatch):
        # Two rows named alike could not be told apart in the table, in
        # lookup or in the skipped lines; rejected before anything is drawn.
        drawn = []
        monkeypatch.setattr(kshrink.montecarlo, "_uniforms", lambda *args: drawn.append(args))
        body = SIMULATE_CONFIG.replace("    - name: tilt\n", "    - name: flat\n")
        cfg = put(tmp_path, "cfg.yaml", body)
        assert main(["simulate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: mean config 'flat' is named more than once\n"
        assert captured.out == ""
        assert drawn == []

    def test_config_without_experiment(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "hyper: {a: 0.2}\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "missing 'experiment'" in capsys.readouterr().err


class Built(Exception):
    """Raised in place of a run; carries what the command handed to it."""


class TestOverrides:
    """Flags beat file values; a count neither gives takes its default."""

    @staticmethod
    def built(monkeypatch, argv):
        """The ExperimentConfig main(argv) hands to run_experiment, which does not run."""

        def stop(cfg):
            raise Built(cfg)

        monkeypatch.setattr(kshrink.cli, "run_experiment", stop)
        with pytest.raises(Built) as built:
            main(argv)
        return built.value.args[0]

    def test_flags_beat_file_values(self, tmp_path, monkeypatch):
        body = SIMULATE_CONFIG.replace("  seed: 31\n", "  seed: 31\n  threads: 2\n")
        path = put(tmp_path, "cfg.yaml", body)
        cfg = self.built(monkeypatch, ["simulate", "--config", path])
        assert (cfg.replicates, cfg.seed, cfg.threads) == (40, 31, 2)
        argv = ["simulate", "--config", path, "--seed", "123", "--threads", "8",
                "--replicates", "17"]
        cfg = self.built(monkeypatch, argv)
        assert (cfg.replicates, cfg.seed, cfg.threads) == (17, 123, 8)
        assert (cfg.p, cfg.k, cfg.n, cfg.sigma2) == (3, 3, 12, 1.5)

    def test_file_without_counts_takes_the_field_defaults(self, tmp_path, monkeypatch):
        body = SIMULATE_CONFIG.replace("  replicates: 40\n", "").replace("  seed: 31\n", "")
        cfg = self.built(monkeypatch, ["simulate", "--config", put(tmp_path, "cfg.yaml", body)])
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        counts = (defaults["replicates"], defaults["seed"], usable_cores())
        assert (cfg.replicates, cfg.seed, cfg.threads) == counts
        bench = self.built(monkeypatch, ["table1"])
        assert (bench.replicates, bench.seed, bench.threads) == counts

    def test_validate_count_when_neither_gives_one(self, tmp_path, monkeypatch):
        def stop(cfg):
            raise Built(cfg.replicates)

        monkeypatch.setattr(kshrink.cli, "validate_identities", stop)
        bare = put(tmp_path, "bare.yaml", SIMULATE_CONFIG.replace("  replicates: 40\n", ""))
        for argv in (["validate"], ["validate", "--config", bare]):
            with pytest.raises(Built) as built:
                main(argv)
            assert built.value.args[0] == VALIDATE_DRAWS


class TestTable1:
    def test_small_run(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        code = main(["table1", "--replicates", "48", "--threads", "2", "--output", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "PRIAL" in text
        assert "all-zero" in text and "ramp-0-4" in text
        with open(out) as fh:
            rows = csv_rows(fh.read())
        assert rows[0] == ["config", "estimator", "risk", "se", "prial", "replicates", "seed"]
        assert len(rows) == 1 + 8 * 8
        assert rows[1][:2] == ["all-zero", "JS1"]


class TestCheckConditions:
    def test_default_report(self, capsys):
        assert main(["check-conditions"]) == 0
        out = capsys.readouterr().out
        assert "mean-shrink prior (a=0.1, c=0.1, p=5, k=5, n=20)" in out
        assert "double-shrink prior (a=0.1, b=0.1, c=0.1, p=5, k=5, n=20)" in out
        assert "linear_lhs: 9.4" in out
        assert "linear_rhs: 140" in out
        assert "zero_shrink_lhs: 4" in out
        assert "zero_shrink_rhs: 5" in out
        assert out.count("minimax: true") == 2
        assert "proper_prior: false" in out

    def test_failing_hyper_sets_exit_code(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "hyper: {a: 3.0, c: 3.0}\n")
        assert main(["check-conditions", "--config", cfg]) == 1
        assert "minimax: false" in capsys.readouterr().out

    def test_dimensions_from_config(self, tmp_path, capsys):
        text = textwrap.dedent(
            """\
            experiment:
              p: 4
              k: 5
              n: 20
            """
        )
        cfg = put(tmp_path, "cfg.yaml", text)
        code = main(["check-conditions", "--config", cfg])
        out = capsys.readouterr().out
        # Four dimensions sink the double-shrink conditions no matter the
        # hyperparameters, while the mean-shrink ones still pass.
        assert code == 1
        assert "p=4" in out
        assert "minimax: true" in out and "minimax: false" in out

    def test_unknown_experiment_key_is_bad_input(self, tmp_path, capsys):
        # The experiment section is checked whole, though only p, k, n are read.
        cfg = put(tmp_path, "cfg.yaml", "experiment:\n  p: 4\n  positive_part_js: true\n")
        assert main(["check-conditions", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: unknown key 'positive_part_js' in experiment\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param("p", "five", "experiment.p must be an integer", id="p"),
            pytest.param("k", "five", "experiment.k must be an integer", id="k"),
            pytest.param("n", "five", "experiment.n must be an integer", id="n"),
            pytest.param("p", "0", "need p >= 1, got 0", id="p-zero"),
            pytest.param("k", "1", "need k >= 2 groups, got 1", id="k-one"),
            pytest.param("n", "-4", "need n >= 1, got -4", id="n-negative"),
        ],
    )
    def test_non_integer_dimension_is_bad_input(self, tmp_path, capsys, key, value, message):
        cfg = put(tmp_path, "cfg.yaml", f"experiment:\n  {key}: {value}\n")
        assert main(["check-conditions", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestValidate:
    def test_benchmark_checks_pass(self, capsys):
        assert main(["validate", "--replicates", "2500"]) == 0
        out = capsys.readouterr().out
        assert "gaussian-by-parts" in out
        assert "chi-square-derivative" in out
        assert "risk-estimate mean-shrink @ all-zero" in out
        assert "risk-estimate smooth @ ramp-0-4" in out
        assert out.strip().endswith("all checks passed")
        assert "FAIL" not in out

    @pytest.mark.parametrize("with_config", [False, True], ids=["benchmark", "config"])
    @pytest.mark.parametrize("replicates", ["1", "0", "-3"])
    def test_too_few_replicates_is_bad_input(self, tmp_path, capsys, replicates, with_config):
        argv = ["validate", "--replicates", replicates]
        if with_config:
            argv += ["--config", put(tmp_path, "cfg.yaml", SIMULATE_CONFIG)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"need at least 2 replicates, got {replicates}" in captured.err
        assert captured.out == ""

    def test_unchecked_configuration_is_still_validated(self, tmp_path, capsys, monkeypatch):
        # Of four configurations validate checks the first, third and last;
        # the bad second one still stops the run before anything is drawn.
        body = SIMULATE_CONFIG.replace(
            "    - name: tilt\n",
            "    - name: inf\n      scales: [0.0, .inf, 0.0]\n"
            "    - name: ramp\n      scales: [0.0, 1.0, 2.0]\n"
            "    - name: tilt\n",
        )
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        assert main(["validate", "--config", put(tmp_path, "cfg.yaml", body)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: mean config 'inf' has non-finite entries\n"
        assert captured.out == ""
        assert drawn == []

    def test_stdout_is_pinned(self, capsys):
        # Line order and digits of every check at a count that is not a
        # multiple of the block size.
        assert main(["validate", "--seed", "1", "--replicates", "2001"]) == 0
        assert capsys.readouterr().out == VALIDATE_SEED1_2001

    def test_replicates_flag_beats_the_file(self, tmp_path, capsys):
        one = put(
            tmp_path, "one.yaml", SIMULATE_CONFIG.replace("replicates: 40", "replicates: 1")
        )
        bare = put(tmp_path, "bare.yaml", SIMULATE_CONFIG.replace("  replicates: 40\n", ""))
        assert main(["validate", "--config", one, "--replicates", "2000"]) == 0
        from_flag = capsys.readouterr()
        assert from_flag.err == ""
        assert main(["validate", "--config", bare, "--replicates", "2000"]) == 0
        assert capsys.readouterr().out == from_flag.out

    def test_file_replicates_are_the_count_that_runs(self, tmp_path, capsys):
        in_file = put(
            tmp_path, "in.yaml", SIMULATE_CONFIG.replace("replicates: 40", "replicates: 300")
        )
        bare = put(tmp_path, "bare.yaml", SIMULATE_CONFIG.replace("  replicates: 40\n", ""))
        assert main(["validate", "--config", in_file]) == 0
        from_file = capsys.readouterr().out
        assert main(["validate", "--config", bare, "--replicates", "300"]) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize("sigma2", ["1.0e-300", "1.0e-200", "1.0e+200", "1.0e+306"])
    def test_extreme_scale_checks_pass(self, tmp_path, capsys, sigma2):
        # Past sigma2 = 1e150 the chi-square check's g^2 underflows, at 1e306
        # four times the scale sum overflows in the risk estimate's scale
        # terms, and near 1e-200 the chi-square check's squared deviations
        # underflow in its standard error; every identity holds, so every
        # check passes.
        body = (
            f"experiment: {{p: 5, k: 5, n: 20, sigma2: {sigma2}, v: identity, "
            "q: {scaled_identity: 1.0e+100}, "
            "mean_configs: [{name: zero, scales: [0, 0, 0, 0, 0]}]}\n"
        )
        cfg = put(tmp_path, "cfg.yaml", body)
        assert main(["validate", "--config", cfg, "--replicates", "2000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "FAIL" not in captured.out
        assert captured.out.endswith("all checks passed\n")

    @pytest.mark.parametrize("threads", ["1", "2", "5"])
    def test_stdout_bytes_at_any_thread_count(self, capsys, threads):
        assert main(["validate", "--replicates", "50000", "--threads", threads]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == TestRunGoldenBytes.VALIDATE

    def test_threads_flag_is_honoured(self, capsys, helper_threads):
        # validate runs its blocks on --threads threads and prints the same lines.
        assert main(["validate", "--threads", "1", "--replicates", "2500"]) == 0
        one = capsys.readouterr()
        assert helper_threads == []
        assert main(["validate", "--threads", "3", "--replicates", "2500"]) == 0
        three = capsys.readouterr()
        # Each checked configuration has two blocks, so one helper; the
        # identities' one block starts none.
        assert len(helper_threads) == 3
        assert (three.out, three.err) == (one.out, "")

    def test_file_threads_are_honoured(self, tmp_path, capsys, helper_threads):
        # A config file's thread count runs validate's blocks, as it does
        # table1's and simulate's, and the lines stay the same.
        threaded = put(
            tmp_path, "threaded.yaml", SIMULATE_CONFIG.replace("seed: 31", "seed: 31\n  threads: 2")
        )
        single = put(
            tmp_path, "single.yaml", SIMULATE_CONFIG.replace("seed: 31", "seed: 31\n  threads: 1")
        )
        # Four blocks per checked configuration (two of them) and two for the
        # identities.
        assert main(["validate", "--config", single, "--replicates", "11000"]) == 0
        from_single = capsys.readouterr()
        assert helper_threads == []
        assert main(["validate", "--config", threaded, "--replicates", "11000"]) == 0
        from_threaded = capsys.readouterr()
        assert from_threaded.err == ""
        assert from_threaded.out == from_single.out
        assert len(helper_threads) == 3

    @pytest.mark.parametrize(
        "p, k, skipped",
        [
            (1, 3, ["mean-shrink: pooled-mean shrink needs p(k-1) >= 3, got 2",
                    "double-shrink: pooled-mean zero-shrink needs p >= 3, got p=1"]),
            (2, 3, ["double-shrink: pooled-mean zero-shrink needs p >= 3, got p=2"]),
        ],
    )
    def test_members_no_kernel_runs_are_skipped(self, tmp_path, capsys, p, k, skipped):
        # At p = 1, EB*'s risk estimate goes as 1/g, whose mean is infinite;
        # its check passed only on a huge standard error. A member is
        # checked only where its EB or EB* kernel runs; "smooth" always is.
        body = (
            f"experiment: {{p: {p}, k: {k}, n: 20, sigma2: 1.0, v: identity, "
            f"mean_configs: [{{name: z, scales: {[0] * k}}}]}}\n"
        )
        cfg = put(tmp_path, "cfg.yaml", body)
        assert main(["validate", "--config", cfg, "--seed", "1", "--replicates", "2000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("skipped")] == [
            f"skipped risk-estimate {line}" for line in skipped
        ]
        checked = {ln.split(" @ ")[0] for ln in lines if ln.startswith("risk-estimate")}
        assert checked == {
            f"risk-estimate {name}" for name in ("mean-shrink", "double-shrink", "smooth")
        } - {f"risk-estimate {line.split(':')[0]}" for line in skipped}
        assert lines[-1] == "all checks passed"

    def test_bad_loss_matrix_rejected_before_drawing(self, tmp_path, capsys, monkeypatch):
        bad = "[[1, 0, 0], [0, 1, 0], [0, 0, -1]]"
        q = f"  q: [{bad}, identity, identity]\n"
        body = SIMULATE_CONFIG.replace("  v: identity\n", "  v: identity\n" + q)
        drawn = []
        monkeypatch.setattr(montecarlo, "_uniforms", lambda *args: drawn.append(args))
        assert main(["validate", "--config", put(tmp_path, "cfg.yaml", body)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: q[0] is not positive definite")
        assert captured.out == ""
        assert drawn == []


# Run in a child whose address space is capped at 3 GB, so a count that
# asks for terabytes fails at once instead of filling the machine's memory.
def _capped_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("command", ["table1", "validate"])
def test_replicates_too_large_for_memory_is_bad_input(command):
    env = dict(os.environ, PYTHONPATH=str(Path(kshrink.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "kshrink.cli", command, "--replicates", "100000000000"],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_capped_address_space,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert re.fullmatch(r"error: Unable to allocate [^\n]+\n", run.stderr)


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("p", -3, "need p >= 1, got -3", id="p"),
        pytest.param("k", -2, "need k >= 2 groups, got -2", id="k"),
    ],
)
def test_negative_dimension_is_bad_input(tmp_path, capsys, command, key, value, message):
    # The dimensions are checked before any matrix is sized by them.
    body = SIMULATE_CONFIG.replace(f"  {key}: 3\n", f"  {key}: {value}\n")
    assert body != SIMULATE_CONFIG
    assert main([command, "--config", put(tmp_path, "cfg.yaml", body)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "command, seed",
        [("table1", "-1"), ("simulate", "-4"), ("validate", "-3")],
    )
    def test_rejected_with_one_message(self, tmp_path, capsys, command, seed):
        # simulate takes its seed from the file, the others from --seed.
        if command == "simulate":
            body = SIMULATE_CONFIG.replace("seed: 31", f"seed: {seed}")
            argv = ["simulate", "--config", put(tmp_path, "cfg.yaml", body)]
        else:
            argv = [command, "--seed", seed, "--replicates", "10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be >= 0, got {seed}\n"
        assert captured.out == ""


class TestParserReuse:
    """main builds its parser once per process; each call parses as the first did."""

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_after_errors_and_help_parse_as_the_first(self, tmp_path, capsys):
        cfg = put(tmp_path, "cfg.yaml", "dataset: {kind: ksample}\n")
        data = put(tmp_path, "data.csv", EXACT_KSAMPLE)
        out = tmp_path / "est.csv"
        argv = ["estimate", "--config", cfg, "--input", data, "--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        out.unlink()
        with pytest.raises(SystemExit) as raised:
            main(["estimate", "--config", cfg, "--bogus"])
        assert raised.value.code == 2
        assert capsys.readouterr().err.startswith("usage: kshrink estimate")
        with pytest.raises(SystemExit) as raised:
            main(["--help"])
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kshrink")
        assert main(["check-conditions"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert out.read_bytes() == first
        # --output given earlier leaves no default behind: stdout gets the same bytes.
        assert main(argv[:-2]) == 0
        assert capsys.readouterr().out.encode() == first


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_simulate_requires_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate"])
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("table1", "also write the table as CSV here; the text table still goes to stdout"),
            ("simulate", "also write the table as CSV here; the text table still goes to stdout"),
            ("estimate", "write CSV here instead of stdout"),
        ],
    )
    def test_output_help_says_where_the_text_goes(self, capsys, command, text):
        with pytest.raises(SystemExit) as raised:
            main([command, "--help"])
        assert raised.value.code == 0
        assert text in " ".join(capsys.readouterr().out.split())
