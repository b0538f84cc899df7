"""The command-line interface, driven in process through main(argv)."""

import dataclasses
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import kshrink
from kshrink import ExperimentConfig, montecarlo
from kshrink.cli import main
from kshrink.montecarlo import VALIDATE_DRAWS

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
    lines = text.strip().split("\n")
    return [line.split(",") for line in lines]


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


def test_start_up_imports_no_root_finder():
    # scipy.optimize is about a third of the CLI's import time, and nothing
    # in kshrink needs it; a fresh interpreter shows what start-up loads.
    env = dict(os.environ, PYTHONPATH=str(Path(kshrink.__file__).resolve().parents[1]))
    code = "import sys, kshrink, kshrink.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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
        counts = (defaults["replicates"], defaults["seed"], defaults["threads"])
        assert (cfg.replicates, cfg.seed, cfg.threads) == counts
        bench = self.built(monkeypatch, ["table1"])
        assert (bench.replicates, bench.seed, bench.threads) == counts

    def test_validate_count_when_neither_gives_one(self, tmp_path, monkeypatch):
        def stop(**kwargs):
            raise Built(kwargs["draws"])

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

    def test_threads_flag_is_rejected(self, capsys):
        # Neither validator runs threads, so validate offers no --threads.
        with pytest.raises(SystemExit) as raised:
            main(["validate", "--threads", "2", "--replicates", "2500"])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    def test_file_threads_make_no_pool(self, tmp_path, capsys, monkeypatch):
        # A config file's thread count is for table1 and simulate; validate
        # runs its blocks in order and prints the same lines without it.
        pools = []
        real = montecarlo.ThreadPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", spy)
        threaded = put(
            tmp_path, "threaded.yaml", SIMULATE_CONFIG.replace("seed: 31", "seed: 31\n  threads: 2")
        )
        bare = put(tmp_path, "bare.yaml", SIMULATE_CONFIG)
        assert main(["validate", "--config", threaded, "--replicates", "300"]) == 0
        from_threaded = capsys.readouterr()
        assert main(["validate", "--config", bare, "--replicates", "300"]) == 0
        assert from_threaded.err == ""
        assert from_threaded.out == capsys.readouterr().out
        assert pools == []


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
