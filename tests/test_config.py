"""Strict YAML parsing: happy paths, defaults, and rejected documents."""

import textwrap

import numpy as np
import pytest
import yaml
from pytest import approx

from kshrink import ConfigError, experiment_from_document, load_document
from kshrink.config import (
    _UniqueKeyLoader,
    dataset_from_document,
    parse_estimators,
    parse_hyper,
    parse_matrix,
    parse_matrix_stack,
    parse_mean_configs,
)
from kshrink.model import Hyperparameters


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


FULL_DOC = """
    experiment:
      p: 3
      k: 2
      n: 10
      sigma2: 2.0
      v: identity
      mean_configs:
        - name: zero
          scales: [0.0, 0.0]
        - name: split
          mu:
            - [0.0, 0.0, 0.0]
            - [2.0, 2.0, 2.0]
      estimators: [EB1, HB2]
      replicates: 50
      seed: 9
      threads: 2
    hyper:
      a: 0.2
      alpha: 0.1
"""


class TestLoadDocument:
    def test_round_trip(self, tmp_path):
        doc = load_document(write(tmp_path, FULL_DOC))
        assert set(doc) == {"experiment", "hyper"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="No such file"):
            load_document(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError):
            load_document(write(tmp_path, "experiment: [unclosed"))

    def test_non_mapping_top_level(self, tmp_path):
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_document(write(tmp_path, "- just\n- a\n- list\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'simulation'"):
            load_document(write(tmp_path, "simulation: {}\n"))

    def test_empty_file_is_empty_document(self, tmp_path):
        assert load_document(write(tmp_path, "")) == {}

    @pytest.mark.parametrize("text, key", [
        ("experiment:\n  seed: 1\n  seed: 2\n", "'seed'"),
        ("hyper: {a: 0.1, a: 0.2}\n", "'a'"),
        ("hyper: {}\nhyper: {}\n", "'hyper'"),
    ])
    def test_key_named_twice(self, tmp_path, text, key):
        # YAML would keep the last value and drop the first without a word.
        with pytest.raises(ConfigError, match=f"duplicate key {key}"):
            load_document(write(tmp_path, text))

    def test_key_named_twice_through_libyaml(self, tmp_path):
        # The loader is libyaml's; the duplicate-key check runs on its nodes.
        assert yaml.__with_libyaml__
        assert issubclass(_UniqueKeyLoader, yaml.CSafeLoader)
        path = write(tmp_path, "experiment:\n  p: 3\n  k: 2\n  p: 4\n")
        with pytest.raises(ConfigError, match=r"duplicate key 'p'\n  in .*, line 4, column 3"):
            load_document(path)

    def test_merged_key_may_be_overridden(self, tmp_path):
        text = "experiment:\n  <<: {p: 3, k: 3}\n  p: 4\n"
        assert load_document(write(tmp_path, text))["experiment"] == {"p": 4, "k": 3}


class TestParseMatrix:
    def test_identity(self):
        assert parse_matrix("identity", 3, "w") == approx(np.eye(3))

    def test_scaled_identity(self):
        assert parse_matrix({"scaled_identity": 2.5}, 2, "w") == approx(2.5 * np.eye(2))

    def test_scaled_identity_must_be_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_matrix({"scaled_identity": 0.0}, 2, "w")

    def test_unknown_matrix_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_matrix({"diag": [1, 2]}, 2, "w")

    def test_explicit_rows(self):
        got = parse_matrix([[2.0, 1.0], [1.0, 2.0]], 2, "w")
        assert got == approx(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_wrong_row_count(self):
        with pytest.raises(ConfigError, match="must have 3 rows"):
            parse_matrix([[1.0, 0.0], [0.0, 1.0]], 3, "w")

    def test_ragged_rows(self):
        with pytest.raises(ConfigError):
            parse_matrix([[1.0, 0.0], [0.0]], 2, "w")

    def test_non_numeric_cell(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_matrix([[1.0, "x"], [0.0, 1.0]], 2, "w")

    def test_rejects_scalar(self):
        with pytest.raises(ConfigError, match="identity"):
            parse_matrix(5, 2, "w")


class TestParseMatrixStack:
    def test_single_spec_broadcasts(self):
        got = parse_matrix_stack({"scaled_identity": 3.0}, 4, 2, "w")
        assert got.shape == (4, 2, 2)
        assert got[3] == approx(3.0 * np.eye(2))
        got[0, 0, 0] = 99.0  # the broadcast must be materialized

    def test_plain_matrix_is_one_spec_even_when_square(self):
        # A p x p list of number rows is a single matrix for all groups,
        # not p different matrices.
        rows = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
        got = parse_matrix_stack(rows, 3, 3, "w")
        assert got[0] == approx(np.diag([1.0, 2.0, 3.0]))
        assert got[2] == approx(got[0])

    def test_per_group_list(self):
        node = ["identity", {"scaled_identity": 2.0}, [[4.0, 0.0], [0.0, 4.0]]]
        got = parse_matrix_stack(node, 3, 2, "w")
        assert got[0] == approx(np.eye(2))
        assert got[1] == approx(2.0 * np.eye(2))
        assert got[2] == approx(4.0 * np.eye(2))

    def test_wrong_stack_length(self):
        with pytest.raises(ConfigError, match="must list 3 matrices"):
            parse_matrix_stack(["identity", "identity"], 3, 2, "w")


class TestParseMeanConfigs:
    def test_scales_and_mu_forms(self):
        node = [
            {"name": "ramp", "scales": [1.0, 2.0]},
            {"name": "rows", "mu": [[0.0, 1.0], [1.0, 0.0]]},
        ]
        ramp, rows = parse_mean_configs(node, 2, 2, "m")
        assert ramp.mu == approx(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert rows.mu == approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_mean_configs([{"name": "x"}], 2, 2, "m")
        both = [{"name": "x", "scales": [0.0, 0.0], "mu": [[0.0, 0.0], [0.0, 0.0]]}]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_mean_configs(both, 2, 2, "m")

    def test_scales_length_checked(self):
        with pytest.raises(ConfigError, match="must have 2 entries"):
            parse_mean_configs([{"name": "x", "scales": [1.0]}], 2, 2, "m")

    def test_mu_shape_checked(self):
        node = [{"name": "x", "mu": [[1.0], [2.0]]}]
        with pytest.raises(ConfigError, match="must be 2x2"):
            parse_mean_configs(node, 2, 2, "m")

    def test_mu_ragged_rows(self):
        node = [{"name": "x", "mu": [[1.0], [2.0, 3.0]]}]
        with pytest.raises(ConfigError, match="must be 2x2"):
            parse_mean_configs(node, 2, 2, "m")

    def test_name_required(self):
        with pytest.raises(ConfigError, match="name"):
            parse_mean_configs([{"scales": [0.0, 0.0]}], 2, 2, "m")

    def test_unknown_key(self):
        node = [{"name": "x", "scales": [0.0, 0.0], "offset": 1}]
        with pytest.raises(ConfigError, match="unknown key 'offset'"):
            parse_mean_configs(node, 2, 2, "m")


class TestParseEstimators:
    def test_default_is_full_order(self):
        assert parse_estimators(None, "e") == (
            "JS1", "JS2", "PT", "PT*", "EB", "EB*", "HB1", "HB2",
        )

    def test_aliases_canonicalized(self):
        assert parse_estimators(["EB1", "EB2"], "e") == ("EB", "EB*")

    def test_repeats_dropped_after_aliases_in_first_order(self):
        assert parse_estimators(["HB2", "EB", "EB1", "HB2", "EB2"], "e") == ("HB2", "EB", "EB*")

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="ridge"):
            parse_estimators(["ridge"], "e")

    def test_non_string_entry(self):
        with pytest.raises(ConfigError, match="must be a string"):
            parse_estimators([3], "e")


class TestParseHyper:
    def test_defaults(self):
        assert parse_hyper(None) == Hyperparameters()

    def test_partial_override(self):
        got = parse_hyper({"a": 0.3, "big_l": 1.5})
        assert got == Hyperparameters(a=0.3, big_l=1.5)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'gamma'"):
            parse_hyper({"gamma": 1.0})

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_hyper({"a": True})

    @pytest.mark.parametrize(
        "text, written",
        [("1e308", "1.0e+308"), ("1e-5", "1.0e-05"), ("1.5e3", "1500.0"), ("2E+2", "200.0")],
    )
    def test_number_read_as_a_string_is_told_how_to_write_it(self, text, written):
        # YAML 1.1 reads a float only with a dot and, if there is an
        # exponent, a signed one; the message gives a form it reads.
        doc = yaml.safe_load(f"c: {text}")
        assert doc == {"c": text}
        with pytest.raises(ConfigError) as raised:
            parse_hyper(doc)
        assert str(raised.value) == (
            f"hyper.c must be a number, got {text!r}; YAML reads a number as a string "
            f"unless it has a dot and any exponent has a sign: write {written}"
        )
        assert parse_hyper(yaml.safe_load(f"c: {written}")).c == float(text)

    @pytest.mark.parametrize("value", ["x", "nan", "inf", [1.0]])
    def test_other_non_numbers_get_no_hint(self, value):
        with pytest.raises(ConfigError) as raised:
            parse_hyper({"c": value})
        assert str(raised.value) == f"hyper.c must be a number, got {value!r}"

    def test_matrix_cell_read_as_a_string_is_told_how_to_write_it(self):
        with pytest.raises(ConfigError) as raised:
            parse_matrix(yaml.safe_load("[[1e3, 0.0], [0.0, 1.0]]"), 2, "w")
        assert str(raised.value).endswith("write 1000.0")


class TestExperimentFromDocument:
    def test_full_document(self, tmp_path):
        cfg = experiment_from_document(load_document(write(tmp_path, FULL_DOC)))
        assert (cfg.p, cfg.k, cfg.n) == (3, 2, 10)
        assert cfg.sigma2 == 2.0
        assert cfg.v.shape == (2, 3, 3)
        assert cfg.estimators == ("EB", "HB2")
        assert (cfg.replicates, cfg.seed, cfg.threads) == (50, 9, 2)
        assert cfg.hyper.a == approx(0.2)
        assert cfg.hyper.alpha == approx(0.1)
        assert cfg.hyper.b == approx(0.1)  # untouched default
        cfg.validate()

    def test_file_seed_zero_survives(self, tmp_path):
        text = FULL_DOC.replace("seed: 9", "seed: 0")
        cfg = experiment_from_document(load_document(write(tmp_path, text)))
        assert cfg.seed == 0

    def test_defaults_when_keys_absent(self, tmp_path):
        text = """
            experiment:
              p: 3
              k: 2
              n: 10
              sigma2: 1.0
              v: identity
              mean_configs:
                - name: zero
                  scales: [0.0, 0.0]
        """
        cfg = experiment_from_document(load_document(write(tmp_path, text)))
        assert (cfg.replicates, cfg.seed, cfg.threads) == (5000, 20260816, 1)
        assert cfg.estimators == parse_estimators(None, "e")
        assert cfg.q is None

    def test_q_section(self, tmp_path):
        text = FULL_DOC + "      # placeholder\n"
        doc = load_document(write(tmp_path, text))
        doc["experiment"]["q"] = {"scaled_identity": 2.0}
        cfg = experiment_from_document(doc)
        assert cfg.q.shape == (2, 3, 3)
        assert cfg.q[1] == approx(2.0 * np.eye(3))

    def test_missing_experiment_section(self):
        with pytest.raises(ConfigError, match="missing 'experiment'"):
            experiment_from_document({})

    @pytest.mark.parametrize("key", ["p", "v", "mean_configs", "sigma2"])
    def test_missing_required_key(self, tmp_path, key):
        doc = load_document(write(tmp_path, FULL_DOC))
        del doc["experiment"][key]
        with pytest.raises(ConfigError, match=key):
            experiment_from_document(doc)

    def test_unknown_experiment_key(self, tmp_path):
        doc = load_document(write(tmp_path, FULL_DOC))
        doc["experiment"]["burn_in"] = 10
        with pytest.raises(ConfigError, match="unknown key 'burn_in'"):
            experiment_from_document(doc)

    def test_boolean_is_not_an_integer(self, tmp_path):
        doc = load_document(write(tmp_path, FULL_DOC))
        doc["experiment"]["p"] = True
        with pytest.raises(ConfigError, match="must be an integer"):
            experiment_from_document(doc)

    def test_positive_part_key_is_unknown(self, tmp_path):
        # The James-Stein pair has no positive-part variant.
        doc = load_document(write(tmp_path, FULL_DOC))
        doc["experiment"]["positive_part_js"] = True
        with pytest.raises(ConfigError, match="unknown key 'positive_part_js'"):
            experiment_from_document(doc)


class TestDatasetFromDocument:
    def test_ksample_spec(self, tmp_path):
        text = """
            dataset:
              kind: ksample
              v0: {scaled_identity: 2.0}
              estimators: [EB]
            hyper:
              c: 0.3
        """
        spec = dataset_from_document(load_document(write(tmp_path, text)))
        assert spec.kind == "ksample"
        assert spec.estimators == ("EB",)
        assert spec.hyper.c == approx(0.3)
        assert spec.v0_matrices(3, 2) == approx(np.broadcast_to(2.0 * np.eye(2), (3, 2, 2)))
        assert spec.q_matrices(3, 2) is None

    def test_default_v0_is_identity(self, tmp_path):
        spec = dataset_from_document(load_document(write(tmp_path, "dataset: {kind: ksample}\n")))
        assert spec.v0_matrices(2, 3) == approx(np.broadcast_to(np.eye(3), (2, 3, 3)))
        assert spec.estimators == parse_estimators(None, "e")

    def test_regression_rejects_v0(self, tmp_path):
        text = """
            dataset:
              kind: regression
              v0: identity
        """
        with pytest.raises(ConfigError, match="applies only to kind 'ksample'"):
            dataset_from_document(load_document(write(tmp_path, text)))

    def test_kind_required(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset.kind"):
            dataset_from_document(load_document(write(tmp_path, "dataset: {}\n")))
        with pytest.raises(ConfigError, match="dataset.kind"):
            dataset_from_document(load_document(write(tmp_path, "dataset: {kind: anova}\n")))

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="missing 'dataset'"):
            dataset_from_document({})

    def test_q_matrices(self, tmp_path):
        text = """
            dataset:
              kind: ksample
              q: identity
        """
        spec = dataset_from_document(load_document(write(tmp_path, text)))
        assert spec.q_matrices(2, 2) == approx(np.broadcast_to(np.eye(2), (2, 2, 2)))
