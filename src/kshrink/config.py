"""Strict YAML configuration for experiments and dataset estimation.

The file mirrors the in-memory types field for field. Unknown keys are
rejected rather than ignored, and so is a key named twice in one mapping
(YAML would keep the last), since a silently dropped setting would
invalidate a reproduction run. Three top-level sections are understood:

``experiment``
    Mirrors ExperimentConfig: n, sigma2, v, q, mean_configs, estimators,
    replicates, seed, threads, plus p and k, which size the file's matrices
    and which the config reads back from v's shape.

``hyper``
    Mirrors Hyperparameters: a, b, c, big_l, alpha.

``dataset``
    Used by the estimate command: kind ("ksample" or "regression"), v0
    (multi-sample scale matrices), q (optional loss weights), estimators.

Matrices are written as "identity", {scaled_identity: s}, or an explicit
row-major list of rows; a stack is either one such spec applied to every
group or a list of k specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Collection

import numpy as np
import yaml

from .estimators import ESTIMATOR_ORDER, canonical_estimators, resolve_estimator
from .model import Hyperparameters
from .montecarlo import ExperimentConfig, MeanConfig


class ConfigError(ValueError):
    """A configuration file is malformed, mistyped, or has unknown keys."""


_EXPERIMENT_KEYS = {f.name for f in fields(ExperimentConfig)} - {"hyper"} | {"p", "k"}
# Counts a file may leave out; ExperimentConfig's field defaults fill them.
_COUNT_KEYS = ("replicates", "seed", "threads")
# In declaration order, the order parse_hyper checks them in.
_HYPER_KEYS = tuple(f.name for f in fields(Hyperparameters))
_DATASET_KEYS = {"kind", "v0", "q", "estimators"}
_MEAN_KEYS = {"name", "scales", "mu"}


def _require_mapping(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: Collection[str], where: str) -> None:
    unknown = sorted(set(node).difference(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _require(node: dict, key: str, where: str) -> Any:
    if key not in node:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return node[key]


def _get_int(node: dict, key: str, where: str) -> int:
    value = _require(node, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _not_a_number(what: str, value: Any) -> ConfigError:
    """The error for a non-number; a string such as '1e308' gets its YAML float form."""
    message = f"{what} must be a number, got {value!r}"
    try:
        number = float(value) if isinstance(value, str) else math.nan
    except ValueError:
        number = math.nan
    if math.isfinite(number):
        mantissa, e, exponent = repr(number).partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        message += (
            "; YAML reads a number as a string unless it has a dot and any exponent "
            f"has a sign: write {mantissa}{e}{exponent}"
        )
    return ConfigError(message)


def _get_float(node: dict, key: str, where: str) -> float:
    value = _require(node, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _not_a_number(f"{where}.{key}", value)
    return float(value)


def _number_list(node: Any, where: str) -> list[float]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    out = []
    for j, v in enumerate(node):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _not_a_number(f"{where}[{j}]", v)
        out.append(float(v))
    return out


def parse_matrix(node: Any, p: int, where: str) -> np.ndarray:
    """Parse one p x p matrix spec."""
    if node == "identity":
        return np.eye(p)
    if isinstance(node, dict):
        _check_keys(node, {"scaled_identity"}, where)
        s = _get_float(node, "scaled_identity", where)
        if s <= 0:
            raise ConfigError(f"{where}.scaled_identity must be positive, got {s}")
        return s * np.eye(p)
    if isinstance(node, list):
        if len(node) != p:
            raise ConfigError(f"{where} must have {p} rows, got {len(node)}")
        rows = []
        for i, row in enumerate(node):
            values = _number_list(row, f"{where}[{i}]")
            if len(values) != p:
                raise ConfigError(
                    f"{where}[{i}] must have {p} entries, got {len(values)}"
                )
            rows.append(values)
        return np.asarray(rows, dtype=float)
    raise ConfigError(
        f"{where} must be 'identity', {{scaled_identity: s}}, or a list of rows"
    )


def parse_matrix_stack(node: Any, k: int, p: int, where: str) -> np.ndarray:
    """Parse a (k, p, p) stack: one spec for all groups, or a list of k."""
    per_group = isinstance(node, list) and all(
        isinstance(el, (str, dict)) or (isinstance(el, list) and el and isinstance(el[0], list))
        for el in node
    )
    if per_group:
        if len(node) != k:
            raise ConfigError(f"{where} must list {k} matrices, got {len(node)}")
        return np.stack([parse_matrix(el, p, f"{where}[{i}]") for i, el in enumerate(node)])
    single = parse_matrix(node, p, where)
    return np.broadcast_to(single, (k, p, p)).copy()


def parse_mean_configs(node: Any, k: int, p: int, where: str) -> tuple[MeanConfig, ...]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where} must be a non-empty list")
    out = []
    for i, entry in enumerate(node):
        here = f"{where}[{i}]"
        entry = _require_mapping(entry, here)
        _check_keys(entry, _MEAN_KEYS, here)
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{here}.name must be a non-empty string")
        if ("scales" in entry) == ("mu" in entry):
            raise ConfigError(f"{here} needs exactly one of 'scales' or 'mu'")
        if "scales" in entry:
            scales = _number_list(entry["scales"], f"{here}.scales")
            if len(scales) != k:
                raise ConfigError(f"{here}.scales must have {k} entries, got {len(scales)}")
            out.append(MeanConfig.from_scales(name, scales, p))
        else:
            rows = entry["mu"]
            if not isinstance(rows, list) or len(rows) != k:
                raise ConfigError(f"{here}.mu must list {k} rows")
            parsed = []
            for j, r in enumerate(rows):
                values = _number_list(r, f"{here}.mu[{j}]")
                if len(values) != p:
                    raise ConfigError(f"{here}.mu must be {k}x{p}")
                parsed.append(values)
            out.append(MeanConfig(name=name, mu=np.asarray(parsed, dtype=float)))
    return tuple(out)


def parse_estimators(node: Any, where: str) -> tuple[str, ...]:
    """Canonical estimator names, each once, in the order they first appear.

    Each entry is checked here, so that an error names its index; the list
    then goes through estimators.canonical_estimators, as ExperimentConfig's does.
    """
    if node is None:
        return ESTIMATOR_ORDER
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{where} must be a non-empty list of estimator names")
    for i, entry in enumerate(node):
        if not isinstance(entry, str):
            raise ConfigError(f"{where}[{i}] must be a string, got {entry!r}")
        try:
            resolve_estimator(entry)
        except KeyError as exc:
            raise ConfigError(f"{where}[{i}]: {exc.args[0]}") from None
    return canonical_estimators(node)


def parse_hyper(node: Any) -> Hyperparameters:
    """Hyperparameters of the hyper section; a key it leaves out takes the field's default."""
    if node is None:
        return Hyperparameters()
    node = _require_mapping(node, "hyper")
    _check_keys(node, _HYPER_KEYS, "hyper")
    values = {key: _get_float(node, key, "hyper") for key in _HYPER_KEYS if key in node}
    return Hyperparameters(**values)


class _UniqueKeyLoader(yaml.CSafeLoader):
    """libyaml's safe loader that rejects a key named twice in a mapping (YAML keeps the last)."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return mapping


def load_document(path: str) -> dict:
    """Load and type-check the top level of a config file; a key named twice is an error."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if doc is None:
        doc = {}
    doc = _require_mapping(doc, f"{path} top level")
    _check_keys(doc, {"experiment", "hyper", "dataset"}, f"{path} top level")
    return doc


def _dimensions(node: dict) -> tuple[int, int, int]:
    """(p, k, n) of an experiment mapping, checked before any matrix is sized by them."""
    p, k, n = (_get_int(node, key, "experiment") for key in ("p", "k", "n"))
    ExperimentConfig.check_dimensions(p, k, n)
    return p, k, n


def experiment_from_document(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig; a count the file leaves out takes the field's default."""
    if "experiment" not in doc:
        raise ConfigError("missing 'experiment' section")
    node = _require_mapping(doc["experiment"], "experiment")
    _check_keys(node, _EXPERIMENT_KEYS, "experiment")
    p, k, n = _dimensions(node)
    v_node, mean_node = (_require(node, key, "experiment") for key in ("v", "mean_configs"))
    v = parse_matrix_stack(v_node, k, p, "experiment.v")
    q = None
    if "q" in node and node["q"] is not None:
        q = parse_matrix_stack(node["q"], k, p, "experiment.q")
    return ExperimentConfig(
        n=n,
        sigma2=_get_float(node, "sigma2", "experiment"),
        v=v,
        q=q,
        mean_configs=parse_mean_configs(mean_node, k, p, "experiment.mean_configs"),
        estimators=parse_estimators(node.get("estimators"), "experiment.estimators"),
        **{key: _get_int(node, key, "experiment") for key in _COUNT_KEYS if key in node},
        hyper=parse_hyper(doc.get("hyper")),
    )


def dimensions_from_document(doc: dict) -> tuple[int, int, int]:
    """(p, k, n) of the experiment section, checked whole; the benchmark's where it is silent."""
    base = ExperimentConfig.benchmark()
    node = doc.get("experiment")
    node = {} if node is None else _require_mapping(node, "experiment")
    _check_keys(node, _EXPERIMENT_KEYS, "experiment")
    return _dimensions({"p": base.p, "k": base.k, "n": base.n} | node)


@dataclass(frozen=True)
class DatasetSpec:
    """Estimation settings: dataset kind, scale matrices, loss, estimators.

    v0_node and q_node hold the raw matrix specs; the dimensions are only
    known after the dataset is read, so materialize with v0_matrices /
    q_matrices at that point.
    """

    kind: str
    v0_node: Any
    q_node: Any
    estimators: tuple[str, ...]
    hyper: Hyperparameters

    def v0_matrices(self, k: int, p: int) -> np.ndarray:
        node = "identity" if self.v0_node is None else self.v0_node
        return parse_matrix_stack(node, k, p, "dataset.v0")

    def q_matrices(self, k: int, p: int) -> np.ndarray | None:
        if self.q_node is None:
            return None
        return parse_matrix_stack(self.q_node, k, p, "dataset.q")


def dataset_from_document(doc: dict) -> DatasetSpec:
    if "dataset" not in doc:
        raise ConfigError("missing 'dataset' section")
    node = _require_mapping(doc["dataset"], "dataset")
    _check_keys(node, _DATASET_KEYS, "dataset")
    kind = node.get("kind")
    if kind not in ("ksample", "regression"):
        raise ConfigError(f"dataset.kind must be 'ksample' or 'regression', got {kind!r}")
    if kind == "regression" and node.get("v0") is not None:
        raise ConfigError("dataset.v0 applies only to kind 'ksample'")
    return DatasetSpec(
        kind=kind,
        v0_node=node.get("v0"),
        q_node=node.get("q"),
        estimators=parse_estimators(node.get("estimators"), "dataset.estimators"),
        hyper=parse_hyper(doc.get("hyper")),
    )
