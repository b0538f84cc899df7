"""A seeded sweep of malformed command-line inputs.

Valid `simulate`, `estimate`, `check-conditions` and `validate` inputs are
mutated with numpy's generator: wrong types, missing, extra and duplicate
keys, ragged or non-finite matrices, out-of-range dimensions and
hyperparameters, truncated or ragged CSVs and truncated YAML. Every case
runs through kshrink.cli.main and must end in an exit code from 0 to 3
without raising, and an exit of 2 or 3 prints exactly one "error:" line.
Warnings are errors in this suite, so a numpy or scipy warning counts as a
raise. A key named twice, and the removed positive_part_js key in a
section the command reads, are bad input (exit 2): YAML alone would keep
the last value and drop the first. The sizes stay small (p, k <= 8, at most 4 replicates, at most 2
threads), so the whole sweep runs in a few seconds.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
import yaml

from kshrink.cli import main

SEED = 20261018
CASES_PER_COMMAND = 40

EXPERIMENT = {
    "p": 3,
    "k": 3,
    "n": 8,
    "sigma2": 1.5,
    "v": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
    "mean_configs": [
        {"name": "flat", "scales": [0.0, 0.0, 0.0]},
        {"name": "tilt", "mu": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    ],
    "estimators": ["JS1", "PT", "EB", "HB1", "HB2"],
    "replicates": 4,
    "seed": 3,
    "threads": 2,
}
HYPER = {"a": 0.1, "b": 0.1, "c": 0.1, "big_l": 0.0, "alpha": 0.05}

BASE_DOCS = {
    "simulate": {"experiment": EXPERIMENT, "hyper": HYPER},
    "validate": {"experiment": EXPERIMENT, "hyper": HYPER},
    "check-conditions": {"experiment": {"p": 5, "k": 5, "n": 20}, "hyper": HYPER},
    "estimate": {
        "dataset": {
            "kind": "ksample",
            "v0": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
            "estimators": ["JS2", "PT*", "EB*", "HB2"],
        },
        "hyper": HYPER,
    },
}

KSAMPLE_CSV = (
    "group,x1,x2,x3\n"
    "1,1,2,0\n1,-1,-2,0\n1,0.5,0.1,0.3\n"
    "2,3,4,2\n2,1,0,2\n2,2.5,1.5,1.0\n"
    "3,0.2,0.4,-1\n3,-0.3,0.1,-2\n"
)

# One regression group per file: the response, then three covariates.
REGRESSION_FILES = {
    f"g{g}.csv": "y,z1,z2,z3\n" + "".join(
        f"{0.5 * g + j},{1.0},{float(j)},{float((j * j + g) % 5)}\n" for j in range(6)
    )
    for g in range(3)
}
REGRESSION_CONFIG = "dataset: {kind: regression, estimators: [JS1, EB, HB1]}\n"

JUNK = ["abc", "", None, True, -1, 0, 2.5, 1e308, math.nan, math.inf, [], {}, [1, "x"],
        {"scaled_identity": -1.0}, [[1.0, 2.0], [3.0]], "1e308", "identity"]
# Values outside (or at the edge of) each key's range; none asks for more
# than 8 coordinates or groups, 4 replicates or 2 threads.
OUT_OF_RANGE = {
    "p": [0, -1, 1, 2, 8], "k": [0, 1, -2, 8], "n": [0, -3, 1],
    "sigma2": [0.0, -1.0, 1e-300, 1e300], "replicates": [0, 1, -4],
    "seed": [-1, 2**70], "threads": [0, -1, 1],
    "a": [-1.0, -0.99, 5.0, 1e6], "b": [-1.0, 40.0], "c": [-1.0, 50.0, 1e300],
    "big_l": [-1.0, 1e3, 1e300], "alpha": [0.0, 1.0, -0.1, 1.5, 1e-300],
    "scaled_identity": [0.0, -2.0, 1e-300, 1e300],
}
EXTRA_KEYS = ["bogus", "positive_part_js", "P", "", "threads", "kind"]


def paths(node, prefix=()):
    """Every (path, value) below node; a path is a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def mutate_doc(rng, doc):
    """A (label, yaml text) mutation of a config document."""
    doc = copy.deepcopy(doc)
    every = list(paths(doc))
    rows = [v for _, v in every if isinstance(v, list) and v and isinstance(v[0], list)]
    kinds = ["junk", "drop", "extra", "range", "range", "nonfinite", "duplicate", "truncate",
             "positive_part"]
    kind = pick(rng, kinds + ["ragged"] * bool(rows))
    if kind == "junk":
        path, _ = pick(rng, every)
        parent_of(doc, path)[path[-1]] = copy.deepcopy(pick(rng, JUNK))
    elif kind == "drop":
        path, _ = pick(rng, [(p, v) for p, v in every if isinstance(parent_of(doc, p), dict)])
        del parent_of(doc, path)[path[-1]]
    elif kind == "extra":
        _, node = pick(rng, [(p, v) for p, v in every if isinstance(v, dict)])
        node[pick(rng, EXTRA_KEYS)] = pick(rng, [1, "x", True])
    elif kind == "range":
        ranged = [(p, v) for p, v in every if p[-1] in OUT_OF_RANGE]
        path, _ = pick(rng, ranged)
        parent_of(doc, path)[path[-1]] = pick(rng, OUT_OF_RANGE[path[-1]])
    elif kind == "nonfinite":
        numbers = [p for p, v in every if isinstance(v, float)]
        path = pick(rng, numbers)
        parent_of(doc, path)[path[-1]] = pick(rng, [math.nan, math.inf, -math.inf])
    elif kind == "ragged":
        row = pick(rng, pick(rng, rows))
        row.pop() if rng.integers(2) else row.append(1.0)
    elif kind == "positive_part":
        doc.setdefault("experiment", {})["positive_part_js"] = True
    text = yaml.safe_dump(doc, default_flow_style=False, sort_keys=False)
    if kind == "duplicate":
        # Repeat one "key: value" line of a mapping, with another value.
        lines = text.splitlines(keepends=True)
        i = pick(rng, [i for i, line in enumerate(lines)
                       if ": " in line and not line.lstrip().startswith("-")])
        value = yaml.safe_dump(pick(rng, JUNK)).split("\n")[0]
        lines.insert(i + 1, f"{lines[i].split(': ')[0]}: {value}\n")
        text = "".join(lines)
    elif kind == "truncate":
        text = text[: int(rng.integers(len(text)))]
    return kind, text


def mutate_csv(rng, text):
    """A (label, CSV bytes) mutation of the k-sample dataset."""
    lines = text.splitlines()
    kind = pick(rng, ["truncate", "drop_cell", "extra_cell", "junk_cell", "empty",
                      "header_only", "one_group", "singletons", "bytes"])
    body = list(range(1, len(lines)))
    if kind == "truncate":
        return kind, text[: int(rng.integers(len(text)))].encode()
    if kind in ("drop_cell", "extra_cell", "junk_cell"):
        i = pick(rng, body)
        cells = lines[i].split(",")
        if kind == "drop_cell":
            cells.pop(int(rng.integers(len(cells))))
        elif kind == "extra_cell":
            cells.append("1.0")
        else:
            junk = ["", "abc", "nan", "inf", "-inf", "1e400"]
            cells[int(rng.integers(len(cells)))] = pick(rng, junk)
        lines[i] = ",".join(cells)
    elif kind == "empty":
        lines = []
    elif kind == "header_only":
        lines = lines[:1]
    elif kind == "one_group":
        lines = [line for line in lines if not line[0].isdigit() or line.startswith("1,")]
    elif kind == "singletons":
        lines = [lines[0], lines[1], lines[4], lines[7]]
    else:
        return kind, b"group,x1\n\xff\xfe,\x00\n"
    return kind, ("\n".join(lines) + "\n").encode()


def mutate_regression(rng, files):
    """A (label, {file name: bytes}) mutation of the regression dataset."""
    files = {name: text.encode() for name, text in files.items()}
    name = pick(rng, sorted(files))
    lines = files[name].decode().splitlines()
    kind = pick(rng, ["truncate", "few_rows", "drop_column", "junk_cell", "empty", "huge",
                      "one_file", "bytes", "repeated_rows"])
    if kind == "truncate":
        files[name] = files[name][: int(rng.integers(len(files[name])))]
    elif kind == "few_rows":
        files[name] = ("\n".join(lines[:3]) + "\n").encode()
    elif kind == "drop_column":
        files[name] = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode()
    elif kind == "junk_cell":
        lines[int(rng.integers(1, len(lines)))] += pick(rng, [",x", ",,", ",nan"])
        files[name] = ("\n".join(lines) + "\n").encode()
    elif kind == "empty":
        files[name] = b""
    elif kind == "huge":
        lines[1] = pick(rng, ["1e300,1e300,1.0,2.0", "1e300,1.0,2.0,3.0", "1.0,1e-300,0.0,1.0"])
        files[name] = ("\n".join(lines) + "\n").encode()
    elif kind == "one_file":
        files = {name: files[name]}
    elif kind == "bytes":
        files[name] = b"y,z1\n\xff\xfe,\x00\n"
    else:
        files[name] = ("\n".join([lines[0]] + [lines[1]] * 6) + "\n").encode()
    return kind, files


def run_case(tmp_path, capsys, command, config, data=None):
    """Run one case through main: its exit code, and what went wrong or None."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    argv = [command, "--config", str(cfg)]
    if isinstance(data, dict):
        source = tmp_path / "groups"
        source.mkdir(exist_ok=True)
        for old in source.iterdir():
            old.unlink()
        for name, content in data.items():
            (source / name).write_bytes(content)
        argv += ["--input", str(source), "--output", str(tmp_path / "out.csv")]
    elif data is not None:
        source = tmp_path / "data.csv"
        source.write_bytes(data)
        argv += ["--input", str(source), "--output", str(tmp_path / "out.csv")]
    if command in ("simulate", "validate"):
        # A file without a small replicate count would run 5000 (100,000 for
        # validate): keep the sweep small without hiding the file's value.
        try:
            reps = yaml.safe_load(config)["experiment"]["replicates"]
        except (yaml.YAMLError, TypeError, KeyError):
            reps = None
        if not (isinstance(reps, int) and reps <= 4):
            argv += ["--replicates", "3"]
    try:
        code = main(argv)
    except Exception as exc:
        return None, f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in (0, 1, 2, 3):
        return code, f"exit {code}"
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code in (2, 3) and len(errors) != 1:
        return code, f"exit {code} with {len(errors)} error lines: {err!r}"
    return code, None


@pytest.mark.parametrize("command", list(BASE_DOCS))
def test_mutated_configs_end_in_an_exit_code(command, tmp_path, capsys):
    rng = np.random.default_rng([SEED, list(BASE_DOCS).index(command)])
    data = KSAMPLE_CSV.encode() if command == "estimate" else None
    failures, codes = [], []
    for i in range(CASES_PER_COMMAND):
        kind, config = mutate_doc(rng, BASE_DOCS[command])
        code, problem = run_case(tmp_path, capsys, command, config, data)
        codes.append(code)
        ignored = kind == "positive_part" and command == "estimate"  # no experiment read
        if not problem and kind in ("duplicate", "positive_part") and not ignored and code != 2:
            problem = f"exit {code}, not 2"
        if problem:
            failures.append(f"case {i} ({kind}): {problem}\n{config}")
    assert failures == []
    # Most mutations are bad input; a sweep that never reached it tests nothing.
    assert codes.count(2) >= CASES_PER_COMMAND // 2


def test_mutated_csvs_end_in_an_exit_code(tmp_path, capsys):
    rng = np.random.default_rng([SEED, 99])
    config = yaml.safe_dump(BASE_DOCS["estimate"])
    failures, codes = [], []
    for i in range(CASES_PER_COMMAND):
        kind, data = mutate_csv(rng, KSAMPLE_CSV)
        code, problem = run_case(tmp_path, capsys, "estimate", config, data)
        codes.append(code)
        if problem:
            failures.append(f"case {i} ({kind}): {problem}\n{data!r}")
    assert failures == []
    assert codes.count(2) >= CASES_PER_COMMAND // 2


def test_mutated_regression_datasets_end_in_an_exit_code(tmp_path, capsys):
    rng = np.random.default_rng([SEED, 98])
    failures, codes = [], []
    for i in range(CASES_PER_COMMAND):
        kind, files = mutate_regression(rng, REGRESSION_FILES)
        code, problem = run_case(tmp_path, capsys, "estimate", REGRESSION_CONFIG, files)
        codes.append(code)
        if problem:
            failures.append(f"case {i} ({kind}): {problem}\n{files!r}")
    assert failures == []
    assert codes.count(2) >= CASES_PER_COMMAND // 2


def test_unmutated_inputs_pass(tmp_path, capsys):
    # The bases are valid, so each mutation is what a failure is about.
    # check-conditions and validate may report a failed check (exit 1) at
    # these small sizes; neither is bad input.
    for command, doc in BASE_DOCS.items():
        data = KSAMPLE_CSV.encode() if command == "estimate" else None
        code, problem = run_case(tmp_path, capsys, command, yaml.safe_dump(doc), data)
        assert (code, problem) in ((0, None), (1, None)), command
    files = {name: text.encode() for name, text in REGRESSION_FILES.items()}
    assert run_case(tmp_path, capsys, "estimate", REGRESSION_CONFIG, files) == (0, None)
