"""Command-line front end.

Subcommands::

    kshrink table1            reproduce the standard benchmark table
    kshrink simulate          run a configured risk experiment
    kshrink estimate          apply estimators to a CSV dataset
    kshrink check-conditions  report the minimaxity margins
    kshrink validate          Monte Carlo self-checks (identities, risk)

Exit codes: 0 success, 1 a statistical check failed, 2 bad input (config,
dataset, arguments, counts too large for memory), 3 estimate could run
none of its estimators (it skips each one whose preconditions fail).
"""

from __future__ import annotations

import argparse
import functools
import glob
import os
import sys
from dataclasses import replace

from .config import (
    _COUNT_KEYS,
    dataset_from_document,
    dimensions_from_document,
    experiment_from_document,
    load_document,
    parse_hyper,
)
from .datasets import ParseError, number_cell, quote_cell, read_ksample_csv, read_regression_csv
from .estimators import ESTIMATORS, PreconditionError, ReplicateError, eb_member
from .model import (
    LossSpec,
    TrueParameters,
    canonicalize_ksample,
    canonicalize_regression,
    pooled_summary,
)
from .montecarlo import (
    VALIDATE_DRAWS,
    ExperimentConfig,
    run_experiment,
    uer_members,
    validate_identities,
    validate_uer,
)
from .risk import check_hb1_conditions, check_hb2_conditions

EXIT_PASS = 0
EXIT_STATISTICAL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _experiment(args: argparse.Namespace, **defaults) -> ExperimentConfig:
    """The --config file's experiment, else the benchmark's, with the flags given.

    Flags beat file values, and the whole file is checked first. defaults
    are the command's own values for counts the file leaves out.
    """
    if getattr(args, "config", None) is None:
        cfg, in_file = ExperimentConfig.benchmark(), {}
    else:
        doc = load_document(args.config)
        cfg = experiment_from_document(doc)
        in_file = doc["experiment"]
    changes = {key: value for key, value in defaults.items() if key not in in_file}
    for key in _COUNT_KEYS:
        if getattr(args, key, None) is not None:
            changes[key] = getattr(args, key)
    return replace(cfg, **changes)


def _cmd_run(args: argparse.Namespace) -> int:
    table = run_experiment(_experiment(args))
    sys.stdout.write(table.to_text())
    if args.output is not None:
        _write_text(args.output, table.to_csv())
    return EXIT_PASS


def _cmd_estimate(args: argparse.Namespace) -> int:
    doc = load_document(args.config)
    spec = dataset_from_document(doc)
    if spec.kind == "ksample":
        groups, labels = read_ksample_csv(args.input)
        v0 = spec.v0_matrices(len(groups), groups[0].shape[1])
        model = canonicalize_ksample(groups, v0)
    else:
        if not os.path.isdir(args.input):
            raise ParseError(
                f"{args.input}: regression input must be a directory of per-group CSV files"
            )
        paths = sorted(glob.glob(os.path.join(args.input, "*.csv")))
        if not paths:
            raise ParseError(f"{args.input}: no CSV files found")
        designs, responses, labels = read_regression_csv(paths)
        model = canonicalize_regression(designs, responses)
    ls = LossSpec.for_model(model, spec.q_matrices(model.k, model.p))
    summary = pooled_summary(model, ls)

    lines = ["estimator,kind,label," + ",".join(f"v{j + 1}" for j in range(model.p))]
    pad = [""] * (model.p - 1)
    label_cells = [quote_cell(label) for label in labels]
    ran = 0
    for name in spec.estimators:
        try:
            est = ESTIMATORS[name](model, ls, summary, spec.hyper)
        except (PreconditionError, ReplicateError) as exc:
            print(f"skipped {name}: {exc}", file=sys.stderr)
            continue
        ran += 1
        name_cell = quote_cell(name)
        for label, row in zip(label_cells, est.mu_hat.tolist()):
            lines.append(f"{name_cell},estimate,{label}," + ",".join(map(number_cell, row)))
        for key in sorted(est.diagnostics):
            cells = [number_cell(est.diagnostics[key])] + pad
            lines.append(f"{name_cell},diagnostic,{key}," + ",".join(cells))
    if not ran:
        raise PreconditionError("no estimator could run on this input")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_PASS


def _cmd_check_conditions(args: argparse.Namespace) -> int:
    doc = {} if args.config is None else load_document(args.config)
    hyper = parse_hyper(doc.get("hyper"))
    p, k, n = dimensions_from_document(doc)

    out = []
    failed = False
    for label, report in (
        (
            f"mean-shrink prior (a={hyper.a:g}, c={hyper.c:g}, p={p}, k={k}, n={n})",
            check_hb1_conditions(hyper.a, hyper.c, p, k, n),
        ),
        (
            f"double-shrink prior (a={hyper.a:g}, b={hyper.b:g}, c={hyper.c:g}, p={p}, k={k}, n={n})",
            check_hb2_conditions(hyper.a, hyper.b, hyper.c, p, k, n),
        ),
    ):
        out.append(label)
        for key, value in report.margins.items():
            out.append(f"  {key}: {value:.6g}")
        out.append(f"  minimax: {'true' if report.minimax else 'false'}")
        if report.proper_prior is not None:
            out.append(f"  proper_prior: {'true' if report.proper_prior else 'false'}")
        failed = failed or not report.minimax
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_STATISTICAL if failed else EXIT_PASS


def _cmd_validate(args: argparse.Namespace) -> int:
    # cfg carries the count that runs, and the whole of it is checked before any draw.
    cfg = _experiment(args, replicates=VALIDATE_DRAWS)
    constants = cfg.validate()

    labelled = [(check.name, check) for check in validate_identities(cfg).checks]
    picks = sorted({0, len(cfg.mean_configs) // 2, len(cfg.mean_configs) - 1})
    points = [
        TrueParameters(mu=cfg.mean_configs[i].mu, sigma2=cfg.sigma2) for i in picks
    ]
    # EB's and EB*'s members are checked only where their kernels run.
    unchecked = {}
    for name, star in (("mean-shrink", False), ("double-shrink", True)):
        try:
            eb_member(constants, star)
        except PreconditionError as exc:
            unchecked[name] = str(exc)
    members = [m for m in uer_members(cfg.p, cfg.k, cfg.n) if m[0] not in unchecked]
    reports = validate_uer(cfg, [sf for _, sf in members], points)
    for (member_name, _), report in zip(members, reports):
        labelled += [
            (f"risk-estimate {member_name} @ {cfg.mean_configs[idx].name}", check)
            for idx, check in zip(picks, report.checks)
        ]

    lines = [
        f"{label}: |{check.mean_lhs:.6g} - {check.mean_rhs:.6g}| = "
        f"{abs(check.diff):.3g} vs 3 SE = {3.0 * check.se_diff:.3g}: "
        f"{'pass' if check.passed else 'FAIL'}"
        for label, check in labelled
    ]
    lines += [f"skipped risk-estimate {name}: {msg}" for name, msg in unchecked.items()]
    ok = all(check.passed for _, check in labelled)
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_PASS if ok else EXIT_STATISTICAL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="kshrink",
        description="Shrinkage estimation of several Gaussian mean vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, config=False, config_required=False,
            needs_input=False, output=None, runs=False, threads=False):
        cmd = sub.add_parser(name, help=help_text)
        if config:
            cmd.add_argument("--config", required=config_required,
                             help="YAML configuration file")
        if needs_input:
            cmd.add_argument("--input", required=True,
                             help="dataset CSV file (or directory for regression)")
        if output:
            cmd.add_argument("--output", help=output)
        if runs:
            cmd.add_argument("--seed", type=int, help="override the RNG seed")
            cmd.add_argument("--replicates", type=int, help="Monte Carlo replicates")
        if threads:
            cmd.add_argument("--threads", type=int, help="worker thread count")
        return cmd

    table_output = "also write the table as CSV here; the text table still goes to stdout"
    add("table1", "reproduce the benchmark PRIAL table", output=table_output, runs=True,
        threads=True)
    add("simulate", "run a configured experiment", config=True, config_required=True,
        output=table_output, runs=True, threads=True)
    add("estimate", "apply estimators to a dataset", config=True, config_required=True,
        needs_input=True, output="write CSV here instead of stdout")
    add("check-conditions", "report minimaxity margins", config=True)
    add("validate", "Monte Carlo self-checks", config=True, runs=True)
    return parser


_HANDLERS = {
    "table1": _cmd_run,
    "simulate": _cmd_run,
    "estimate": _cmd_estimate,
    "check-conditions": _cmd_check_conditions,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
