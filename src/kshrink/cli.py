"""Command-line front end.

Subcommands::

    kshrink table1            reproduce the standard benchmark table
    kshrink simulate          run a configured risk experiment
    kshrink estimate          apply estimators to a CSV dataset
    kshrink check-conditions  report the minimaxity margins
    kshrink validate          Monte Carlo self-checks (identities, risk)

Exit codes: 0 success, 1 a statistical check failed, 2 bad input
(config, dataset, arguments), 3 an estimator precondition failed.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import replace

from .config import (
    ConfigError,
    _get_int,
    dataset_from_document,
    experiment_from_document,
    load_document,
    parse_hyper,
)
from .datasets import ParseError, read_ksample_csv, read_regression_csv
from .estimators import ESTIMATORS, PreconditionError
from .model import (
    LossSpec,
    TrueParameters,
    canonicalize_ksample,
    canonicalize_regression,
    pooled_summary,
)
from .montecarlo import (
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


def _benchmark_config(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {}
    if getattr(args, "replicates", None) is not None:
        kwargs["replicates"] = args.replicates
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        kwargs["threads"] = args.threads
    return ExperimentConfig.benchmark(**kwargs)


def _cmd_table1(args: argparse.Namespace) -> int:
    cfg = _benchmark_config(args)
    table = run_experiment(cfg)
    sys.stdout.write(table.to_text())
    if args.output is not None:
        _write_text(args.output, table.to_csv())
    return EXIT_PASS


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = load_document(args.config)
    cfg = experiment_from_document(
        doc, seed=args.seed, threads=args.threads, replicates=args.replicates
    )
    table = run_experiment(cfg)
    sys.stdout.write(table.to_text())
    if args.output is not None:
        _write_text(args.output, table.to_csv())
    return EXIT_PASS


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{float(value):.17g}"


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
    q = spec.q_matrices(model.k, model.p)
    ls = LossSpec.inverse_v(model) if q is None else LossSpec.for_model(model, q)
    summary = pooled_summary(model, ls)

    lines = ["estimator,kind,label," + ",".join(f"v{j + 1}" for j in range(model.p))]
    pad = [""] * (model.p - 1)
    for name in spec.estimators:
        est = ESTIMATORS[name](model, ls, summary, spec.hyper)
        for label, row in zip(labels, est.mu_hat):
            lines.append(f"{name},estimate,{label}," + ",".join(_format_cell(v) for v in row))
        for key in sorted(est.diagnostics):
            cells = [_format_cell(est.diagnostics[key])] + pad
            lines.append(f"{name},diagnostic,{key}," + ",".join(cells))
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_PASS


def _cmd_check_conditions(args: argparse.Namespace) -> int:
    p, k, n = 5, 5, 20
    hyper = parse_hyper(None)
    if args.config is not None:
        doc = load_document(args.config)
        hyper = parse_hyper(doc.get("hyper"))
        exp = doc.get("experiment")
        if exp is not None:
            if not isinstance(exp, dict):
                raise ConfigError("experiment must be a mapping")
            p = _get_int(exp, "p", "experiment", p)
            k = _get_int(exp, "k", "experiment", k)
            n = _get_int(exp, "n", "experiment", n)
    ExperimentConfig.check_dimensions(p, k, n)

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
    # The count is --replicates, else the file's experiment.replicates, else
    # 100,000; cfg carries it, so cfg's guards check the count that runs.
    from_file = False
    if args.config is not None:
        doc = load_document(args.config)
        cfg = experiment_from_document(doc, seed=args.seed, replicates=args.replicates)
        from_file = "replicates" in doc["experiment"]
    else:
        cfg = _benchmark_config(args)
    if args.replicates is None and not from_file:
        cfg = replace(cfg, replicates=100_000)

    idv = validate_identities(
        p=cfg.p, n=cfg.n, sigma2=cfg.sigma2, draws=cfg.replicates, seed=cfg.seed
    )
    labelled = [(check.name, check) for check in idv.checks]
    picks = sorted({0, len(cfg.mean_configs) // 2, len(cfg.mean_configs) - 1})
    points = [
        TrueParameters(mu=cfg.mean_configs[i].mu, sigma2=cfg.sigma2) for i in picks
    ]
    members = uer_members(cfg.p, cfg.k, cfg.n)
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
    ok = all(check.passed for _, check in labelled)
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_PASS if ok else EXIT_STATISTICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kshrink",
        description="Shrinkage estimation of several Gaussian mean vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, config=False, config_required=False,
            needs_input=False, output=False, runs=False, threads=False):
        cmd = sub.add_parser(name, help=help_text)
        if config:
            cmd.add_argument("--config", required=config_required,
                             help="YAML configuration file")
        if needs_input:
            cmd.add_argument("--input", required=True,
                             help="dataset CSV file (or directory for regression)")
        if output:
            cmd.add_argument("--output", help="write CSV here instead of stdout")
        if runs:
            cmd.add_argument("--seed", type=int, help="override the RNG seed")
            cmd.add_argument("--replicates", type=int, help="Monte Carlo replicates")
        if threads:
            cmd.add_argument("--threads", type=int, help="worker thread count")
        return cmd

    add("table1", "reproduce the benchmark PRIAL table", output=True, runs=True, threads=True)
    add("simulate", "run a configured experiment", config=True, config_required=True,
        output=True, runs=True, threads=True)
    add("estimate", "apply estimators to a dataset", config=True, config_required=True,
        needs_input=True, output=True)
    add("check-conditions", "report minimaxity margins", config=True)
    add("validate", "Monte Carlo self-checks", config=True, runs=True)
    return parser


_HANDLERS = {
    "table1": _cmd_table1,
    "simulate": _cmd_simulate,
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
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
