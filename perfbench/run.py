"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's commands are repeated for ``--seconds``
seconds with tracing off, a calibration kernel is timed between repeats,
and the end-to-end metrics are printed. With ``--trace 1`` the same
untraced loop is followed by one traced run that gives the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: correct, attempted, failed, metrics. The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when the program
could not be loaded. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_REPEATS = 3
SETUP_SAMPLES = 5
PROGRAM_IMPORT = "import kshrink, kshrink.cli"
CALIBRATION_IMPORT = ("import argparse, asyncio, csv, decimal, email.parser, http.client, "
                      "json, logging, unittest, xml.dom.minidom")
# Seconds of one CALIBRATION_IMPORT process on the quiet 2-core Xeon the
# benchmark was built on (measured 0.19-0.22 s). setup_s is given at that
# machine's speed; see README.md.
REFERENCE_CALIBRATION_S = 0.2
SPEEDUP_PAIRS = 2

ESTIMATOR_METRICS = ("JS1", "JS2", "PT", "PT_star", "EB", "EB_star", "HB1", "HB2")
# (span, metrics, workload the metrics come from when the traced workload
# does not reach the span). "run" stands for the run_experiment trio.
LAYERS = (
    ("numerics.hb2_shrink_ratios", ("calls", "s", "share", "ms_per_call"), "table1"),
    ("numerics.hb1_shrink_ratio", ("calls", "s"), "estimate"),
    ("numerics.f_quantile", ("calls", "s"), "estimate"),
    ("montecarlo.run_experiment", ("run",), "table1"),
    ("montecarlo.inverse_cdf", ("calls", "s"), "validate"),
    ("montecarlo.validate_uer", ("s",), "validate"),
    ("montecarlo.validate_identities", ("s",), "validate"),
    ("risk.uer", ("calls", "s"), "validate"),
    *((f"estimators.{name}", ("ms_per_call",), "estimate") for name in ESTIMATOR_METRICS),
    ("model.canonicalize_ksample", ("ms_per_call",), "estimate"),
    ("model.canonicalize_regression", ("ms_per_call",), "estimate"),
    ("model.loss_spec", ("ms_per_call",), "estimate"),
    ("model.pooled_summary", ("ms_per_call",), "estimate"),
    ("config.load_document", ("ms_per_call",), "estimate"),
    ("config.dataset_from_document", ("ms_per_call",), "estimate"),
    ("datasets.read_ksample_csv", ("ms_per_call",), "estimate"),
    ("datasets.read_regression_csv", ("ms_per_call",), "estimate"),
)
QUADRATURE_SOURCE = "table1"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(program seconds, calibration seconds) of fresh processes.

    The program process imports kshrink and kshrink.cli. The calibration
    process imports only standard-library modules (CALIBRATION_IMPORT), so
    it does the same kind of work, starting an interpreter and finding,
    reading and running modules, but never changes with the program. One
    calibration runs before the first import and one after each, and each
    import is paired with the mean of the two around it. One unmeasured
    import of each first fills the bytecode cache, which users pay once
    per install, not per invocation.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def timed(code: str, environ: dict) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=environ, cwd=ROOT, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    timed(PROGRAM_IMPORT, env)
    timed(CALIBRATION_IMPORT, os.environ)
    before = timed(CALIBRATION_IMPORT, os.environ)
    pairs = []
    for _ in range(samples):
        wall = timed(PROGRAM_IMPORT, env)
        after = timed(CALIBRATION_IMPORT, os.environ)
        pairs.append((wall, (before + after) / 2.0))
        before = after
    return pairs


def kernel_seconds() -> float:
    """Median of five runs of a fixed calibration kernel, in seconds.

    The kernel mixes the kinds of work kshrink does: Python-level loops,
    special functions on small arrays, and passes over an array larger than
    a core's L2. It belongs to the benchmark and never changes with the
    program, so it measures how fast the machine is at that moment. The
    median, not the fastest run, because the commands it scales run through
    the machine's typical slowdowns, not its quietest moment.
    """
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = np.linspace(0.1, 2.0, 165)
        acc = 0.0
        for i in range(100):
            y = x * (1.0 + 1e-6 * i)
            acc += float(np.sum(np.exp(0.5 * np.log(y) + np.log(betainc(1.5, 2.5, y / (1.0 + y))))))
        big = np.linspace(0.0, 1.0, 1 << 19)
        for _ in range(3):
            acc += float(np.sum(np.sqrt(big)))
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def repeat_for(workload, seconds: float, main, min_repeats: int) -> tuple[list, list[float]]:
    """Repeats of the workload and the kernel times measured around them.

    kernels[i] is taken just before repeat i and kernels[i + 1] just after.
    """
    reps, kernels = [], [kernel_seconds()]
    deadline = time.perf_counter() + seconds
    while len(reps) < min_repeats or time.perf_counter() < deadline:
        reps.append(workload.run_once(main))
        kernels.append(kernel_seconds())
    return reps, kernels


def command_costs(reps: list, kernels: list[float]) -> list[float]:
    """Each command's latency in kernel units (ku), median over repeats.

    Other tenants of a shared machine slow everything on it by up to a
    factor of two for tens of seconds at a time. A command's seconds over
    the kernel's seconds measured around it cancel that common slowdown
    and still move one for one with the program's own speed.
    """
    scales = [(a + b) / 2.0 for a, b in zip(kernels, kernels[1:])]
    return [statistics.median(t / k for t, k in zip(times, scales))
            for times in zip(*(r.latencies for r in reps))]


def end_to_end(reps: list, kernels: list[float],
               setup: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """The gated metrics. setup_s is the median of import seconds over
    calibration seconds, times REFERENCE_CALIBRATION_S: the import time at
    the reference machine's speed."""
    costs = command_costs(reps, kernels)
    return {
        "setup_s": (REFERENCE_CALIBRATION_S * statistics.median(w / c for w, c in setup), "s"),
        "replicates_per_ku": (reps[0].evaluations / sum(costs), "1/ku"),
        "latency_p50_ku": (statistics.median(costs), "ku"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock(reps: list, kernels: list[float]) -> dict[str, float]:
    """The same figures in plain seconds, machine noise included.

    Not gated; printed and stamped so the raw times stay visible. The p99
    is over every call of every repeat.
    """
    calls = [x for r in reps for x in r.latencies]
    p99 = statistics.quantiles(calls, n=100, method="inclusive")[98] if len(calls) > 1 else calls[0]
    return {
        "replicates_per_s": statistics.median(r.evaluations / r.wall for r in reps),
        "latency_p50_ms": 1000.0 * statistics.median(calls),
        "latency_p99_ms": 1000.0 * p99,
        "latency_calls": len(calls),
        "kernel_ms": 1000.0 * statistics.median(kernels),
    }


def traced_pass(workload, main):
    """Run the workload once under a fresh recorder; return (recorder, repeat)."""
    rec = Recorder()
    root = rec.wrap("cli.main", main)
    ids = itertools.count()

    def traced_main(argv):
        rec.run = f"{workload.name}-{workload.seed}-{next(ids)}"
        return root(argv)

    with rec:
        rep = workload.run_once(traced_main)
    return rec, rep


def _span_metrics(span: str, kinds, totals, wall: float) -> dict[str, tuple[float, str]]:
    calls, total, own = totals.get(span, (0, 0.0, 0.0))
    out = {}
    for kind in kinds:
        if kind == "calls":
            out[f"{span}.calls"] = (calls, "count")
        elif kind == "s":
            out[f"{span}.s"] = (own, "s")
        elif kind == "share":
            out[f"{span}.share"] = (own / wall, "ratio")
        elif kind == "ms_per_call":
            out[f"{span}.ms_per_call"] = (1000.0 * total / calls if calls else 0.0, "ms")
        elif kind == "run":
            out["montecarlo.run_experiment.s"] = (total, "s")
            out["montecarlo.self_s"] = (own, "s")
            out["montecarlo.self_share"] = (own / total if total else 0.0, "ratio")
    return out


def per_layer(name: str, passes: dict, run_pass) -> tuple[dict, dict]:
    """Per-layer metrics and the workload each group was measured on.

    A group comes from the traced workload's own run when that run reaches
    it, otherwise from one traced run of the group's main workload, so no
    metric is an unmeasured zero.
    """
    metrics: dict[str, tuple[float, str]] = {}
    sources: dict[str, str] = {}
    rec = passes[name][0]
    own = rec.totals()
    for span, kinds, main_workload in LAYERS:
        src = name if span in own else main_workload
        src_rec, src_rep = passes[src] if src in passes else run_pass(src)
        metrics.update(_span_metrics(span, kinds, src_rec.totals(), src_rep.wall))
        sources[span] = src
    src = name if rec.quadrature.calls else QUADRATURE_SOURCE
    q = (passes[src] if src in passes else run_pass(src))[0].quadrature
    sources["numerics.integrate_adaptive_1d"] = src
    metrics.update({
        "numerics.integrate_adaptive_1d.calls": (q.calls, "count"),
        "numerics.integrate_adaptive_1d.evals_per_call": (q.evals / q.calls if q.calls else 0.0, "evals/call"),
        "numerics.integrate_adaptive_1d.bisected_share": (q.bisected / q.calls if q.calls else 0.0, "ratio"),
        "numerics.integrate_adaptive_1d.unconverged": (q.unconverged, "count"),
        "numerics.integrate_adaptive_1d.max_error": (q.max_error, "abs"),
    })
    calls, _, cli_self = own.get("cli.main", (0, 0.0, 0.0))
    metrics["cli.self_ms_per_call"] = (1000.0 * cli_self / calls if calls else 0.0, "ms")
    return metrics, sources


def thread_speedup(workdir: Path, seed: int, size: int, main):
    """Untraced table1 wall at threads=1 over wall at threads=nproc.

    Returns (speedup, repeats). The two thread counts must write identical
    CSV bytes; the caller checks the digests.
    """
    from workloads import Table1

    workdir.mkdir(parents=True, exist_ok=True)
    one = Table1(workdir, seed, size, threads=1)
    many = Table1(workdir, seed, size, threads=nproc())
    reps_one, reps_many = [], []
    for _ in range(SPEEDUP_PAIRS):
        reps_one.append(one.run_once(main))
        reps_many.append(many.run_once(main))
    speedup = (statistics.median(r.wall for r in reps_one)
               / statistics.median(r.wall for r in reps_many))
    return speedup, reps_one + reps_many


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # never report an enclosing repository
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy
    import yaml

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "commit": _git_commit(),
    }


def trace_layers(workload, reps: list, kernels: list[float], workdir: Path, sizes: dict, main):
    """Trace one more run of `workload` and compare table1 across threads.

    Returns (per-layer metrics, stamp fields, repeats to check). The
    repeats are the traced run, whose output must match the untraced
    ones, then any runs of other workloads and the thread comparison.
    """
    import workloads

    before = kernel_seconds()
    passes = {workload.name: traced_pass(workload, main)}
    traced_scale = (before + kernel_seconds()) / 2.0
    others: list = []

    def run_pass(name: str):
        other = workloads.make(name, workdir / name, workload.seed, sizes[name])
        passes[name] = traced_pass(other, main)
        others.append(passes[name][1])
        return passes[name]

    metrics, sources = per_layer(workload.name, passes, run_pass)
    speedup, speed_reps = thread_speedup(workdir / "threads", workload.seed,
                                         sizes["speedup"], main)
    identical = (not any(r.failed for r in speed_reps)
                 and len({r.digest for r in speed_reps}) == 1)
    others += speed_reps
    others.append(workloads.Repeat(0.0, 0, [], "", 1, int(not identical), [] if identical else
                                   ["table1 CSV differs between threads=1 and threads=nproc"]))
    rec, traced = passes[workload.name]
    metrics["montecarlo.thread_speedup"] = (speedup, "ratio")
    untraced = statistics.median(r.wall / ((a + b) / 2.0)
                                 for r, a, b in zip(reps, kernels, kernels[1:]))
    metrics["trace.overhead_share"] = (traced.wall / traced_scale / untraced - 1.0, "ratio")
    metrics["trace.absent_targets"] = (len(rec.absent), "count")
    OUT.mkdir(exist_ok=True)
    files = []
    for name, (pass_rec, _) in passes.items():
        path = OUT / f"spans-{workload.name}-seed{workload.seed}-{name}.jsonl"
        pass_rec.write(path)
        files.append(str(path.relative_to(ROOT)))
    fields = {
        "per_layer_sources": sources,
        "absent_targets": rec.absent,
        "spans_files": files,
        "threads_compared": [1, nproc()],
        "thread_outputs_identical": identical,
    }
    return metrics, fields, [traced] + others


def tally(reps: list, others: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems). Every repeat in `reps` must write the
    same bytes as the first; a repeat that does not fails as a whole."""
    attempted = sum(r.attempted for r in reps + others)
    failed = sum(r.failed for r in reps + others)
    problems = [p for r in reps + others for p in r.problems]
    for r in reps[1:]:
        if r.digest != reps[0].digest and not r.failed:
            failed += r.attempted
            problems.append("output bytes differ between repeats of one invocation")
    return attempted, failed, problems


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: dict[str, int] | None = None) -> tuple[dict, dict]:
    """Measure one workload; return (result, stamp).

    result is the JSON object printed last; stamp holds the machine facts,
    sizes, digests and everything a reader needs to trust the numbers.
    """
    import kshrink.cli
    import workloads

    sizes = {**workloads.SIZES, "speedup": workloads.SPEEDUP_REPLICATES, **(sizes or {})}
    size = sizes[workload_name]
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    main = kshrink.cli.main
    try:
        workload = workloads.make(workload_name, workdir / workload_name, seed, size)
        reps, kernels = repeat_for(workload, seconds, main, MIN_REPEATS)
        stamp = {"workload": workload_name, "seed": seed, "seconds": seconds,
                 "trace": int(trace), "size": size, "repeats": len(reps),
                 "latency_samples": len(reps[0].latencies),
                 "wall_clock": wall_clock(reps, kernels),
                 **machine_facts()}
        if trace:
            metrics, fields, extra = trace_layers(workload, reps, kernels, workdir, sizes, main)
            stamp.update(fields)
            attempted, failed, problems = tally(reps + extra[:1], extra[1:])
        else:
            setup = measure_setup(SETUP_SAMPLES)
            metrics = end_to_end(reps, kernels, setup)
            stamp["wall_clock"]["setup_s"] = statistics.median(w for w, _ in setup)
            stamp["wall_clock"]["calibration_s"] = statistics.median(c for _, c in setup)
            attempted, failed, problems = tally(reps, [])
        stamp.update({
            "output_sha256": reps[0].digest,
            "workload_facts": workload.facts,
            "error_rate": failed / attempted,
            "problems": problems[:20],
        })
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return result, stamp
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "estimate", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kshrink").is_dir():
        print(f"error: no kshrink package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, stamp = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    wall = stamp["wall_clock"]
    for name, unit in (("replicates_per_s", "1/s"), ("latency_p50_ms", "ms"),
                       ("latency_p99_ms", "ms")):
        print(f"{name:48s} {wall[name]:>14.6g} {unit} "
              f"(wall clock over {wall['latency_calls']} calls, not gated)")
    if "setup_s" in wall:
        print(f"{'setup_s':48s} {wall['setup_s']:>14.6g} s (wall clock, not gated)")
    print(f"{'kernel_ms':48s} {wall['kernel_ms']:>14.6g} ms (1 ku, median of the run)")
    print(f"{'error_rate':48s} {stamp['error_rate']:>14.6g} ratio "
          f"({result['failed']}/{result['attempted']} operations)")
    for problem in stamp["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
