"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs and passes its correctness checks, that
the metrics printed are exactly those BENCHMARK.json names, with valid
names and units, and that a wrap target missing from the program is
reported as absent instead of breaking the traced run.
"""

import json
import math
import re
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"table1": 16, "estimate": 6, "validate": 2000, "speedup": 16}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "SPEEDUP_PAIRS", 1)


def declared(kind: str) -> list[str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[kind]]


def check_metrics(result: dict, names: list[str]) -> None:
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert UNIT.match(metric["unit"]), (name, metric["unit"])
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_runs(name):
    result, stamp = run.run(name, seed=3, seconds=0, trace=False, sizes=TINY)
    check_metrics(result, declared("end_to_end"))
    assert stamp["repeats"] == run.MIN_REPEATS
    calls = run.MIN_REPEATS * (TINY[name] if name == "estimate" else 1)
    assert stamp["wall_clock"]["latency_calls"] == calls
    assert stamp["output_sha256"]
    for fact in ("nproc", "cpu_model", "python", "numpy", "scipy", "commit"):
        assert stamp[fact]


def test_traced_run_reports_every_layer_and_absent_targets(monkeypatch):
    gone = ("numerics.removed_layer", "kshrink.numerics", "removed_layer")
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (gone,))
    result, stamp = run.run("validate", seed=3, seconds=0, trace=True, sizes=TINY)
    check_metrics(result, declared("per_layer"))
    metrics = result["metrics"]
    assert metrics["trace.absent_targets"]["value"] == 1
    assert stamp["absent_targets"] == ["kshrink.numerics.removed_layer (numerics.removed_layer)"]
    assert stamp["thread_outputs_identical"]
    assert metrics["risk.uer.calls"]["value"] == 9
    assert stamp["per_layer_sources"]["numerics.hb2_shrink_ratios"] == "table1"


def test_recorder_restores_targets_and_skips_missing_ones(monkeypatch):
    import kshrink.montecarlo as mc
    from kshrink.estimators import ESTIMATORS
    from kshrink.model import LossSpec

    before = (mc.hb2_shrink_ratios, ESTIMATORS["HB2"], LossSpec.__dict__["inverse_v"])
    gone = ("x.gone", "kshrink.no_such_module", "f")
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (gone,))
    with spans.Recorder() as rec:
        assert mc.hb2_shrink_ratios is not before[0]
    assert rec.absent == ["kshrink.no_such_module.f (x.gone)"]
    assert (mc.hb2_shrink_ratios, ESTIMATORS["HB2"], LossSpec.__dict__["inverse_v"]) == before
    assert rec.totals() == {}


def test_rejected_arguments_count_as_a_failed_command():
    import kshrink.cli

    rc, _, err, _ = workloads.call_cli(kshrink.cli.main, ["table1", "--no-such-flag"])
    assert rc == 2
    assert "--no-such-flag" in err
