"""In-memory spans around calls into kshrink's layers, recorded from outside.

The benchmark never edits the package: it replaces a layer's public
function at the module attribute its caller looks it up through (for
example both ``kshrink.montecarlo.hb2_shrink_ratios`` and
``kshrink.estimators.hb2_shrink_ratios``), records a span per call, and
puts the original back afterwards. A target that no longer exists is
reported as absent with zero calls, so a refactor that removes one does
not break the traced run.

Spans are kept in memory and written out once, when the run ends. The
recorder assumes one calling thread, which holds for traced runs: they use
``threads=1``.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass

# (span name, module, attribute path). A path is a module attribute
# ("name"), a class attribute ("Class.name") or a dict entry ("DICT[key]").
SPAN_TARGETS = (
    ("numerics.hb2_shrink_ratios", "kshrink.numerics", "hb2_shrink_ratios"),
    ("numerics.hb2_shrink_ratios", "kshrink.montecarlo", "hb2_shrink_ratios"),
    ("numerics.hb2_shrink_ratios", "kshrink.estimators", "hb2_shrink_ratios"),
    ("numerics.hb1_shrink_ratio", "kshrink.numerics", "hb1_shrink_ratio"),
    ("numerics.hb1_shrink_ratio", "kshrink.montecarlo", "hb1_shrink_ratio"),
    ("numerics.hb1_shrink_ratio", "kshrink.estimators", "hb1_shrink_ratio"),
    ("numerics.f_quantile", "kshrink.numerics", "f_quantile"),
    ("numerics.f_quantile", "kshrink.montecarlo", "f_quantile"),
    ("numerics.f_quantile", "kshrink.estimators", "f_quantile"),
    ("montecarlo.run_experiment", "kshrink.montecarlo", "run_experiment"),
    ("montecarlo.run_experiment", "kshrink.cli", "run_experiment"),
    ("montecarlo.inverse_cdf", "kshrink.montecarlo", "ndtri"),
    ("montecarlo.inverse_cdf", "kshrink.montecarlo", "gammaincinv"),
    ("montecarlo.validate_uer", "kshrink.montecarlo", "validate_uer"),
    ("montecarlo.validate_uer", "kshrink.cli", "validate_uer"),
    ("montecarlo.validate_identities", "kshrink.montecarlo", "validate_identities"),
    ("montecarlo.validate_identities", "kshrink.cli", "validate_identities"),
    ("risk.uer", "kshrink.risk", "uer"),
    ("risk.uer", "kshrink.montecarlo", "uer"),
    ("estimators.JS1", "kshrink.estimators", "ESTIMATORS[JS1]"),
    ("estimators.JS2", "kshrink.estimators", "ESTIMATORS[JS2]"),
    ("estimators.PT", "kshrink.estimators", "ESTIMATORS[PT]"),
    ("estimators.PT_star", "kshrink.estimators", "ESTIMATORS[PT*]"),
    ("estimators.EB", "kshrink.estimators", "ESTIMATORS[EB]"),
    ("estimators.EB_star", "kshrink.estimators", "ESTIMATORS[EB*]"),
    ("estimators.HB1", "kshrink.estimators", "ESTIMATORS[HB1]"),
    ("estimators.HB2", "kshrink.estimators", "ESTIMATORS[HB2]"),
    ("model.canonicalize_ksample", "kshrink.model", "canonicalize_ksample"),
    ("model.canonicalize_ksample", "kshrink.cli", "canonicalize_ksample"),
    ("model.canonicalize_regression", "kshrink.model", "canonicalize_regression"),
    ("model.canonicalize_regression", "kshrink.cli", "canonicalize_regression"),
    ("model.loss_spec", "kshrink.model", "LossSpec.inverse_v"),
    ("model.loss_spec", "kshrink.model", "LossSpec.for_model"),
    ("model.pooled_summary", "kshrink.model", "pooled_summary"),
    ("model.pooled_summary", "kshrink.cli", "pooled_summary"),
    ("model.pooled_summary", "kshrink.estimators", "pooled_summary"),
    ("config.load_document", "kshrink.config", "load_document"),
    ("config.load_document", "kshrink.cli", "load_document"),
    ("config.dataset_from_document", "kshrink.config", "dataset_from_document"),
    ("config.dataset_from_document", "kshrink.cli", "dataset_from_document"),
    ("datasets.read_ksample_csv", "kshrink.datasets", "read_ksample_csv"),
    ("datasets.read_ksample_csv", "kshrink.cli", "read_ksample_csv"),
    ("datasets.read_regression_csv", "kshrink.datasets", "read_regression_csv"),
    ("datasets.read_regression_csv", "kshrink.cli", "read_regression_csv"),
)

# Quadrature is counted, not timed: it runs inside the HB2 span, and the
# counters come from the QuadratureResult each call returns.
QUADRATURE_TARGET = ("numerics.integrate_adaptive_1d", "kshrink.numerics", "integrate_adaptive_1d")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


@dataclass
class Quadrature:
    calls: int = 0
    evals: int = 0
    bisected: int = 0
    unconverged: int = 0
    max_error: float = 0.0


class _Slot:
    """Get and set one wrap target, whatever kind of attribute it is."""

    def __init__(self, module: str, path: str):
        obj = importlib.import_module(module)
        if "[" in path:
            name, key = path[:-1].split("[", 1)
            self.container, self.key = getattr(obj, name), key
            self.current = self.container[key]
            self.kind = "item"
        elif "." in path:
            cls_name, name = path.split(".", 1)
            self.container, self.key = getattr(obj, cls_name), name
            self.raw = self.container.__dict__[name]
            self.current = getattr(self.container, name)
            self.kind = "class"
        else:
            self.container, self.key = obj, path
            self.current = getattr(obj, path)
            self.kind = "module"

    def set(self, value) -> None:
        if self.kind == "item":
            self.container[self.key] = value
        elif self.kind == "class":
            setattr(self.container, self.key, staticmethod(value))
        else:
            setattr(self.container, self.key, value)

    def restore(self) -> None:
        if self.kind == "item":
            self.container[self.key] = self.current
        elif self.kind == "class":
            setattr(self.container, self.key, self.raw)
        else:
            setattr(self.container, self.key, self.current)


class Recorder:
    """Spans and quadrature counters of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.quadrature = Quadrature()
        self.absent: list[str] = []
        self.run = ""
        self._stack: list[int] = []
        self._slots: list[_Slot] = []

    def wrap(self, name: str, fn):
        """fn with a span per call. A call made inside a span of the same
        name (one wrapper reaching another) is not recorded twice."""

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].name == name:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def _count_quadrature(self, fn):
        q = self.quadrature

        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            q.calls += 1
            q.evals += res.evals
            # Without bisection every panel was evaluated exactly once.
            q.bisected += res.evals > 15 * res.panels
            q.unconverged += not res.converged
            q.max_error = max(q.max_error, float(res.error))
            return res

        return counted

    def _install(self, label: str, module: str, path: str, make) -> None:
        try:
            slot = _Slot(module, path)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module}.{path} ({label})")
            return
        slot.set(make(slot.current))
        self._slots.append(slot)

    def __enter__(self) -> "Recorder":
        for name, module, path in SPAN_TARGETS:
            self._install(name, module, path, lambda fn, name=name: self.wrap(name, fn))
        label, module, path = QUADRATURE_TARGET
        self._install(label, module, path, self._count_quadrature)
        return self

    def __exit__(self, *exc) -> None:
        for slot in reversed(self._slots):
            slot.restore()
        self._slots.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus that of its direct children.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, tuple[int, float, float]] = {}
        for span, inner in zip(self.spans, child):
            calls, total, own = out.get(span.name, (0, 0.0, 0.0))
            dur = span.end - span.start
            out[span.name] = (calls + 1, total + dur, own + dur - inner)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run,
                }) + "\n")
