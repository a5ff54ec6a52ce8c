"""Spans around sdskit's public functions, recorded from outside the package.

The sdskit modules call one another through module attributes
(``sds.verify_sds``, ``catalog.load_default`` ...) and call functions of
their own module through its globals, so rebinding a public name on its
module routes every call, from the benchmark or from inside the package,
through a recording wrapper.  Nothing under ``src/`` is edited.

Spans are kept in memory; ``layer_metrics`` reduces the spans of one pass
to the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

# The public functions wrapped in each layer: those whose spans feed a
# per-layer metric in BENCHMARK.json.
LAYERS = {
    "catalog": ("load_default", "load_catalog"),
    "sds": ("difference_counts", "verify_sds"),
    "zmod": ("orbit_system",),
    "equivalence": ("canonical_form",),
    "hadamard": (
        "goethals_seidel",
        "is_hadamard",
        "is_skew_hadamard",
        "build_skew_hadamard",
        "write_matrix",
    ),
    "search": ("search_sds", "search_skew_gs"),
    "cli": ("main",),
}


def unit_of(metric):
    """The unit of a per-layer metric, from its name."""
    if metric.endswith(".calls") or metric == "search.found":
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "hadamard.row_pairs":
        return "computed_pairs"
    if metric == "hadamard.row_pairs_per_s":
        return "computed_pairs/s"
    if metric == "hadamard.write_matrix.bytes":
        return "bytes"
    if metric == "search.exhaustive.units_per_s":
        return "nodes/s"
    if metric == "search.local.units_per_s":
        return "evals/s"
    return "s"


def _note(name, args, result):
    """Facts about one call that the per-layer ratios need."""
    if name == "hadamard.is_hadamard":
        return {"n": args[0].n, "ok": bool(result)}
    if name == "sds.verify_sds":
        return {"ok": bool(result.ok)}
    if name == "equivalence.canonical_form":
        return {"v": args[0].v}
    if name == "hadamard.write_matrix":
        return {"bytes": os.path.getsize(args[1])}
    if name in ("search.search_sds", "search.search_skew_gs"):
        return {"found": len(result)}
    return None


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace: str
    start: float
    end: float = 0.0
    note: dict | None = None
    error: str | None = None

    def as_dict(self):
        return dict(self.__dict__)


@dataclass
class Tracer:
    """Records nested spans while installed; ``trace`` names the current item."""

    modules: dict
    spans: list = field(default_factory=list)
    trace: str = ""
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.trace, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.note = _note(name, args, result)
            return result

        return traced

    def install(self):
        for layer, names in LAYERS.items():
            mod = self.modules[layer]
            for fname in names:
                fn = getattr(mod, fname)
                self._saved.append((mod, fname, fn))
                setattr(mod, fname, self._wrap(f"{layer}.{fname}", fn))

    def uninstall(self):
        while self._saved:
            mod, fname, fn = self._saved.pop()
            setattr(mod, fname, fn)

    def span(self, name, fn):
        """Run fn() as a root span of the benchmark's own (not a layer)."""
        return self._wrap(name, fn)()


def self_times(spans):
    """Span id -> duration minus the time covered by its direct children."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child.get(s.id, 0.0) for s in spans}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans, search_targets):
    """Per-layer metrics of one pass.

    ``search_targets`` maps an item's trace id to (engine, budget) for the
    search workload, so throughput can be taken over targets that used
    their whole budget.  Metrics of a layer the pass never called are 0.
    """
    own = self_times(spans)
    calls, selfs, by_name = {}, {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        selfs[s.name] = selfs.get(s.name, 0.0) + own[s.id]
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in (
        "catalog.load_default",
        "sds.difference_counts",
        "zmod.orbit_system",
        "equivalence.canonical_form",
        "hadamard.is_hadamard",
        "cli.main",
    ):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "catalog.load_default",
        "catalog.load_catalog",
        "sds.difference_counts",
        "zmod.orbit_system",
        "equivalence.canonical_form",
        "hadamard.goethals_seidel",
        "hadamard.build_skew_hadamard",
        "hadamard.write_matrix",
        "hadamard.is_hadamard",
        "hadamard.is_skew_hadamard",
        "search.search_sds",
        "search.search_skew_gs",
        "cli.main",
    ):
        m[f"{name}.self_s"] = selfs.get(name, 0.0)

    verifies = named("sds.verify_sds")
    m["sds.verify_sds.calls"] = len(verifies)
    m["sds.verify_sds.reject_ratio"] = ratio(
        sum(1 for s in verifies if s.note and not s.note["ok"]), len(verifies)
    )

    forms = named("equivalence.canonical_form")
    for label, keep in (
        ("v239", lambda v: v == 239),
        ("v331", lambda v: v == 331),
        ("small", lambda v: v <= 131),
    ):
        m[f"equivalence.canonical_form.call_s.p50.{label}"] = _median(
            [s.end - s.start for s in forms if s.note and keep(s.note["v"])]
        )

    m["hadamard.write_matrix.bytes"] = sum(
        s.note["bytes"] for s in named("hadamard.write_matrix") if s.note
    )
    checks = named("hadamard.is_hadamard")
    accepted = [s for s in checks if s.note and s.note["ok"]]
    m["hadamard.is_hadamard.accept_ratio"] = ratio(len(accepted), len(checks))
    pairs = sum(s.note["n"] * (s.note["n"] - 1) // 2 for s in accepted)
    m["hadamard.row_pairs"] = pairs
    m["hadamard.row_pairs_per_s"] = ratio(pairs, sum(own[s.id] for s in accepted))

    searches = named("search.search_sds") + named("search.search_skew_gs")
    m["search.found"] = sum(s.note["found"] for s in searches if s.note)
    for engine in ("exhaustive", "local"):
        units = busy = 0.0
        for s in searches:
            target = search_targets.get(s.trace)
            if target and target[0] == engine and s.note and not s.note["found"]:
                units += target[1]
                busy += own[s.id]
        m[f"search.{engine}.units_per_s"] = ratio(units, busy)
    return m
