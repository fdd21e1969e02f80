"""Spans around unichain's layer boundaries, recorded from the benchmark.

No file of the program changes: ``install`` replaces functions where their
callers look them up at call time (module attributes, the ``_CONDITIONS``
dispatch table, ``OpTable.__init__``) with wrappers that record a span.
Functions imported by name into another module are replaced in that module
too, because ``from x import f`` binds early.

A span is (name, start, end, parent); all spans of one traced pass share
``trace_id``.  They are kept in flat arrays while the pass runs and written
out once at the end.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter_ns


class Tracer:
    """Span recorder; records only while ``active`` (the timed sections)."""

    def __init__(self):
        self.names: list[str] = []
        self.active = False
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counts, and start a new trace id."""
        self.trace_id = os.urandom(8).hex()
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span named ``name``; ``after(result)`` may count."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_enumeration(self, name: str, fn, stats_type):
        """Span over a whole enumeration generator, plus its node counts.

        Every caller drains the generator at once (``list``/``tuple``), so
        the span covers the search and the tables it builds, nothing else.
        """
        name_id = self._name_id(name)

        def traced(task, *, stats=None, **kwargs):
            if not self.active:
                yield from fn(task, stats=stats, **kwargs)
                return
            stats = stats_type() if stats is None else stats
            nodes, emitted = stats.nodes_expanded, stats.emitted
            i = self._open(name_id)
            try:
                yield from fn(task, stats=stats, **kwargs)
            finally:
                self._close(i)
            self.counters["search.nodes_expanded"] += stats.nodes_expanded - nodes
            self.counters["search.tables"] += stats.emitted - emitted

        return traced

    def arrays(self):
        """The spans as numpy arrays; times in ns from the first span's start."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.int64)
        origin = start.min() if len(start) else 0
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start_ns": start - origin,
            "end_ns": np.frombuffer(self.end, dtype=np.int64) - origin,
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def save(self, path, workload: str, seed: int) -> None:
        import numpy as np

        np.savez_compressed(path, trace_id=self.trace_id, names=np.array(self.names),
                            workload=workload, seed=seed, **self.arrays())


def install(tracer: Tracer) -> None:
    """Route unichain's layer boundaries through ``tracer``."""
    from unichain import cli, core, distributivity as dist, formats, search

    wrap = tracer.wrap

    def count_distributive(result):
        tracer.counters["distributivity.distributive"] += result.exhaustive.verdict

    def count_bytes(text):
        tracer.counters["formats.json_bytes"] += len(text.encode())

    cli.main = wrap("cli.main", cli.main)
    search.enumerate_uninorms = cli.enumerate_uninorms = tracer.wrap_enumeration(
        "search.enumerate_uninorms", search.enumerate_uninorms, search.SearchStats)
    cli.certify = wrap("search.certify", search.certify)
    cli.scan_pairs = wrap("search.scan_pairs", search.scan_pairs)

    search.classify_and_check = dist.classify_and_check = wrap(
        "distributivity.classify_and_check", dist.classify_and_check, count_distributive)
    for case, fn in list(dist._CONDITIONS.items()):
        traced = wrap(f"distributivity.conditions_{case.value.split('-')[0]}", fn)
        dist._CONDITIONS[case] = traced
        setattr(dist, fn.__name__, traced)  # compose calls the case functions by name
    dist.check_distributivity = wrap("distributivity.check_distributivity", dist.check_distributivity)
    search.necessity_conditions = wrap("distributivity.necessity_conditions", dist.necessity_conditions)
    search.decompose = wrap("distributivity.decompose", dist.decompose)
    dist.compose = wrap("distributivity.compose", dist.compose)

    dist.validate_uninorm = wrap("core.validate_uninorm", core.validate_uninorm)
    dist.underlying_tnorm = wrap("core.underlying_tnorm", core.underlying_tnorm)
    dist.underlying_tconorm = wrap("core.underlying_tconorm", core.underlying_tconorm)
    core.OpTable.__init__ = wrap("core.OpTable", core.OpTable.__init__)

    formats.to_json = wrap("formats.to_json", formats.to_json, count_bytes)
    for name in ("dump_decomposition", "parse_decomposition", "dump_table", "table_doc",
                 "report_doc", "decomposition_doc", "certification_doc", "render_certification"):
        setattr(formats, name, wrap(f"formats.{name}", getattr(formats, name)))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, from its spans and counters."""
    import numpy as np

    spans = tracer.arrays()
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end_ns"] - spans["start_ns"]) / 1e9
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - covered
    is_formats = np.array([n.startswith("formats.") for n in tracer.names] or [False])
    under_formats = np.zeros(len(name), dtype=bool)
    under_formats[has_parent] = is_formats[name[parent[has_parent]]]

    def pick(*names):
        ids = [tracer.names.index(n) for n in names if n in tracer.names]
        return np.isin(name, ids)

    def total(*names):
        return float(dur[pick(*names)].sum())

    def self_s(*names):
        return float(self_time[pick(*names)].sum())

    def calls(*names):
        return int(pick(*names).sum())

    def outermost_formats(*names):
        # formats functions call each other; count each piece of work once
        return float(dur[pick(*names) & ~under_formats].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    enumerate_s = self_s("search.enumerate_uninorms")
    exhaustive = "distributivity.check_distributivity"
    classify = "distributivity.classify_and_check"
    conditions = {case: f"distributivity.conditions_{case}" for case in ("equal", "greater", "less")}
    decomposition_text = ("formats.dump_decomposition", "formats.parse_decomposition")
    render = ("formats.dump_table", "formats.table_doc", "formats.report_doc",
              "formats.decomposition_doc", "formats.certification_doc", "formats.render_certification")
    metrics = {
        "search.enumerate_s": enumerate_s,
        "search.nodes_expanded": c["search.nodes_expanded"],
        "search.nodes_per_s": ratio(c["search.nodes_expanded"], enumerate_s),
        "search.yield": ratio(c["search.tables"], c["search.nodes_expanded"]),
        "search.pair_loop_self_s": self_s("search.certify", "search.scan_pairs"),
        "distributivity.exhaustive_s": total(exhaustive),
        "distributivity.exhaustive_calls": calls(exhaustive),
        "distributivity.exhaustive_us_per_call": ratio(total(exhaustive) * 1e6, calls(exhaustive)),
    }
    for case, span in conditions.items():
        metrics[f"distributivity.conditions_{case}_s"] = self_s(span)
        metrics[f"distributivity.conditions_{case}_calls"] = calls(span)
    metrics.update({
        "distributivity.classify_self_s": self_s(classify),
        "distributivity.distributive_frac": ratio(c["distributivity.distributive"], calls(classify)),
        "distributivity.necessity_s": total("distributivity.necessity_conditions"),
        "distributivity.decompose_s": total("distributivity.decompose"),
        "distributivity.compose_s": total("distributivity.compose"),
        "distributivity.compose_calls": calls("distributivity.compose"),
        "distributivity.roundtrip_identical": c["distributivity.roundtrip_identical"],
        "core.validate_uninorm_s": total("core.validate_uninorm"),
        "core.validate_uninorm_calls": calls("core.validate_uninorm"),
        "core.underlying_s": total("core.underlying_tnorm", "core.underlying_tconorm"),
        "core.optable_s": total("core.OpTable"),
        "core.optable_calls": calls("core.OpTable"),
        "formats.to_json_s": outermost_formats("formats.to_json"),
        "formats.json_bytes": c["formats.json_bytes"],
        "formats.decomposition_text_s": outermost_formats(*decomposition_text),
        "formats.render_s": outermost_formats(*render),
        "cli.main_self_s": self_s("cli.main"),
        "trace.spans": len(name),
    })
    return metrics
