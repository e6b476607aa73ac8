"""Outside-in probes on ekrlab's public names.

A probe replaces a name with a wrapper that calls the original.  It is
installed in every ekrlab module that binds the same object under that
name, so calls the library makes between its own modules pass through
it too.  No library source changes, and uninstall() puts every original
back.

Two kinds of probe exist:

- solver counters, installed in every pass, keep the SolveResult of
  each outermost public solver call (its `nodes` feeds `search_nodes`);
- layer spans, installed only in traced passes, record start, end and
  parent span for the layer labels in LAYERS.

A target that no longer exists is recorded in `absent` instead of
raising, so a refactor shows up as a missing layer, not a crash.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SOLVERS = (
    "max_s_intersecting",
    "enumerate_maximum_s_intersecting",
    "max_nonstar_s_intersecting",
    "min_transversal",
    "max_triangular_intersecting",
    "max_intersecting_sperner",
)

# label -> targets, each "module.name" or "module.Class.method" under ekrlab
LAYERS = {
    "graphs.build": ("graphs.make_cycle", "graphs.make_sun", "graphs.make_theta",
                     "graphs.make_random_tree"),
    "paths.enum": ("paths.enumerate_paths_r", "paths.enumerate_paths_upto",
                   "paths.enumerate_paths_all", "paths.to_setfamily"),
    "families.star": ("families.best_full_star",),
    "solvers.compat": ("solvers.CompatibilityGraph.build",),
    # the two phases of the clique core; their node counts are read from
    # the search's budget, so they are internal names, not public ones
    "solvers.max": ("solvers._CliqueSearch.maximum",),
    "solvers.enum": ("solvers._CliqueSearch.enumerate_exact",),
    "solvers.nonstar": ("solvers.max_nonstar_s_intersecting",),
    "solvers.transversal": ("solvers.min_transversal",),
    "solvers.triangular": ("solvers.max_triangular_intersecting",),
    "solvers.sperner": ("solvers.max_intersecting_sperner",),
    "solvers.helly": ("solvers.helly_triple_check",),
    "oracles": ("oracles.sun_bound", "oracles.hm_cycle_size", "oracles.theta_f",
                "oracles.theta_interior_star_size", "oracles.sun_allpaths_counts",
                "oracles.build_sun_star_family", "oracles.build_cycle_hm_family",
                "oracles.build_sun_hm_family"),
    "verdicts.classify": ("verdicts.matches_hm_structure",),
    "verdicts.check": ("verdicts.check_ekr", "verdicts.check_hm"),
    "campaign.run": ("campaign.run_campaign",),
    "campaign.emit": ("campaign.emit_report",),
    "projective.build": ("projective.make_field", "projective.build_pg"),
    "projective.construction": ("projective.triangular_odd", "projective.triangular_char2",
                                "projective.rotational_family"),
}

PHASES = ("solvers.max", "solvers.enum")


def _size(label: str, res) -> int | None:
    """The work count a span reports besides its time, if any."""
    if label == "paths.enum":
        return len(res.paths) if hasattr(res, "paths") else None
    if label == "solvers.compat":
        return res.m * (res.m - 1) // 2
    if label == "campaign.emit":
        return len(res.encode())
    return None


class Probes:
    def __init__(self) -> None:
        self.results: list[tuple[str, object]] = []
        # span: [label, target, start, end, parent index, item, nodes, size]
        self.spans: list[list] = []
        self.item = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._solver_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.results.clear()
        self.spans.clear()
        self._stack.clear()
        self.item = -1

    def install(self, traced: bool) -> None:
        self.absent = []
        for name in SOLVERS:
            self._patch("solvers." + name, lambda fn, name=name: self._counted(name, fn))
        if traced:
            for label, targets in LAYERS.items():
                for target in targets:
                    self._patch(target, lambda fn, label=label, target=target:
                                self._spanned(label, target, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, target: str, make) -> None:
        modname, *attrs = target.split(".")
        module = sys.modules.get("ekrlab." + modname)
        if module is None:
            self.absent.append(target)
            return
        if len(attrs) == 2:
            cls = getattr(module, attrs[0], None)
            raw = getattr(cls, "__dict__", {}).get(attrs[1])
            if isinstance(raw, classmethod):
                self._set(cls, attrs[1], classmethod(make(raw.__func__)))
            elif callable(raw):
                self._set(cls, attrs[1], make(raw))
            else:
                self.absent.append(target)
            return
        original = getattr(module, attrs[0], None)
        if original is None:
            self.absent.append(target)
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "ekrlab" or name.startswith("ekrlab.")) \
                    and getattr(mod, attrs[0], None) is original:
                self._set(mod, attrs[0], wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._solver_depth += 1
            try:
                res = fn(*args, **kwargs)
            finally:
                self._solver_depth -= 1
            if self._solver_depth == 0:
                self.results.append((name, res))
            return res
        return counted

    def _spanned(self, label: str, target: str, fn):
        phase = label in PHASES

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [label, target, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self.item, None, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            budget = getattr(args[0], "budget", None) if phase else None
            before = getattr(budget, "used", None)
            rec[2] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
            if before is not None:
                rec[6] = budget.used - before
            rec[7] = _size(label, res)
            return res
        return spanned


def _child_seconds(spans: list[list]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            child[rec[4]] += rec[3] - rec[2]
    return child


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per label: inclusive ms and calls over the outermost spans of that
    label, self ms (duration minus direct children) over all of them,
    and the summed nodes and sizes."""
    child = _child_seconds(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"ms": 0.0, "calls": 0, "self_ms": 0.0, "nodes": 0, "size": 0})
    for i, rec in enumerate(spans):
        label, dur = rec[0], rec[3] - rec[2]
        tot = out[label]
        tot["self_ms"] += (dur - child[i]) * 1000.0
        parent = rec[4]
        while parent >= 0 and spans[parent][0] != label:
            parent = spans[parent][4]
        if parent < 0:
            tot["ms"] += dur * 1000.0
            tot["calls"] += 1
            tot["nodes"] += rec[6] or 0
            tot["size"] += rec[7] or 0
    return out


def dump_spans(spans: list[list]) -> list[dict]:
    """Spans as JSON records, times in ms from the first span's start."""
    origin = spans[0][2] if spans else 0.0
    child = _child_seconds(spans)
    return [{"id": i, "parent": rec[4], "item": rec[5], "layer": rec[0], "name": rec[1],
             "start_ms": round((rec[2] - origin) * 1000.0, 4),
             "dur_ms": round((rec[3] - rec[2]) * 1000.0, 4),
             "self_ms": round((rec[3] - rec[2] - child[i]) * 1000.0, 4),
             "nodes": rec[6], "size": rec[7]}
            for i, rec in enumerate(spans)]
