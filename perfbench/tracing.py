"""Per-layer tracing of ``max_rfc`` from outside the program.

``Tracer.installed()`` replaces the public functions of each layer, by
module attribute, with wrappers that record a span (name, start, end,
parent) and a few counts; nothing under ``src/`` changes. A function is
replaced in every ``repro`` module that bound it by name, so
``from repro.core.branch import branch_search`` call sites are traced too.

Spans that launch Spark jobs run under their own job group
(``SparkContext.setJobGroup``); ``spark_counts`` reads jobs, stages and
tasks per group from ``statusTracker()`` once the query is over.

Each Spark reduction round is counted by wrapping ``edge_color_stats`` /
``vertex_color_stats``. To know how many edges a round examined, the
wrapper counts the round's input edges in a ``trace.probe`` span; probe
time and jobs are excluded from every layer metric and reported on
their own.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PROBE = "trace.probe"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    group: str | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans kept in memory for the whole run; written out at the end."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str, *, spark: bool = False, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(sp)
        if spark:
            sp.group = f"perfbench-span-{sp.id}"
            self.sc.setJobGroup(sp.group, name)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if spark:
                outer = next((s for s in reversed(self._stack) if s.group), None)
                if outer is None:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
                else:
                    self.sc.setJobGroup(outer.group, outer.name)

    def _open(self, prefix: str) -> Span | None:
        return next((s for s in reversed(self._stack) if s.name.startswith(prefix)), None)

    # -- wrappers ----------------------------------------------------------
    def _timed(self, name: str, *, spark: bool = False, after=None):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                with self.span(name, spark=spark) as sp:
                    out = fn(*args, **kwargs)
                    if after is not None:
                        after(sp, out, args, kwargs)
                    return out
            return wrapper
        return wrap

    def _sup_stage(self, fn):
        def wrapper(*args, **kwargs):
            name = "reduction.ensup" if kwargs.get("enhanced") else "reduction.sup"
            with self.span(name, spark=True):
                return fn(*args, **kwargs)
        return wrapper

    def _local_stage(self, fn):
        def wrapper(lg, stage, k, *args, **kwargs):
            with self.span(f"reduction.{stage}", route="driver") as sp:
                out = fn(lg, stage, k, *args, **kwargs)
                sp.attrs.update(round_edges=[lg.m], edges_out=out.m)
                return out
        return wrapper

    def _colors(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            span = self._open("coloring")
            if span is not None:
                span.attrs["colors"] = len(set(out.values()))
            return out
        return wrapper

    def _round(self, fn):
        def wrapper(g, *args, **kwargs):
            stage = self._open("reduction.")
            if stage is not None:
                with self.span(PROBE, spark=True):
                    m = g.edges.count()
                stage.attrs.setdefault("round_edges", []).append(m)
            return fn(g, *args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Replace the layer functions for the duration of the block."""
        from repro.core import branch, heuristic, local_peel, maxrfc, reduction
        from repro.graph import coloring
        from repro.graph.local import LocalGraph

        plan = [
            (maxrfc, "reduce_pipeline", self._timed("reduction", spark=True)),
            (reduction, "en_colorful_core", self._timed("reduction.encore", spark=True)),
            (reduction, "colorful_core", self._timed("reduction.core", spark=True)),
            (reduction, "colorful_sup_reduce", self._sup_stage),
            (reduction, "edge_color_stats", self._round),
            (reduction, "vertex_color_stats", self._round),
            (local_peel, "apply_local_stage", self._local_stage),
            (coloring, "color_graph_local", self._timed("coloring", spark=True)),
            (coloring, "sequential_greedy", self._colors),
            (heuristic, "heur_rfc", self._timed("heuristic", after=lambda sp, out, a, kw: sp.attrs.update(
                size=len(out.clique)))),
            (branch, "branch_search", self._timed("search", after=lambda sp, out, a, kw: sp.attrs.update(
                nodes=out.nodes, roots_pruned=out.roots_pruned))),
            (branch, "cal_color_od", self._timed("order", after=lambda sp, out, a, kw: sp.attrs.update(
                roots=len(out)))),
            (branch, "compute_ub", self._timed("bounds")),
        ]
        patches = []
        try:
            for owner, name, wrap in plan:
                orig = getattr(owner, name)
                new = wrap(orig)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, name, None) is orig:
                        patches.append((mod, name, orig))
                        setattr(mod, name, new)
            orig_collect = LocalGraph.__dict__["from_spark"]
            collect = self._timed("collect", spark=True, after=lambda sp, out, a, kw: sp.attrs.update(
                n=out.n, m=out.m))(orig_collect.__func__)
            patches.append((LocalGraph, "from_spark", orig_collect))
            LocalGraph.from_spark = classmethod(collect)
            yield self
        finally:
            for owner, name, orig in reversed(patches):
                setattr(owner, name, orig)

    # -- derived numbers ---------------------------------------------------
    def subtree(self, root: int) -> list[Span]:
        keep = {root}
        out = []
        for sp in self.spans[root:]:
            if sp.id == root or sp.parent in keep:
                keep.add(sp.id)
                out.append(sp)
        return out

    def spark_counts(self, spans: list[Span]) -> dict[int, tuple[int, set[int]]]:
        """span id -> (jobs, ids of the stages that ran) of its own job group."""
        tracker = self.sc.statusTracker()
        out = {}
        for sp in spans:
            if sp.group is None:
                continue
            jobs = tracker.getJobIdsForGroup(sp.group)
            stages: set[int] = set()
            for jid in jobs:
                info = tracker.getJobInfo(jid)
                stages.update(info.stageIds if info else ())
            out[sp.id] = (len(jobs), stages)
        return out

    def tasks(self, stages: set[int]) -> tuple[int, int]:
        """(stages that ran, tasks they completed); skipped stages count 0."""
        tracker = self.sc.statusTracker()
        ran = tasks = 0
        for sid in stages:
            si = tracker.getStageInfo(sid)
            if si is not None and si.numCompletedTasks > 0:
                ran += 1
                tasks += si.numCompletedTasks
        return ran, tasks


def query_layers(tracer: Tracer, root: int, oracle: int) -> dict[str, float]:
    """Per-layer numbers of one traced query (the span ``root``)."""
    spans = tracer.subtree(root)
    kids: dict[int, list[Span]] = {}
    for sp in spans:
        kids.setdefault(sp.parent, []).append(sp)

    def probe_s(sp: Span) -> float:
        return sum(probe_s(c) if c.name != PROBE else c.end - c.start for c in kids.get(sp.id, ()))

    def eff(sp: Span) -> float:  # duration without probe time
        return sp.end - sp.start - probe_s(sp)

    def self_s(sp: Span) -> float:
        return eff(sp) - sum(eff(c) for c in kids.get(sp.id, ()) if c.name != PROBE)

    def total(name: str, fn=eff) -> float:
        return sum(fn(sp) for sp in spans if sp.name == name)

    def first(name: str) -> Span | None:
        return next((sp for sp in spans if sp.name == name), None)

    q = spans[0]
    m: dict[str, float] = {}
    layers = [sp for sp in spans[1:] if sp.name != PROBE]
    m["trace.query_s"] = eff(q)
    m["trace.probe_s"] = probe_s(q)
    m["trace.accounted_frac"] = sum(self_s(sp) for sp in layers) / eff(q)

    counts = tracer.spark_counts(sp for sp in spans if sp.name != PROBE)
    stages: set[int] = set()
    for _, ids in counts.values():
        stages |= ids
    m["spark.jobs"] = sum(jobs for jobs, _ in counts.values())
    m["spark.stages"], m["spark.tasks"] = tracer.tasks(stages)

    m["reduction.s"] = total("reduction")
    m["reduction.self_s"] = total("reduction", self_s)
    m["coloring.s"] = total("coloring")
    m["coloring.colors"] = sum(sp.attrs.get("colors", 0) for sp in spans if sp.name == "coloring")
    for st in ("encore", "sup", "ensup"):
        sp = first(f"reduction.{st}")
        # Edges at the start of each Spark round; the last round removes
        # nothing. The driver route examines its input once.
        attrs = sp.attrs if sp else {}
        rounds = attrs.get("round_edges", [0])
        removed = rounds[0] - attrs.get("edges_out", rounds[-1])
        pre = f"reduction.{st}."
        m[pre + "s"] = eff(sp) if sp else 0.0
        m[pre + "rounds"] = 0 if "edges_out" in attrs else len(attrs.get("round_edges", []))
        m[pre + "spark_jobs"] = counts.get(sp.id, (0,))[0] if sp else 0
        m[pre + "edges_in"] = rounds[0]
        m[pre + "edges_removed"] = removed
        m[pre + "removed_per_examined"] = removed / sum(rounds) if sum(rounds) else 0.0

    col = first("collect")
    m["collect.s"] = total("collect")
    m["kernel.n"] = col.attrs["n"] if col else 0
    m["kernel.m"] = col.attrs["m"] if col else 0

    heur = first("heuristic")
    m["heuristic.s"] = total("heuristic")
    m["heuristic.size"] = heur.attrs.get("size", 0) if heur else 0
    m["heuristic.gap"] = oracle - m["heuristic.size"]

    order = first("order")
    search = first("search")
    roots = order.attrs["roots"] if order else 0
    pruned = search.attrs.get("roots_pruned", 0) if search else 0
    m["order.s"] = total("order")
    m["bounds.calls"] = sum(1 for sp in spans if sp.name == "bounds")
    m["bounds.s"] = total("bounds")
    m["bounds.roots_pruned"] = pruned
    m["bounds.prune_frac"] = pruned / roots if roots else 0.0
    m["search.s"] = total("search")
    m["search.self_s"] = total("search", self_s)
    m["search.nodes"] = search.attrs.get("nodes", 0) if search else 0
    m["search.us_per_node"] = (
        1e6 * m["search.self_s"] / m["search.nodes"] if m["search.nodes"] else 0.0
    )
    return m
