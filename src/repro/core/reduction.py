"""Graph reduction techniques (Spark, iterative batch peeling).

Implements the paper's four reductions:

- ``colorful_core`` (Def. 3 / Lemma 1): peel vertices with
  ``min(D_a, D_b) < t``;
- ``en_colorful_core`` (Def. 5 / Lemma 2): peel vertices with
  ``ED < t``;
- ``colorful_sup_reduce`` (Lemma 3 / Algorithm 1, and the enhanced
  variant of Lemma 4): peel edges whose (enhanced) colorful supports
  fall below the attribute-pair thresholds.

The paper peels one element at a time with a priority queue; the
distributed encoding removes *all* violating elements per round and
recomputes. Both converge to the same unique maximal subgraph (the
constraints are monotone, so feasible subgraphs are closed under union —
see DESIGN.md §2); a test checks batch output == sequential reference.

Each round materializes the stats frame once with ``localCheckpoint``
(truncating lineage and avoiding a second triangle-join evaluation for
the emptiness probe), then derives both the convergence check and the
next edge set from the materialized result.

``reduce_pipeline`` chains EnColorfulCore(k−1) → ColorfulSup(k) →
EnColorfulSup(k) exactly as Algorithm 2 lines 1–3, reporting per-stage
(n, m) so the Fig-4-style reduction tables fall out for free.

``max_rounds`` (None = run to the exact fixpoint) bounds the number of
batch rounds per stage. Long truss-style cascades can remove only a few
edges per round; stopping early keeps a *superset* of the fixpoint,
which is still a sound reduction (no fair clique is ever lost), trading
kernel size for dataflow latency. Benchmarks cap rounds; correctness
tests run uncapped.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.builder import AttributedGraph, drop_isolated, induced_subgraph
from repro.graph.coloring import color_graph_local
from repro.core.colorgroups import enhanced_support_ok_col, threshold_cols
from repro.core.supports import edge_color_stats, vertex_color_stats


def _vertex_peel(
    g: AttributedGraph,
    colors: DataFrame,
    t: int,
    metric_col,
    *,
    max_rounds: int | None = None,
) -> AttributedGraph:
    """Peel vertices whose metric (a column over vertex_color_stats) < t.

    ``max_rounds`` stops early after that many batch rounds; the result
    is then a *superset* of the exact fixpoint, which is still a sound
    reduction (it can only keep more of the graph).
    """
    if t <= 0:
        return g
    cur = g.checkpointed()
    for _ in range(max_rounds if max_rounds is not None else 10_000):
        stats = vertex_color_stats(cur, colors).withColumn("metric", metric_col)
        vals = (
            cur.vertices.join(F.broadcast(stats.select("id", "metric")), "id", "left")
            .select("id", F.coalesce(F.col("metric"), F.lit(0)).alias("val"))
            .localCheckpoint(eager=True)
        )
        if vals.where(F.col("val") < t).isEmpty():
            return cur
        keep = vals.where(F.col("val") >= t).select("id")
        cur = induced_subgraph(cur, keep).checkpointed()
    if max_rounds is not None:
        return cur
    raise RuntimeError("vertex peel did not converge")


def colorful_core(
    g: AttributedGraph, colors: DataFrame, t: int, *, max_rounds: int | None = None
) -> AttributedGraph:
    """Maximal subgraph with min(D_a, D_b) ≥ t for every vertex (Def. 3).

    Lemma 1: any (k, δ)-fair clique lives in the colorful (k−1)-core, so
    callers pass ``t = k − 1``.
    """
    return _vertex_peel(g, colors, t, F.least("d_a", "d_b"), max_rounds=max_rounds)


def en_colorful_core(
    g: AttributedGraph, colors: DataFrame, t: int, *, max_rounds: int | None = None
) -> AttributedGraph:
    """Maximal subgraph with ED(u) ≥ t for every vertex (Def. 5).

    Lemma 2: any (k, δ)-fair clique lives in the enhanced colorful
    (k−1)-core, so callers pass ``t = k − 1``.
    """
    return _vertex_peel(g, colors, t, F.col("ed"), max_rounds=max_rounds)


def colorful_sup_reduce(
    g: AttributedGraph,
    colors: DataFrame,
    k: int,
    *,
    enhanced: bool = False,
    max_rounds: int | None = None,
) -> AttributedGraph:
    """Edge peeling by (enhanced) colorful support — ColorfulSup /
    EnColorfulSup (Lemmas 3 and 4).

    Keeps an edge (u,v) iff its supports meet the attribute-pair
    thresholds: (a,a) → sup_a ≥ k−2 ∧ sup_b ≥ k; (b,b) mirrored;
    (a,b) → both ≥ k−1. The enhanced variant uses the Def.-7 test on the
    color groups instead of raw colorful supports.
    Vertices that lose all incident edges are dropped at the end.
    """
    cur = g.checkpointed()
    ka, kb = threshold_cols(k)
    if enhanced:
        ok = enhanced_support_ok_col()
    else:
        ok = (F.col("sup_a") >= F.col("ka")) & (F.col("sup_b") >= F.col("kb"))
    for _ in range(max_rounds if max_rounds is not None else 10_000):
        stats = edge_color_stats(cur, colors).withColumn("ka", ka).withColumn("kb", kb)
        flagged = stats.select("src", "dst", ok.alias("ok")).localCheckpoint(eager=True)
        if flagged.where(~F.col("ok")).isEmpty():
            return drop_isolated(cur)
        keep = flagged.where(F.col("ok")).select("src", "dst")
        cur = AttributedGraph(cur.vertices, keep)
    if max_rounds is not None:
        return drop_isolated(cur)
    raise RuntimeError("colorful_sup_reduce did not converge")


@dataclass
class ReductionReport:
    """Per-stage (n, m, seconds) from the Algorithm-2 reduction pipeline."""

    graph: AttributedGraph
    colors: DataFrame
    stages: list[tuple[str, int, int, float]] = field(default_factory=list)

    def stage_dict(self) -> dict[str, tuple[int, int]]:
        return {name: (n, m) for name, n, m, _ in self.stages}


def reduce_pipeline(
    g: AttributedGraph,
    k: int,
    *,
    stages: tuple[str, ...] = ("encore", "sup", "ensup"),
    colors: DataFrame | None = None,
    max_rounds: int | None = None,
    local_threshold: int = 0,
) -> ReductionReport:
    """Algorithm 2, lines 1–3: EnColorfulCore → ColorfulSup → EnColorfulSup.

    One proper coloring is computed up front on the driver (the greedy
    algorithm is sequential; see ``color_graph_local``) and reused (a
    proper coloring remains proper on subgraphs — DESIGN.md §3.3.4).

    ``local_threshold``: once the remaining graph has at most this many
    edges, the tail of the peel is handed to the driver-side
    Algorithm-1 implementation (``repro.core.local_peel``) which reaches
    the exact fixpoint without paying a Spark scheduler round per batch
    round — the standard "scale down the cascade tail" hybrid. 0 keeps
    everything distributed. The result is identical either way (tested).

    Returns the reduced graph plus per-stage (n, m, seconds).
    """
    from repro.core.local_peel import apply_local_stage
    from repro.graph.builder import from_local
    from repro.graph.local import LocalGraph

    report_stages: list[tuple[str, int, int, float]] = []
    t0 = time.perf_counter()
    if colors is None:
        colors = color_graph_local(g).localCheckpoint(eager=True)
    n, m = g.counts()
    report_stages.append(("original", n, m, time.perf_counter() - t0))
    cur = g
    lg: LocalGraph | None = None
    for s in stages:
        t0 = time.perf_counter()
        if lg is None and m <= local_threshold:
            lg = LocalGraph.from_spark(cur, colors)
        if lg is not None:
            lg = apply_local_stage(lg, s, k)
            n, m = lg.n, lg.m
        else:
            if s == "core":
                cur = colorful_core(cur, colors, k - 1, max_rounds=max_rounds)
            elif s == "encore":
                cur = en_colorful_core(cur, colors, k - 1, max_rounds=max_rounds)
            elif s == "sup":
                cur = colorful_sup_reduce(cur, colors, k, enhanced=False, max_rounds=max_rounds)
            elif s == "ensup":
                cur = colorful_sup_reduce(cur, colors, k, enhanced=True, max_rounds=max_rounds)
            else:
                raise ValueError(f"unknown reduction stage: {s}")
            cur = drop_isolated(cur)
            n, m = cur.counts()
        report_stages.append((s, n, m, time.perf_counter() - t0))
    if lg is not None:
        cur = from_local(g.vertices.sparkSession, lg)
    return ReductionReport(graph=cur, colors=colors, stages=report_stages)
