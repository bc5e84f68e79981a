"""Colorful degree / colorful support statistics (Spark DataFrame API).

Definitions from the paper:

- **Colorful degree** ``D_x(u)`` (Def. 2): #distinct colors among u's
  neighbors with attribute x.
- **Colorful support** ``sup_x(u,v)`` (Def. 6): #distinct colors among
  the *common* neighbors of u,v with attribute x.
- The exclusive-a / exclusive-b / mixed color groups ``c_a``/``c_b``/
  ``c_m`` behind ED (Def. 4) and the enhanced colorful support (Def. 7);
  ``repro.core.colorgroups`` defines them and the tests on them.

Everything is one or two Catalyst aggregations; the per-(entity, color)
``has_a``/``has_b`` flags are shared between the plain and enhanced
variants.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.colorgroups import ATTR_A, ATTR_B, enhanced_degree_col
from repro.graph.builder import AttributedGraph, symmetrize


def _vc(g: AttributedGraph, colors: DataFrame) -> DataFrame:
    """(id, attr, color) — vertex attributes joined with colors."""
    return g.vertices.join(colors, "id")


def _group_agg(df: DataFrame, keys: list[str]) -> DataFrame:
    """From rows (keys..., color, attr): per-key color-group statistics.

    Output columns: d_a, d_b (colorful degrees/supports), c_a, c_b, c_m
    (exclusive-a / exclusive-b / mixed color-group sizes).
    """
    per_color = df.groupBy(*keys, "color").agg(
        F.max((F.col("attr") == ATTR_A).cast("int")).alias("has_a"),
        F.max((F.col("attr") == ATTR_B).cast("int")).alias("has_b"),
    )
    return per_color.groupBy(*keys).agg(
        F.sum("has_a").alias("d_a"),
        F.sum("has_b").alias("d_b"),
        F.sum(((F.col("has_a") == 1) & (F.col("has_b") == 0)).cast("int")).alias("c_a"),
        F.sum(((F.col("has_b") == 1) & (F.col("has_a") == 0)).cast("int")).alias("c_b"),
        F.sum(((F.col("has_a") == 1) & (F.col("has_b") == 1)).cast("int")).alias("c_m"),
    )


def vertex_color_stats(g: AttributedGraph, colors: DataFrame) -> DataFrame:
    """Per-vertex (id, d_a, d_b, c_a, c_b, c_m, ed).

    ``d_a``/``d_b`` are the colorful degrees D_a/D_b (Def. 2); ``ed`` is
    the enhanced colorful degree ED (Def. 4). Vertices with no neighbors
    do not appear (callers left-join and fill 0).
    """
    vc = _vc(g, colors)
    nbrs = (
        symmetrize(g.edges)
        .join(F.broadcast(vc.withColumnRenamed("id", "dst")), "dst")
        .select(F.col("src").alias("id"), "attr", "color")
    )
    return _group_agg(nbrs, ["id"]).withColumn("ed", enhanced_degree_col())


def edge_color_stats(g: AttributedGraph, colors: DataFrame) -> DataFrame:
    """Per-edge common-neighbor color stats.

    Returns every canonical edge with columns
    ``(src, dst, attr_u, attr_v, sup_a, sup_b, c_a, c_b, c_m)`` where
    ``sup_x`` is the colorful support (Def. 6) and c_a/c_b/c_m the
    enhanced-support color groups (Def. 7). Edges with no common
    neighbors get all-zero stats.

    The common-neighbor relation is the standard triangle join:
    edge (u,v) × adjacency (u,w) × adjacency (v,w). The adjacency sides
    are broadcast-hinted — right for the latency-bound local mode this
    reproduction runs in, where the adjacency relation is tens of
    thousands of rows and every shuffle costs a scheduler round-trip.
    """
    vc = _vc(g, colors)
    sym = symmetrize(g.edges)
    s1 = F.broadcast(sym.select(F.col("src").alias("u"), F.col("dst").alias("w")))
    s2 = F.broadcast(sym.select(F.col("src").alias("v"), F.col("dst").alias("w")))
    e = g.edges.select(F.col("src").alias("u"), F.col("dst").alias("v"))
    common = e.join(s1, "u").join(s2, ["v", "w"])
    wstats = common.join(
        F.broadcast(vc.select(F.col("id").alias("w"), "attr", "color")), "w"
    ).select("u", "v", "attr", "color")
    stats = (
        _group_agg(wstats, ["u", "v"])
        .withColumnRenamed("d_a", "sup_a")
        .withColumnRenamed("d_b", "sup_b")
    )
    va = vc.select(F.col("id").alias("u"), F.col("attr").alias("attr_u"))
    vb = vc.select(F.col("id").alias("v"), F.col("attr").alias("attr_v"))
    out = (
        e.join(F.broadcast(va), "u").join(F.broadcast(vb), "v")
        .join(stats, ["u", "v"], "left")
        .select(
            F.col("u").alias("src"),
            F.col("v").alias("dst"),
            "attr_u",
            "attr_v",
            *[F.coalesce(F.col(c), F.lit(0)).alias(c) for c in ("sup_a", "sup_b", "c_a", "c_b", "c_m")],
        )
    )
    return out

