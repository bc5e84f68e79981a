"""Spark-side attributed-graph algebra.

``AttributedGraph`` is a thin immutable holder of two DataFrames:

- ``vertices``: ``(id: long, attr: string)`` — attr ∈ {"a", "b"}
- ``edges``: canonical undirected edges ``(src: long, dst: long)`` with
  ``src < dst``, deduplicated, no self loops.

All operations are pure DataFrame transformations (Catalyst-planned).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


@dataclass(frozen=True)
class AttributedGraph:
    """Vertices (id, attr) + canonical undirected edges (src < dst)."""

    vertices: DataFrame
    edges: DataFrame

    def counts(self) -> tuple[int, int]:
        """(n, m) — triggers two small actions."""
        return self.vertices.count(), self.edges.count()

    def checkpointed(self) -> "AttributedGraph":
        return AttributedGraph(
            self.vertices.localCheckpoint(eager=True),
            self.edges.localCheckpoint(eager=True),
        )


def canonicalize_edges(edges: DataFrame) -> DataFrame:
    """Normalize an arbitrary (src, dst) edge list to canonical form."""
    lo = F.least("src", "dst").alias("src")
    hi = F.greatest("src", "dst").alias("dst")
    return edges.select(lo, hi).where(F.col("src") != F.col("dst")).distinct()


def from_pandas(spark: SparkSession, vertices: pd.DataFrame, edges: pd.DataFrame) -> AttributedGraph:
    """Lift the pandas frames produced by ``repro.graph.gen`` into Spark."""
    vdf = spark.createDataFrame(vertices, schema="id long, attr string")
    if len(edges) == 0:
        edf = spark.createDataFrame([], schema="src long, dst long")
    else:
        edf = spark.createDataFrame(edges, schema="src long, dst long")
    return AttributedGraph(vdf, canonicalize_edges(edf))


def from_local(spark: SparkSession, lg) -> AttributedGraph:
    """Lift a driver-side ``LocalGraph`` back into Spark frames."""
    vp = pd.DataFrame(
        {"id": list(lg.adj), "attr": [lg.attr[v] for v in lg.adj]}
    )
    pairs = sorted(
        (u, v) for u in lg.adj for v in lg.adj[u] if u < v
    )
    ep = pd.DataFrame(pairs, columns=["src", "dst"]) if pairs else pd.DataFrame(
        {"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")}
    )
    return from_pandas(spark, vp, ep)


def symmetrize(edges: DataFrame) -> DataFrame:
    """Both orientations of every canonical edge: the adjacency relation."""
    return edges.select("src", "dst").union(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )


def degrees(g: AttributedGraph) -> DataFrame:
    """(id, degree) for every vertex, including isolated ones (degree 0)."""
    d = symmetrize(g.edges).groupBy("src").agg(F.count("*").alias("degree"))
    return (
        g.vertices.join(F.broadcast(d), g.vertices["id"] == d["src"], "left")
        .select("id", F.coalesce("degree", F.lit(0)).alias("degree"))
    )


def induced_subgraph(g: AttributedGraph, keep_ids: DataFrame) -> AttributedGraph:
    """Subgraph induced by ``keep_ids`` (a DataFrame with an ``id`` column)."""
    ids = F.broadcast(keep_ids.select("id").distinct())
    v = g.vertices.join(ids, "id", "inner")
    e = (
        g.edges.join(ids.withColumnRenamed("id", "src"), "src", "inner")
        .join(ids.withColumnRenamed("id", "dst"), "dst", "inner")
        .select("src", "dst")
    )
    return AttributedGraph(v, e)


def drop_isolated(g: AttributedGraph) -> AttributedGraph:
    """Drop degree-0 vertices (irrelevant to any clique of size ≥ 2)."""
    ids = F.broadcast(symmetrize(g.edges).select(F.col("src").alias("id")).distinct())
    return AttributedGraph(g.vertices.join(ids, "id", "inner"), g.edges)

