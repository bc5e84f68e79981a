"""Greedy graph coloring, computed on the driver.

The paper's reductions and bounds all rest on a *degree-based greedy
coloring* (its line 1 of Algorithm 1, citing [30]): process vertices in
(degree desc, id asc) order, give each the smallest color unused by its
already-colored neighbors. The algorithm is sequential, so the pipeline
collects the edge list, colors on the driver and ships (id, color) back
to Spark (DESIGN.md §3.3.6).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.graph.builder import AttributedGraph


def color_graph_local(g: AttributedGraph) -> DataFrame:
    """Degree-greedy coloring of ``g`` as an (id, color) DataFrame.

    Colors in O(|E|) on the driver; the paper's C++ implementation runs
    it single-threaded too.
    """
    import pandas as pd

    spark = g.vertices.sparkSession
    ep = g.edges.toPandas()
    vp = g.vertices.select("id").toPandas()
    adj: dict[int, set[int]] = {int(v): set() for v in vp["id"]}
    for u, v in zip(ep["src"].astype(int), ep["dst"].astype(int)):
        adj[u].add(v)
        adj[v].add(u)
    color = sequential_greedy(adj)
    pdf = pd.DataFrame(
        {"id": list(color.keys()), "color": list(color.values())}
    )
    return spark.createDataFrame(pdf, schema="id long, color int")


def sequential_greedy(adj: dict[int, set[int]]) -> dict[int, int]:
    """Sequential greedy coloring in (degree desc, id asc) order."""
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    color: dict[int, int] = {}
    for v in order:
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color
