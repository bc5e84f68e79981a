"""Driver coloring tests: exact equality with sequential greedy, properness."""
import pandas as pd

from repro.oracle import assert_equivalent
from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import color_graph_local, sequential_greedy
from repro.graph.local import LocalGraph


def _color_maps(v, e, spark_colors):
    cp = spark_colors.toPandas()
    got = dict(zip(cp["id"].astype(int), cp["color"].astype(int)))
    ref = sequential_greedy(LocalGraph.from_pandas(v, e).adj)
    return got, ref


def test_driver_coloring_equals_sequential(spark):
    v, e = gen.DATASETS["aminer"](scale=0.3)
    g = from_pandas(spark, v, e).checkpointed()
    got, ref = _color_maps(v, e, color_graph_local(g))
    assert got == ref


def test_coloring_is_proper_via_duckdb(spark):
    """No edge joins two vertices of the same color (oracle-checked)."""
    v, e = gen.random_attributed_graph(70, 0.15, seed=9)
    g = from_pandas(spark, v, e).checkpointed()
    colors = color_graph_local(g)
    # Count monochromatic edges in DuckDB; Spark side returns the same
    # count computed with DataFrame joins — both must be zero.
    from pyspark.sql import functions as F

    c1 = colors.select(F.col("id").alias("src"), F.col("color").alias("c1"))
    c2 = colors.select(F.col("id").alias("dst"), F.col("color").alias("c2"))
    mono = (
        g.edges.join(c1, "src").join(c2, "dst")
        .where(F.col("c1") == F.col("c2"))
        .agg(F.count("*").alias("mono"))
    )
    assert_equivalent(
        mono,
        """
        SELECT COUNT(*) AS mono
        FROM edges e
        JOIN colors x ON x.id = e.src
        JOIN colors y ON y.id = e.dst
        WHERE x.color = y.color
        """,
        edges=e,
        colors=colors,
    )
    assert mono.first()["mono"] == 0


def test_coloring_deterministic(spark):
    v, e = gen.random_attributed_graph(50, 0.2, seed=3)
    g = from_pandas(spark, v, e).checkpointed()
    a = color_graph_local(g).toPandas().sort_values("id").reset_index(drop=True)
    b = color_graph_local(g).toPandas().sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_coloring_covers_all_vertices_including_isolated(spark):
    v = pd.DataFrame({"id": [0, 1, 2, 9], "attr": ["a", "b", "a", "b"]})
    e = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    g = from_pandas(spark, v, e)
    cp = color_graph_local(g).toPandas()
    assert set(cp["id"]) == {0, 1, 2, 9}
