"""Self-tests of the DuckDB oracle on a named synthetic graph.

The graph tests rely on ``assert_equivalent`` for column matching and
sorted-row diffing; these keep that behaviour known-good, on graph
tables from ``synth_data.attributed_graph``, including that a wrong
result and a column mismatch are both caught.
"""
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.graph.builder import degrees, symmetrize
from repro.oracle import assert_equivalent

DEGREE_SQL = """
WITH sym AS (
  SELECT src, dst FROM edges
  UNION ALL SELECT dst, src FROM edges
),
d AS (SELECT src AS id, COUNT(*) AS degree FROM sym GROUP BY 1)
SELECT v.id, COALESCE(d.degree, 0) AS degree
FROM vertices v LEFT JOIN d USING (id)
"""


@pytest.fixture(scope="module")
def graph(spark):
    return synth_data.attributed_graph(spark, "aminer", scale=0.1).checkpointed()


def test_degree_aggregate_matches_duckdb(graph):
    assert_equivalent(degrees(graph), DEGREE_SQL, vertices=graph.vertices, edges=graph.edges)


def test_join_matches_duckdb(graph):
    """Per-edge common-neighbor counts: the triangle join."""
    sym = symmetrize(graph.edges)
    s1 = sym.select(F.col("src").alias("u"), F.col("dst").alias("w"))
    s2 = sym.select(F.col("src").alias("v"), F.col("dst").alias("w"))
    got = (
        graph.edges.select(F.col("src").alias("u"), F.col("dst").alias("v"))
        .join(s1, "u")
        .join(s2, ["v", "w"])
        .groupBy("u", "v")
        .agg(F.count("*").alias("common"))
    )
    assert_equivalent(
        got,
        """
        WITH sym AS (
          SELECT src, dst FROM edges
          UNION ALL SELECT dst, src FROM edges
        )
        SELECT e.src AS u, e.dst AS v, COUNT(*) AS common
        FROM edges e
        JOIN sym s1 ON s1.src = e.src
        JOIN sym s2 ON s2.src = e.dst AND s2.dst = s1.dst
        GROUP BY 1, 2
        """,
        edges=graph.edges,
    )


def test_oracle_detects_wrong_result(graph):
    wrong = degrees(graph).select("id", (F.col("degree") + 1).alias("degree"))
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, DEGREE_SQL, vertices=graph.vertices, edges=graph.edges)


def test_oracle_detects_column_mismatch(graph):
    got = degrees(graph).withColumnRenamed("degree", "wrong_name")
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, DEGREE_SQL, vertices=graph.vertices, edges=graph.edges)
