"""Spark graph-algebra tests (builder) with the DuckDB oracle."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.graph import gen
from repro.graph.builder import (
    canonicalize_edges,
    degrees,
    drop_isolated,
    from_pandas,
    induced_subgraph,
    symmetrize,
)


@pytest.fixture(scope="module")
def small_graph(spark):
    v, e = gen.random_attributed_graph(80, 0.08, seed=21)
    return v, e, from_pandas(spark, v, e).checkpointed()


def test_from_pandas_counts(small_graph):
    v, e, g = small_graph
    assert g.counts() == (len(v), len(e))


def test_canonicalize_handles_orientation_and_dups(spark):
    raw = spark.createDataFrame(
        pd.DataFrame({"src": [1, 2, 2, 3, 3], "dst": [2, 1, 3, 2, 3]}),
        schema="src long, dst long",
    )
    got = canonicalize_edges(raw).toPandas().sort_values(["src", "dst"])
    assert list(map(tuple, got.values)) == [(1, 2), (2, 3)]


def test_symmetrize_doubles(small_graph):
    _, e, g = small_graph
    assert symmetrize(g.edges).count() == 2 * len(e)


def test_degrees_against_duckdb(small_graph):
    v, e, g = small_graph
    assert_equivalent(
        degrees(g),
        """
        WITH sym AS (
          SELECT src, dst FROM edges
          UNION ALL SELECT dst, src FROM edges
        ),
        d AS (SELECT src AS id, COUNT(*) AS degree FROM sym GROUP BY 1)
        SELECT v.id, COALESCE(d.degree, 0) AS degree
        FROM vertices v LEFT JOIN d USING (id)
        """,
        edges=e,
        vertices=v,
    )


def test_induced_subgraph_matches_pandas(small_graph):
    v, e, g = small_graph
    keep = v["id"].iloc[:40]
    spark = g.vertices.sparkSession
    keep_df = spark.createDataFrame(pd.DataFrame({"id": keep}), schema="id long")
    sub = induced_subgraph(g, keep_df)
    ep = sub.edges.toPandas()
    expect = e[e["src"].isin(set(keep)) & e["dst"].isin(set(keep))]
    assert set(map(tuple, ep.values)) == set(map(tuple, expect.values))
    assert sub.vertices.count() == 40


def test_drop_isolated(spark):
    v = pd.DataFrame({"id": [0, 1, 2, 3], "attr": ["a", "b", "a", "b"]})
    e = pd.DataFrame({"src": [0], "dst": [1]})
    g = drop_isolated(from_pandas(spark, v, e))
    assert set(g.vertices.toPandas()["id"]) == {0, 1}
