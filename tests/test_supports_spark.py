"""Colorful degree / support statistics vs the DuckDB oracle + references."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import color_graph_local
from repro.graph.local import LocalGraph
from repro.core import reference as ref
from repro.core.colorgroups import enhanced_support_ok, enhanced_support_ok_col
from repro.core.supports import edge_color_stats, vertex_color_stats

SYM_SQL = """
WITH sym AS (
  SELECT src AS u, dst AS w FROM edges
  UNION ALL SELECT dst AS u, src AS w FROM edges
)
"""


@pytest.fixture(scope="module")
def colored_graph(spark):
    v, e = gen.random_attributed_graph(70, 0.12, seed=33)
    g = from_pandas(spark, v, e).checkpointed()
    colors = color_graph_local(g).localCheckpoint(eager=True)
    vcol = v.merge(colors.toPandas(), on="id")  # (id, attr, color) pandas
    lg = LocalGraph.from_pandas(v, e, colors.toPandas())
    return g, colors, v, e, vcol, lg


def test_colorful_degrees_against_duckdb(colored_graph):
    g, colors, v, e, vcol, _ = colored_graph
    got = vertex_color_stats(g, colors).select("id", "d_a", "d_b")
    assert_equivalent(
        got,
        SYM_SQL
        + """
        SELECT s.u AS id,
               COUNT(DISTINCT CASE WHEN x.attr = 'a' THEN x.color END) AS d_a,
               COUNT(DISTINCT CASE WHEN x.attr = 'b' THEN x.color END) AS d_b
        FROM sym s JOIN vcol x ON x.id = s.w
        GROUP BY 1
        """,
        edges=e,
        vcol=vcol,
    )


def test_vertex_color_groups_against_reference(colored_graph):
    g, colors, v, e, vcol, lg = colored_graph
    got = vertex_color_stats(g, colors).toPandas().set_index("id")
    alive = set(lg.adj)
    for vid in got.index:
        c_a, c_b, c_m = ref.vertex_groups(lg, alive, int(vid))
        row = got.loc[vid]
        assert (row["c_a"], row["c_b"], row["c_m"]) == (c_a, c_b, c_m)
        assert row["ed"] == ref.enhanced_colorful_degree(c_a, c_b, c_m)
        assert row["d_a"] == c_a + c_m and row["d_b"] == c_b + c_m


def test_colorful_support_against_duckdb(colored_graph):
    g, colors, v, e, vcol, _ = colored_graph
    got = (
        edge_color_stats(g, colors)
        .where((F.col("sup_a") + F.col("sup_b")) > 0)
        .select("src", "dst", "sup_a", "sup_b")
    )
    assert_equivalent(
        got,
        SYM_SQL
        + """
        , cn AS (
          SELECT e.src, e.dst, s1.w
          FROM edges e
          JOIN sym s1 ON s1.u = e.src
          JOIN sym s2 ON s2.u = e.dst AND s2.w = s1.w
        )
        SELECT cn.src, cn.dst,
               COUNT(DISTINCT CASE WHEN x.attr = 'a' THEN x.color END) AS sup_a,
               COUNT(DISTINCT CASE WHEN x.attr = 'b' THEN x.color END) AS sup_b
        FROM cn JOIN vcol x ON x.id = cn.w
        GROUP BY 1, 2
        """,
        edges=e,
        vcol=vcol,
    )


def test_edge_color_groups_against_reference(colored_graph):
    g, colors, v, e, vcol, lg = colored_graph
    got = edge_color_stats(g, colors).toPandas()
    edges = set(zip(e["src"].astype(int), e["dst"].astype(int)))
    for _, row in got.iterrows():
        c_a, c_b, c_m = ref.edge_groups(lg, edges, int(row["src"]), int(row["dst"]))
        assert (row["c_a"], row["c_b"], row["c_m"]) == (c_a, c_b, c_m)
        assert row["sup_a"] == c_a + c_m and row["sup_b"] == c_b + c_m


def test_zero_stats_edges_have_no_common_neighbors(colored_graph):
    g, colors, v, e, vcol, lg = colored_graph
    got = edge_color_stats(g, colors).toPandas()
    zero = got[(got["sup_a"] == 0) & (got["sup_b"] == 0)]
    for _, row in zero.iterrows():
        u, w = int(row["src"]), int(row["dst"])
        assert not (lg.adj[u] & lg.adj[w])


def test_edge_stats_covers_every_edge(colored_graph):
    g, colors, v, e, *_ = colored_graph
    assert edge_color_stats(g, colors).count() == len(e)


def test_endpoint_attrs_correct(colored_graph):
    g, colors, v, e, vcol, lg = colored_graph
    got = edge_color_stats(g, colors).toPandas()
    for _, row in got.iterrows():
        assert row["attr_u"] == lg.attr[int(row["src"])]
        assert row["attr_v"] == lg.attr[int(row["dst"])]


def test_enhanced_support_cols_match_reference(spark):
    """The closed-form Def-7 test, Spark column and python function, ==
    feasibility of the reference's greedy assignment over an exhaustive
    (c_a, c_b, c_m) grid. Thresholds include ka, kb ∈ {−1, 0}, which
    k = 1 and k = 2 produce."""
    pairs = [(1, 3), (3, 1), (2, 2), (0, 2), (-1, 1), (1, -1)]
    pairs += [(ka, kb) for ka in (-1, 0) for kb in (-1, 0)]
    rows = [
        {"c_a": ca, "c_b": cb, "c_m": cm, "ka": ka, "kb": kb}
        for ca in range(4)
        for cb in range(4)
        for cm in range(4)
        for (ka, kb) in pairs
    ]
    df = spark.createDataFrame(pd.DataFrame(rows))
    got = df.select("c_a", "c_b", "c_m", "ka", "kb",
                    enhanced_support_ok_col().alias("ok")).toPandas()
    for _, r in got.iterrows():
        c_a, c_b, c_m, ka, kb = (int(r[c]) for c in ("c_a", "c_b", "c_m", "ka", "kb"))
        esa, esb = ref.enhanced_sups(c_a, c_b, c_m, ka, kb)
        want = esa >= ka and esb >= kb
        assert r["ok"] == want == enhanced_support_ok(c_a, c_b, c_m, ka, kb), dict(r)
