"""Tests for the sequential reference implementations themselves.

The references oracle the Spark reductions, so they get their own
sanity checks against the raw definitions.
"""
import pandas as pd
import pytest

from repro.graph import gen
from repro.graph.local import LocalGraph
from repro.core import reference as ref
from repro.core.colorgroups import threshold_cols, thresholds
from repro.core.baseline import brute_force_size


def _lg(n=30, p=0.3, seed=0):
    v, e = gen.random_attributed_graph(n, p, seed=seed)
    lg = LocalGraph.from_pandas(v, e)
    lg.recolor()
    return lg


@pytest.mark.parametrize("ca,cb,cm,expect", [
    (0, 0, 0, 0),
    (3, 3, 0, 3),
    (5, 1, 1, 2),
    (3, 3, 2, 4),
    (0, 0, 5, 2),
    (10, 0, 0, 0),
])
def test_enhanced_colorful_degree(ca, cb, cm, expect):
    """ED = max over assignments of min side — closed form vs brute force."""
    assert ref.enhanced_colorful_degree(ca, cb, cm) == expect
    brute = max(
        min(ca + x, cb + (cm - x)) for x in range(cm + 1)
    ) if cm >= 0 else 0
    assert ref.enhanced_colorful_degree(ca, cb, cm) == brute


@pytest.mark.parametrize("ca,cb,cm,ka,kb", [
    (0, 0, 3, 2, 1), (2, 1, 0, 2, 2), (1, 1, 2, 3, 1), (4, 4, 4, 2, 2),
])
def test_enhanced_sups_feasibility_equivalence(ca, cb, cm, ka, kb):
    """(esup_a ≥ ka and esup_b ≥ kb) ⟺ need_a + need_b ≤ c_m."""
    sa, sb = ref.enhanced_sups(ca, cb, cm, ka, kb)
    passes = sa >= ka and sb >= kb
    feasible = max(0, ka - ca) + max(0, kb - cb) <= cm
    assert passes == feasible


def test_reference_core_peel_fixpoint():
    lg = _lg(seed=5)
    for t in (1, 2):
        alive = ref.reference_core_peel(lg, t, enhanced=True)
        for v in alive:
            c_a, c_b, c_m = ref.vertex_groups(lg, alive, v)
            assert ref.enhanced_colorful_degree(c_a, c_b, c_m) >= t


def test_reference_sup_peel_fixpoint():
    lg = _lg(n=25, p=0.4, seed=6)
    for k in (2, 3):
        edges = ref.reference_sup_peel(lg, k, enhanced=False)
        for (u, v) in edges:
            c_a, c_b, c_m = ref.edge_groups(lg, edges, u, v)
            ka, kb = ref.thresholds(lg, u, v, k)
            assert c_a + c_m >= ka and c_b + c_m >= kb


@pytest.mark.parametrize("k,delta", [(2, 1), (2, 2)])
def test_reference_peels_preserve_optimum(k, delta):
    """Lemmas 2–4 safety on the references: peeling never loses the
    maximum fair clique."""
    for seed in range(4):
        lg = _lg(n=22, p=0.45, seed=seed)
        opt = brute_force_size(lg, k, delta)
        alive = ref.reference_core_peel(lg, k - 1, enhanced=True)
        assert brute_force_size(lg.subgraph(alive), k, delta) == opt
        edges = ref.reference_sup_peel(lg, k, enhanced=True)
        verts = {u for e in edges for u in e}
        sub = lg.subgraph(verts)
        for w in list(sub.adj):
            sub.adj[w] = {
                x for x in sub.adj[w]
                if (min(w, x), max(w, x)) in edges
            }
        assert brute_force_size(sub, k, delta) == opt


def test_thresholds_mapping(spark):
    v = pd.DataFrame({"id": [0, 1, 2], "attr": ["a", "a", "b"]})
    e = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 2]})
    lg = LocalGraph.from_pandas(v, e)
    assert ref.thresholds(lg, 0, 1, 5) == (3, 5)   # a-a
    assert ref.thresholds(lg, 0, 2, 5) == (4, 4)   # a-b
    v2 = v.assign(attr=["b", "b", "a"])
    lg2 = LocalGraph.from_pandas(v2, e)
    assert ref.thresholds(lg2, 0, 1, 5) == (5, 3)  # b-b
    # The python and Spark forms agree with it on all four endpoint pairs.
    want = {("a", "a"): (3, 5), ("a", "b"): (4, 4), ("b", "a"): (4, 4), ("b", "b"): (5, 3)}
    df = spark.createDataFrame(pd.DataFrame(list(want), columns=["attr_u", "attr_v"]))
    ka, kb = threshold_cols(5)
    got = df.select("attr_u", "attr_v", ka.alias("ka"), kb.alias("kb")).toPandas()
    assert len(got) == 4
    for _, r in got.iterrows():
        pair = (r["attr_u"], r["attr_v"])
        assert thresholds(*pair, 5) == (r["ka"], r["kb"]) == want[pair]
