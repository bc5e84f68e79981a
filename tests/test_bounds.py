"""Validity and tightness tests for every upper bound (Lemmas 5–14)."""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import gen
from repro.graph.local import LocalGraph
from repro.core import bounds
from repro.core.baseline import brute_force_size

DELTAS = [0, 1, 3]


def _lg(n, p, seed, p_a=0.5):
    v, e = gen.random_attributed_graph(n, p, seed=seed, p_a=p_a)
    lg = LocalGraph.from_pandas(v, e)
    lg.recolor()
    return lg


def _all_bounds(lg, delta):
    return {
        "s": bounds.ub_size(lg),
        "a": bounds.ub_attr(lg, delta),
        "c": bounds.ub_color(lg),
        "ac": bounds.ub_attr_color(lg, delta),
        "eac": bounds.ub_en_attr_color(lg, delta),
        "deg": bounds.ub_degeneracy(lg),
        "h": bounds.ub_h_index(lg),
        "cd": bounds.ub_colorful_degeneracy(lg, delta),
        "ch": bounds.ub_colorful_h(lg, delta),
        "cp": bounds.ub_colorful_path(lg),
    }


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("delta", DELTAS)
def test_every_bound_dominates_optimum(seed, delta):
    """Soundness: each ub ≥ brute-force max fair clique size, all k."""
    lg = _lg(22, 0.5, seed)
    ubs = _all_bounds(lg, delta)
    for k in (1, 2, 3):
        opt = brute_force_size(lg, k, delta)
        for name, ub in ubs.items():
            assert ub >= opt, f"ub_{name}={ub} < opt={opt} (k={k}, δ={delta})"


@pytest.mark.parametrize("seed", range(5))
def test_bound_orderings(seed):
    """Known dominance relations between bounds."""
    lg = _lg(25, 0.4, seed)
    delta = 2
    u = _all_bounds(lg, delta)
    assert u["c"] <= u["s"]
    assert u["a"] <= u["s"] + delta
    assert u["ac"] <= 2 * u["c"]  # per-attr colors ≤ total colors each
    assert u["eac"] <= u["ac"]  # enhanced assignment is tighter
    assert u["deg"] <= u["h"]  # degeneracy ≤ h-index (classic)
    assert u["cp"] <= u["c"]  # a colorful path uses distinct colors


def test_fair_pair_formula():
    assert bounds.fair_pair(4, 4, 0) == 8
    assert bounds.fair_pair(6, 3, 1) == 7
    assert bounds.fair_pair(6, 3, 3) == 9
    assert bounds.fair_pair(0, 9, 2) == 2


def test_ub_eac_counterexample_from_design():
    """The printed Lemma 9 formula would give 3 here; a fair clique of 6
    exists (DESIGN.md §3.3.2) — our corrected form must return ≥ 6."""
    # 5 exclusive-a colors, 0 exclusive-b, 3 mixed colors, δ=0.
    # Build: a K6 clique of 3 a's and 3 b's where each b shares its color
    # with an external a vertex (making those colors mixed).
    ids = list(range(9))
    attrs = ["a", "a", "a", "b", "b", "b", "a", "a", "a"]
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    v = pd.DataFrame({"id": ids, "attr": attrs})
    e = pd.DataFrame(pairs, columns=["src", "dst"])
    lg = LocalGraph.from_pandas(v, e)
    # Hand-assign a proper coloring: clique gets colors 0..5; externals
    # 6,7,8 reuse the b-vertices' colors (3,4,5) making them mixed.
    lg.color = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 3, 7: 4, 8: 5}
    got = bounds.ub_en_attr_color(lg, 0)
    assert got >= 6
    assert lg.is_fair_clique([0, 1, 2, 3, 4, 5], k=3, delta=0)


def test_ub_colorful_path_on_clique():
    v = pd.DataFrame({"id": range(5), "attr": ["a", "b"] * 2 + ["a"]})
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    lg = LocalGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    lg.recolor()
    assert bounds.ub_colorful_path(lg) == 5


def test_ub_colorful_path_matches_brute_force_dp():
    """DP result == brute-force longest colorful path on small graphs."""
    import itertools

    for seed in range(4):
        lg = _lg(9, 0.45, seed)
        # Brute force: longest sequence of vertices, pairwise-adjacent
        # consecutive, all colors distinct, ordered by (color, id).
        verts = sorted(lg.adj, key=lambda x: (lg.color[x], x))
        best = 1
        # DFS over the DAG.
        def dfs(v, length):
            nonlocal best
            best = max(best, length)
            for u in lg.adj[v]:
                if (lg.color[u], u) > (lg.color[v], v):
                    dfs(u, length + 1)
        for v in verts:
            dfs(v, 1)
        assert bounds.ub_colorful_path(lg) == best


def test_ub_on_empty_graph():
    lg = LocalGraph(adj={}, attr={})
    assert bounds.ub_size(lg) == 0
    assert bounds.ub_attr(lg, 1) == 0
    assert bounds.ub_color(lg) == 0
    assert bounds.ub_colorful_path(lg) == 0


@pytest.mark.parametrize("combo", bounds.COMBOS)
def test_compute_ub_combos(combo):
    lg = _lg(20, 0.4, seed=1)
    ub = bounds.compute_ub(lg, 2, combo)
    assert ub >= brute_force_size(lg, 2, 2)
    if combo != "s":
        assert ub <= bounds.ub_size(lg)


def test_compute_ub_rejects_unknown():
    lg = _lg(5, 0.5, seed=0)
    with pytest.raises(ValueError):
        bounds.compute_ub(lg, 1, "ad+nope")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(6, 14),
    p=st.floats(0.2, 0.8),
    seed=st.integers(0, 10_000),
    delta=st.integers(0, 3),
    k=st.integers(1, 3),
)
def test_bounds_sound_property(n, p, seed, delta, k):
    """Property-based soundness sweep over random instances."""
    lg = _lg(n, p, seed)
    opt = brute_force_size(lg, k, delta)
    for name, ub in _all_bounds(lg, delta).items():
        assert ub >= opt, f"ub_{name} unsound on n={n} p={p} seed={seed}"
