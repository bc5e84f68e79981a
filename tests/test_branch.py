"""Branch-and-bound correctness: equality with brute force everywhere."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import gen
from repro.graph.local import LocalGraph
from repro.core.baseline import brute_force_size
from repro.core.bounds import COMBOS
from repro.core.branch import branch_search
from repro.core.heuristic import heur_rfc


def _lg(n, p, seed, p_a=0.5):
    v, e = gen.random_attributed_graph(n, p, seed=seed, p_a=p_a)
    return LocalGraph.from_pandas(v, e)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k,delta", [(1, 0), (1, 2), (2, 1), (3, 2)])
def test_search_matches_brute_force(seed, k, delta):
    lg = _lg(20, 0.5, seed)
    res = branch_search(lg, k, delta, ub_combo="ad")
    assert res.completed
    assert len(res.clique) == brute_force_size(lg, k, delta)
    if res.clique:
        assert lg.is_fair_clique(res.clique, k, delta)


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("seed", range(4))
def test_all_ub_combos_agree(combo, seed):
    lg = _lg(22, 0.45, seed)
    expect = brute_force_size(lg, 2, 1)
    res = branch_search(lg, 2, 1, ub_combo=combo)
    assert len(res.clique) == expect, f"combo={combo}"


@pytest.mark.parametrize("seed", range(4))
def test_basic_node_prune_agrees(seed):
    lg = _lg(18, 0.5, seed)
    a = branch_search(lg, 2, 1, ub_combo="s", node_prune="basic")
    b = branch_search(lg, 2, 1, ub_combo="ad+cd", node_prune="attr")
    assert len(a.clique) == len(b.clique)


def test_attr_pruning_reduces_nodes():
    lg = _lg(40, 0.45, seed=7)
    basic = branch_search(lg, 3, 1, ub_combo="s", node_prune="basic")
    pruned = branch_search(lg, 3, 1, ub_combo="ad+cd", node_prune="attr")
    assert len(basic.clique) == len(pruned.clique)
    assert pruned.nodes <= basic.nodes


def test_heuristic_seed_preserves_optimum():
    lg = _lg(35, 0.4, seed=3)
    k, delta = 2, 1
    h = heur_rfc(lg, k, delta)
    res = branch_search(h.graph if h.clique else lg, k, delta,
                        ub_combo="ad+cp", best_init=h.clique)
    assert len(res.clique) == brute_force_size(lg, k, delta)


def test_planted_answer_found_exactly():
    v, e = gen.random_attributed_graph(60, 0.08, seed=11)
    edges = set(zip(e["src"], e["dst"]))
    gen.plant_fair_clique(edges, v, np.arange(10), cnt_a=5, seed=5)
    lg = LocalGraph.from_pandas(v, gen._edges_frame(edges))
    res = branch_search(lg, 4, 1, ub_combo="ad+cd")
    assert len(res.clique) == brute_force_size(lg, 4, 1) >= 10


def test_unbalanced_planted_clique_trimmed():
    """Planted 9a+3b clique with k=3, δ=1 → best inside it is 7; search
    must trim rather than return the 12-clique."""
    v = pd.DataFrame({"id": range(12), "attr": ["a"] * 9 + ["b"] * 3})
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    lg = LocalGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    res = branch_search(lg, 3, 1, ub_combo="ad")
    assert len(res.clique) == 7
    assert lg.is_fair_clique(res.clique, 3, 1)


def test_no_fair_clique_returns_empty():
    v = pd.DataFrame({"id": range(6), "attr": ["a"] * 6})
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    lg = LocalGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    res = branch_search(lg, 1, 3, ub_combo="ad")
    assert res.clique == []


def test_unfair_best_init_raises():
    """The incumbent seed is checked with a real error, not an assert
    that ``python -O`` would strip."""
    v = pd.DataFrame({"id": range(4), "attr": ["a", "a", "a", "b"]})
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    lg = LocalGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    with pytest.raises(ValueError):
        branch_search(lg, 1, 0, best_init=[0, 1, 3])


def test_time_limit_reports_incomplete():
    lg = _lg(60, 0.6, seed=2)
    res = branch_search(lg, 2, 2, ub_combo="s", node_prune="basic",
                        time_limit=1e-9)
    assert not res.completed or res.seconds < 0.5


def test_paper_literal_ordering_is_incomplete():
    """Documents DESIGN.md §3.3.1: applying the CalColorOD filter at every
    level with strict attribute alternation misses cliques whose O-sorted
    attribute pattern is not alternating. Our search finds the optimum on
    such an instance; a literal-alternation simulation cannot."""
    # Clique {a1, a2, b1, b2} where the total order is a1<a2<b1<b2.
    v = pd.DataFrame({"id": [0, 1, 2, 3], "attr": ["a", "a", "b", "b"]})
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    lg = LocalGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    order = [0, 1, 2, 3]
    pos = {u: i for i, u in enumerate(order)}

    found = []

    def literal(R, C, attr_choose):
        """Algorithm 3 taken literally: alternate + O-filter everywhere."""
        if not C:
            found.append(list(R))
            return
        cattr = [u for u in C if lg.attr[u] == attr_choose]
        if not cattr:
            literal(R, C, "b" if attr_choose == "a" else "a")
            return
        for u in cattr:
            newC = [x for x in C if x in lg.adj[u] and pos[x] > pos[u]]
            literal(R + [u], newC, "b" if attr_choose == "a" else "a")

    literal([], order, "a")
    assert max((len(r) for r in found), default=0) < 4  # literal misses K4
    res = branch_search(lg, 2, 0, ub_combo="ad")
    assert len(res.clique) == 4  # ours finds it


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 16),
    p=st.floats(0.25, 0.75),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    delta=st.integers(0, 2),
)
def test_search_equals_brute_force_property(n, p, seed, k, delta):
    lg = _lg(n, p, seed)
    res = branch_search(lg, k, delta, ub_combo="ad+cp")
    assert len(res.clique) == brute_force_size(lg, k, delta)
