"""Algorithm-1 queue peel: three-way equivalence and hybrid pipeline."""
import pytest

from repro.graph import gen
from repro.graph.local import LocalGraph
from repro.core import reference as ref
from repro.core.colorgroups import GroupCounter
from repro.core.local_peel import (
    apply_local_stage,
    local_sup_peel,
    local_vertex_peel,
)


def _lg(n=30, p=0.35, seed=0):
    v, e = gen.random_attributed_graph(n, p, seed=seed)
    lg = LocalGraph.from_pandas(v, e)
    lg.recolor()
    return lg


def test_group_counter_add_remove():
    gc = GroupCounter()
    gc.add(1, "a")
    gc.add(1, "a")
    gc.add(2, "b")
    assert (gc.c_a, gc.c_b, gc.c_m) == (1, 1, 0)
    gc.add(1, "b")  # color 1 becomes mixed
    assert (gc.c_a, gc.c_b, gc.c_m) == (0, 1, 1)
    gc.remove(1, "b")  # back to exclusive a
    assert (gc.c_a, gc.c_b, gc.c_m) == (1, 1, 0)
    gc.remove(1, "a")
    gc.remove(1, "a")
    assert (gc.c_a, gc.c_b, gc.c_m) == (0, 1, 0)
    assert 1 not in gc.counts


def test_group_counter_derived():
    gc = GroupCounter()
    for c, a in [(0, "a"), (1, "a"), (2, "b"), (3, "a"), (3, "b")]:
        gc.add(c, a)
    assert gc.sup_a == 3 and gc.sup_b == 2
    assert gc.ed == min(3, 2, (2 + 1 + 1) // 2)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,enhanced", [(2, False), (2, True), (3, False), (3, True)])
def test_sup_peel_matches_reference(seed, k, enhanced):
    lg = _lg(seed=seed)
    fast = local_sup_peel(lg, k, enhanced=enhanced)
    slow = ref.reference_sup_peel(lg, k, enhanced=enhanced)
    assert fast == slow


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("t,enhanced", [(2, False), (2, True), (3, True)])
def test_vertex_peel_matches_reference(seed, t, enhanced):
    lg = _lg(seed=seed)
    fast = local_vertex_peel(lg, t, enhanced=enhanced)
    slow = ref.reference_core_peel(lg, t, enhanced=enhanced)
    assert fast == slow


def test_vertex_peel_zero_threshold():
    lg = _lg(seed=1)
    assert local_vertex_peel(lg, 0, enhanced=True) == set(lg.adj)


def test_apply_local_stage_chain_preserves_optimum():
    from repro.core.baseline import brute_force_size

    lg = _lg(n=26, p=0.45, seed=3)
    k, delta = 2, 1
    opt = brute_force_size(lg, k, delta)
    cur = lg
    for s in ("encore", "sup", "ensup"):
        cur = apply_local_stage(cur, s, k)
    assert brute_force_size(cur, k, delta) == opt
    # Fixpoint: re-applying changes nothing.
    again = apply_local_stage(cur, "ensup", k)
    assert again.n == cur.n and again.m == cur.m


def test_apply_local_stage_rejects_unknown():
    with pytest.raises(ValueError):
        apply_local_stage(_lg(seed=0), "bogus", 2)


def test_hybrid_pipeline_equals_distributed(spark):
    """reduce_pipeline with local handoff == pure distributed pipeline."""
    from repro.graph.builder import from_pandas
    from repro.core.reduction import reduce_pipeline

    v, e = gen.DATASETS["aminer"](scale=0.25)
    g = from_pandas(spark, v, e).checkpointed()
    k = 4
    pure = reduce_pipeline(g, k, local_threshold=0)
    hybrid = reduce_pipeline(g, k, colors=pure.colors, local_threshold=10**9)
    ep_pure = set(map(tuple, pure.graph.edges.toPandas().values))
    ep_hyb = set(map(tuple, hybrid.graph.edges.toPandas().values))
    assert ep_pure == ep_hyb
    assert pure.stage_dict()["ensup"] == hybrid.stage_dict()["ensup"]
