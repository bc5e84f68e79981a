"""Efficient driver-side peeling — the paper's Algorithm 1, literally.

The distributed batch peel (repro.core.reduction) is the right tool
while the graph is large, but a truss-style cascade can spend many
rounds removing a handful of edges each — and every Spark round costs a
scheduler round-trip. Once the graph fits comfortably on the driver the
pipeline hands the tail of the peel to these functions, which implement
the paper's own sequential algorithms with a work queue and O(1)
incremental updates (Algorithm 1's ``M_{(u,v)}`` structure):

- ``local_sup_peel``: ColorfulSup / EnColorfulSup to the exact fixpoint
  in O(α·|E|) update work;
- ``local_vertex_peel``: ColorfulCore / EnColorfulCore.

Both compute the same unique maximal subgraph as the distributed batch
peel and the slow-but-obvious ``repro.core.reference`` oracles (tested
three ways against each other).
"""
from __future__ import annotations

from collections import deque

from repro.core.colorgroups import (
    GroupCounter,
    enhanced_support_ok,
    groups_of,
    neighbor_groups,
    thresholds,
)
from repro.graph.local import LocalGraph


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def local_sup_peel(
    lg: LocalGraph, k: int, *, enhanced: bool
) -> set[tuple[int, int]]:
    """(En)ColorfulSup to the exact fixpoint — Algorithm 1 with a queue.

    Plain keeps an edge iff ``sup_a ≥ ka ∧ sup_b ≥ kb``; enhanced iff
    the Def.-7 test of ``repro.core.colorgroups`` passes.
    """
    lg.ensure_colors()
    adj = {v: set(s) for v, s in lg.adj.items()}
    state: dict[tuple[int, int], GroupCounter] = {
        (u, v): groups_of(lg, adj[u] & adj[v])
        for u in adj for v in adj[u] if u < v
    }

    def violates(e: tuple[int, int]) -> bool:
        gc = state[e]
        ka, kb = thresholds(lg.attr[e[0]], lg.attr[e[1]], k)
        if enhanced:
            return not enhanced_support_ok(gc.c_a, gc.c_b, gc.c_m, ka, kb)
        return gc.sup_a < ka or gc.sup_b < kb

    queue = deque(e for e in state if violates(e))
    queued = set(queue)
    alive = set(state)
    while queue:
        e = queue.popleft()
        queued.discard(e)
        if e not in alive:
            continue
        u, v = e
        alive.discard(e)
        adj[u].discard(v)
        adj[v].discard(u)
        small, big = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
        for w in list(adj[small]):
            if w not in adj[big]:
                continue
            # w was a common neighbor: edges (u,w) and (v,w) each lose the
            # removed edge's far endpoint from their common neighborhood.
            for x in (u, v):
                ex = _edge_key(x, w)
                if ex in alive:
                    y = v if x == u else u
                    state[ex].remove(lg.color[y], lg.attr[y])
                    if ex not in queued and violates(ex):
                        queue.append(ex)
                        queued.add(ex)
    return alive


def local_vertex_peel(lg: LocalGraph, t: int, *, enhanced: bool) -> set[int]:
    """(En)ColorfulCore to the exact fixpoint with a queue.

    Plain keeps a vertex iff ``min(D_a, D_b) ≥ t``; enhanced iff
    ``ED ≥ t`` (Def. 4/5).
    """
    if t <= 0:
        return set(lg.adj)
    lg.ensure_colors()
    state = neighbor_groups(lg)

    def violates(v: int) -> bool:
        gc = state[v]
        return (gc.ed if enhanced else min(gc.sup_a, gc.sup_b)) < t

    alive = set(lg.adj)
    queue = deque(v for v in alive if violates(v))
    queued = set(queue)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        if v not in alive:
            continue
        alive.discard(v)
        for u in lg.adj[v]:
            if u in alive:
                state[u].remove(lg.color[v], lg.attr[v])
                if u not in queued and violates(u):
                    queue.append(u)
                    queued.add(u)
    return alive


def apply_local_stage(lg: LocalGraph, stage: str, k: int) -> LocalGraph:
    """One Algorithm-2 reduction stage on a driver-side graph.

    Returns the reduced LocalGraph (isolated vertices dropped for edge
    stages). Colors are preserved (a proper coloring stays proper on
    subgraphs).
    """
    lg.ensure_colors()
    if stage in ("core", "encore"):
        alive = local_vertex_peel(lg, k - 1, enhanced=(stage == "encore"))
        out = lg.subgraph(alive)
    elif stage in ("sup", "ensup"):
        edges = local_sup_peel(lg, k, enhanced=(stage == "ensup"))
        verts = {u for e in edges for u in e}
        out = lg.subgraph(verts)
        for v in list(out.adj):
            out.adj[v] = {
                u for u in out.adj[v] if _edge_key(u, v) in edges
            }
    else:
        raise ValueError(f"unknown reduction stage: {stage}")
    out.color = {v: lg.color[v] for v in out.adj}
    return out
