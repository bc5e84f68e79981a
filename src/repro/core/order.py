"""Colorful-core peeling: ordering (CalColorOD) and colorful degeneracy.

The branch-and-bound processes root vertices in the *colorful core based
ordering* of [23], [24]: repeatedly remove the vertex with the smallest
current ``D_min = min(D_a, D_b)`` (colorful degrees, Def. 2); the
removal sequence is the ordering. The running maximum of the removal
values is the **colorful degeneracy** (Def. 9), and per-vertex colorful
core numbers (Def. 8) follow the standard generalized-peeling argument
(D_min is monotone under vertex removal).
"""
from __future__ import annotations

import heapq

from repro.core.colorgroups import neighbor_groups
from repro.graph.local import LocalGraph


def colorful_peel(lg: LocalGraph) -> tuple[list[int], dict[int, int], int]:
    """Peel by min colorful degree.

    Returns (removal order, ccore numbers per vertex, colorful degeneracy).
    Requires/creates a proper coloring on ``lg``.
    """
    lg.ensure_colors()
    groups = neighbor_groups(lg)

    def dmin(v: int) -> int:
        return min(groups[v].sup_a, groups[v].sup_b)

    heap = [(dmin(v), v) for v in lg.adj]
    heapq.heapify(heap)
    alive = set(lg.adj)
    order: list[int] = []
    ccore: dict[int, int] = {}
    running = 0
    while heap:
        val, v = heapq.heappop(heap)
        if v not in alive or val != dmin(v):
            continue  # stale heap entry
        alive.discard(v)
        running = max(running, val)
        ccore[v] = running
        order.append(v)
        for u in lg.adj[v]:
            if u not in alive:
                continue
            before = dmin(u)
            groups[u].remove(lg.color[v], lg.attr[v])
            if dmin(u) != before:
                heapq.heappush(heap, (dmin(u), u))
    degeneracy = max(ccore.values(), default=0)
    return order, ccore, degeneracy


def cal_color_od(lg: LocalGraph) -> list[int]:
    """CalColorOD: the colorful-core peeling order used for root vertices."""
    order, _, _ = colorful_peel(lg)
    return order


def colorful_dmin_per_vertex(lg: LocalGraph) -> dict[int, int]:
    """D_min(v) = min(D_a, D_b) for every vertex (Def. 2 / Def. 10)."""
    lg.ensure_colors()
    return {v: min(gc.sup_a, gc.sup_b) for v, gc in neighbor_groups(lg).items()}
