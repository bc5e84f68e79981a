"""Driver-side kernel graph.

After the Spark reductions the surviving graph is small (the paper's
Pokec kernel is 55K edges from 44.6M). The branch-and-bound search, the
heuristics, and the per-branch upper bounds are inherently sequential,
so they run on this collected representation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from repro.core.colorgroups import ATTR_A
from repro.graph.coloring import sequential_greedy


@dataclass
class LocalGraph:
    """Adjacency-set graph with vertex attributes and (optional) colors."""

    adj: dict[int, set[int]]
    attr: dict[int, str]
    color: dict[int, int] = field(default_factory=dict)

    # -- construction -------------------------------------------------
    @classmethod
    def from_pandas(
        cls,
        vertices: pd.DataFrame,
        edges: pd.DataFrame,
        colors: pd.DataFrame | None = None,
    ) -> "LocalGraph":
        attr = dict(zip(vertices["id"].astype(int), vertices["attr"]))
        adj: dict[int, set[int]] = {int(v): set() for v in vertices["id"]}
        for u, v in zip(edges["src"].astype(int), edges["dst"].astype(int)):
            if u == v:
                continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        for v in adj:
            attr.setdefault(v, ATTR_A)
        color = (
            dict(zip(colors["id"].astype(int), colors["color"].astype(int)))
            if colors is not None
            else {}
        )
        return cls(adj=adj, attr=attr, color=color)

    @classmethod
    def from_spark(cls, g, colors=None) -> "LocalGraph":
        """Collect a (small!) Spark AttributedGraph to the driver."""
        vp = g.vertices.toPandas()
        ep = g.edges.toPandas()
        cp = colors.toPandas() if colors is not None else None
        return cls.from_pandas(vp, ep, cp)

    # -- basics --------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def vertices(self) -> list[int]:
        return list(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def recolor(self) -> None:
        """(Re)assign a degree-ordered sequential greedy coloring."""
        self.color = sequential_greedy(self.adj)

    def ensure_colors(self) -> None:
        if set(self.color) < set(self.adj):
            self.recolor()

    def subgraph(self, verts) -> "LocalGraph":
        """Induced subgraph (colors are *not* carried; recolor if needed)."""
        vs = set(verts)
        adj = {v: (self.adj[v] & vs) for v in vs}
        attr = {v: self.attr[v] for v in vs}
        return LocalGraph(adj=adj, attr=attr)

    def is_clique(self, verts) -> bool:
        vs = list(verts)
        return all(
            vs[j] in self.adj[vs[i]]
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        )

    def attr_counts(self, verts) -> tuple[int, int]:
        vs = list(verts)
        na = sum(1 for v in vs if self.attr[v] == ATTR_A)
        return na, len(vs) - na

    def is_fair_clique(self, verts, k: int, delta: int) -> bool:
        vs = list(verts)
        na = sum(1 for v in vs if self.attr[v] == ATTR_A)
        nb = len(vs) - na
        return (
            na >= k and nb >= k and abs(na - nb) <= delta and self.is_clique(vs)
        )

    # -- classic structure metrics -------------------------------------
    def k_core(self, k: int) -> "LocalGraph":
        """Maximal subgraph with min degree ≥ k (peeling)."""
        deg = {v: len(s) for v, s in self.adj.items()}
        stack = [v for v, d in deg.items() if d < k]
        dead = set(stack)
        while stack:
            v = stack.pop()
            for u in self.adj[v]:
                if u in dead:
                    continue
                deg[u] -= 1
                if deg[u] < k:
                    dead.add(u)
                    stack.append(u)
        return self.subgraph(set(self.adj) - dead)

    def degeneracy(self) -> int:
        """Max core number: min-degree peeling with bucket queue."""
        if not self.adj:
            return 0
        deg = {v: len(s) for v, s in self.adj.items()}
        maxd = max(deg.values())
        buckets: list[set[int]] = [set() for _ in range(maxd + 1)]
        for v, d in deg.items():
            buckets[d].add(v)
        seen: set[int] = set()
        best = 0
        for _ in range(len(deg)):
            d = next(i for i in range(maxd + 1) if buckets[i])
            v = buckets[d].pop()
            seen.add(v)
            best = max(best, d)
            for u in self.adj[v]:
                if u in seen:
                    continue
                buckets[deg[u]].discard(u)
                deg[u] -= 1
                buckets[deg[u]].add(u)
        return best

    def h_index(self) -> int:
        """Max h with ≥ h vertices of degree ≥ h."""
        return h_index([len(s) for s in self.adj.values()])


def h_index(values: list[int]) -> int:
    vs = sorted(values, reverse=True)
    h = 0
    for i, v in enumerate(vs, start=1):
        if v >= i:
            h = i
        else:
            break
    return h
