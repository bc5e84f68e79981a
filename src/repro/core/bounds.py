"""Upper bounds on MRFC(R, C) — the max fair-clique size in a branch.

Implements the paper's full bound family (Lemmas 5–14). Each bound takes
the induced ``LocalGraph`` of R ∪ C (recolored locally, as the paper
recolors G' per branch) and returns an integer upper bound on the size
of any (k, δ)-fair clique inside it.

Soundness adjustments vs. the printed lemmas (DESIGN.md §3.3):

- Lemma 9's printed formula can undercut valid cliques; we use the
  derivation the text describes (assign mixed color groups to the scarce
  attribute): ``T`` if balanceable within δ else ``2·(min+c_m)+δ``.
- Degeneracy/h-index bound |K|−1, not |K|, so Lemmas 10–13 get a ``+1``
  (``△+1``, ``h+1``, ``2·(ccore_max+1)+δ``, ``2·(h̄+1)+δ``), each capped
  by |V(G')|. Validity of every bound is tested against brute force.
"""
from __future__ import annotations

from repro.graph.local import LocalGraph, h_index
from repro.core.colorgroups import GroupCounter, groups_of
from repro.core.order import colorful_dmin_per_vertex, colorful_peel

#: Table-II bound configurations: ub_AD = min(ub_s, ub_a, ub_c, ub_ac,
#: ub_eac); the rest add one advanced bound on top.
COMBOS = ("s", "ad", "ad+deg", "ad+h", "ad+cd", "ad+ch", "ad+cp")


def fair_pair(x: int, y: int, delta: int) -> int:
    """Lemma 6: max total of a pair capped at counts (x, y) with |diff| ≤ δ."""
    if abs(x - y) <= delta:
        return x + y
    return 2 * min(x, y) + delta


def _groups(sub: LocalGraph) -> GroupCounter:
    """(c_a, c_b, c_m) over all of G': colors exclusive to a, to b, mixed."""
    sub.ensure_colors()
    return groups_of(sub, sub.adj)


# -- Lemma 5–9: the "advanced" group ub_AD -----------------------------

def ub_size(sub: LocalGraph) -> int:
    """Lemma 5: |R| + |C|."""
    return sub.n


def ub_attr(sub: LocalGraph, delta: int) -> int:
    """Lemma 6: attribute counts with the δ balance cap."""
    na, nb = sub.attr_counts(sub.adj)
    return fair_pair(na, nb, delta)


def ub_color(sub: LocalGraph) -> int:
    """Lemma 7: number of colors of a greedy coloring of G'."""
    gc = _groups(sub)
    return gc.c_a + gc.c_b + gc.c_m


def ub_attr_color(sub: LocalGraph, delta: int) -> int:
    """Lemma 8: per-attribute color counts with the δ balance cap."""
    gc = _groups(sub)
    return fair_pair(gc.sup_a, gc.sup_b, delta)


def ub_en_attr_color(sub: LocalGraph, delta: int) -> int:
    """Lemma 9 (corrected form): exclusive/mixed color-group bound."""
    return _en_attr_color(_groups(sub), delta)


def _en_attr_color(gc: GroupCounter, delta: int) -> int:
    lo, hi = min(gc.c_a, gc.c_b), max(gc.c_a, gc.c_b)
    if lo + gc.c_m >= hi - delta:
        return gc.c_a + gc.c_b + gc.c_m
    return 2 * (lo + gc.c_m) + delta


def ub_advanced(sub: LocalGraph, delta: int) -> int:
    """ub_AD: min of the five cheap bounds (paper §VI-A grouping).

    Lemmas 7–9 all read the same color groups, counted once here.
    """
    gc = _groups(sub)
    return min(
        ub_size(sub),
        ub_attr(sub, delta),
        gc.c_a + gc.c_b + gc.c_m,
        fair_pair(gc.sup_a, gc.sup_b, delta),
        _en_attr_color(gc, delta),
    )


# -- Lemmas 10–11: classic structural bounds ---------------------------

def ub_degeneracy(sub: LocalGraph) -> int:
    """Lemma 10 (sound form): clique size ≤ degeneracy + 1."""
    return min(sub.n, sub.degeneracy() + 1)


def ub_h_index(sub: LocalGraph) -> int:
    """Lemma 11 (sound form): clique size ≤ h-index + 1."""
    return min(sub.n, sub.h_index() + 1)


# -- Lemmas 12–14: colorful structural bounds --------------------------

def ub_colorful_degeneracy(sub: LocalGraph, delta: int) -> int:
    """Lemma 12 (sound form).

    Every vertex of a fair clique with counts (x_a, x_b) has colorful
    core number ≥ min(x_a, x_b) − 1, so
    size ≤ 2·(colorful degeneracy + 1) + δ.
    """
    _, _, cdeg = colorful_peel(sub)
    return min(sub.n, 2 * (cdeg + 1) + delta)


def ub_colorful_h(sub: LocalGraph, delta: int) -> int:
    """Lemma 13 (sound form): size ≤ 2·(colorful h-index + 1) + δ."""
    dmins = list(colorful_dmin_per_vertex(sub).values())
    return min(sub.n, 2 * (h_index(dmins) + 1) + delta)


def ub_colorful_path(sub: LocalGraph) -> int:
    """Lemma 14 / Algorithm 4: longest colorful path in the color DAG.

    Edges are oriented low→high by (color, id); proper coloring makes
    every directed path strictly color-increasing, hence colorful, and
    every clique is such a path. DP over the topological (color, id)
    order gives the longest one in O(V + E).
    """
    sub.ensure_colors()
    if not sub.adj:
        return 0
    verts = sorted(sub.adj, key=lambda v: (sub.color[v], v))
    f = {v: 1 for v in verts}
    best = 1
    for v in verts:  # topological order of the DAG
        kv = (sub.color[v], v)
        for u in sub.adj[v]:
            if (sub.color[u], u) < kv:  # edge u -> v
                if f[u] + 1 > f[v]:
                    f[v] = f[u] + 1
        best = max(best, f[v])
    return best


def compute_ub(sub: LocalGraph, delta: int, combo: str) -> int:
    """Evaluate a Table-II bound configuration on the branch subgraph."""
    if combo == "s":
        return ub_size(sub)
    base = ub_advanced(sub, delta)
    if combo == "ad":
        return base
    extra = combo.split("+", 1)[1]
    if extra == "deg":
        return min(base, ub_degeneracy(sub))
    if extra == "h":
        return min(base, ub_h_index(sub))
    if extra == "cd":
        return min(base, ub_colorful_degeneracy(sub, delta))
    if extra == "ch":
        return min(base, ub_colorful_h(sub, delta))
    if extra == "cp":
        return min(base, ub_colorful_path(sub))
    raise ValueError(f"unknown bound combo: {combo}")
