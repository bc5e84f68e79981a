"""Synthetic attributed-graph generators (pandas-level, deterministic).

The paper evaluates on six real graphs (its Table I). Those are not
available offline, so we synthesize six analogues with the same
qualitative character (see DESIGN.md §4). Generators return plain pandas
frames — ``vertices (id:int64, attr:str)`` and ``edges (src:int64,
dst:int64)`` with ``src < dst``, deduplicated, no self loops — so that
driver-side tests can build a ``LocalGraph`` without Spark, and Spark
tests lift them with ``to_spark``.

Attributes follow the paper's protocol: uniform random 50/50 for the
five originally non-attributed graphs, skewed for the Aminer analogue.
Each dataset plants a few fair cliques with controlled attribute counts
so maximum-fair-clique answers are structurally interesting at the
paper's own (k, δ) grids.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.colorgroups import ATTR_A, ATTR_B


def _edges_frame(pairs: set[tuple[int, int]]) -> pd.DataFrame:
    """Canonical edge frame from a set of (u, v) pairs (any orientation)."""
    canon = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    if not canon:
        return pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")})
    arr = np.array(sorted(canon), dtype="int64")
    return pd.DataFrame({"src": arr[:, 0], "dst": arr[:, 1]})


def _attrs(n: int, rng: np.random.Generator, p_a: float = 0.5) -> pd.DataFrame:
    attr = np.where(rng.random(n) < p_a, ATTR_A, ATTR_B)
    return pd.DataFrame({"id": np.arange(n, dtype="int64"), "attr": attr})


def gnp(n: int, p: float, *, seed: int = 0) -> set[tuple[int, int]]:
    """Erdős–Rényi G(n, p) edge set (dense sampling — use for small n)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return set(zip(iu[mask].tolist(), ju[mask].tolist()))


def powerlaw(n: int, m_per_vertex: int, *, seed: int = 0) -> set[tuple[int, int]]:
    """Barabási–Albert-style preferential attachment: heavy-tailed degrees."""
    rng = np.random.default_rng(seed)
    m = max(1, m_per_vertex)
    edges: set[tuple[int, int]] = set()
    # Repeated-endpoint list realizes preferential attachment in O(1)/draw.
    targets = list(range(m + 1))
    for u in range(m + 1, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(targets[rng.integers(0, len(targets))])
        for v in chosen:
            edges.add((min(u, v), max(u, v)))
            targets.append(v)
        targets.extend([u] * m)
    return edges


def affiliation(
    n: int,
    n_comm: int,
    size_lo: int,
    size_hi: int,
    *,
    noise: int = 0,
    seed: int = 0,
) -> set[tuple[int, int]]:
    """Clique-affiliation graph: union of overlapping community cliques.

    Collaboration networks (DBLP, Aminer) are near-unions of paper-team
    cliques; this generator reproduces that structure, which is the
    regime where fair-clique search is non-trivial.
    """
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    for _ in range(n_comm):
        size = int(rng.integers(size_lo, size_hi + 1))
        members = rng.choice(n, size=min(size, n), replace=False)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                u, v = int(members[i]), int(members[j])
                edges.add((min(u, v), max(u, v)))
    for _ in range(noise):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return edges


def plant_fair_clique(
    edges: set[tuple[int, int]],
    vertices: pd.DataFrame,
    members: np.ndarray,
    cnt_a: int,
    *,
    seed: int = 0,
) -> None:
    """Make ``members`` a clique and force its attribute counts in place.

    The first ``cnt_a`` members get attribute a, the rest b; this pins a
    fair clique with known (cnt_a, cnt_b) into the graph.
    """
    rng = np.random.default_rng(seed)
    members = np.asarray(members)
    perm = rng.permutation(len(members))
    a_ids = members[perm[:cnt_a]]
    b_ids = members[perm[cnt_a:]]
    vertices.loc[vertices["id"].isin(a_ids), "attr"] = ATTR_A
    vertices.loc[vertices["id"].isin(b_ids), "attr"] = ATTR_B
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            u, v = int(members[i]), int(members[j])
            edges.add((min(u, v), max(u, v)))


def clique_storm(
    edges: set[tuple[int, int]],
    n: int,
    pool_size: int,
    n_cliques: int,
    size_lo: int,
    size_hi: int,
    *,
    seed: int = 0,
) -> None:
    """Overlay many overlapping cliques drawn from a shared vertex pool.

    The unions and intersections of these cliques create a dense region
    with many maximal cliques of varying attribute balance — the regime
    where branch-and-bound actually has to search and the paper's upper
    bounds / heuristic seeding earn their keep. Attributes are left as
    assigned (random), so fairness varies across the storm's cliques.
    """
    rng = np.random.default_rng(seed)
    pool = rng.choice(n, size=min(pool_size, n), replace=False)
    for _ in range(n_cliques):
        size = int(rng.integers(size_lo, size_hi + 1))
        members = rng.choice(pool, size=min(size, len(pool)), replace=False)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                u, v = int(members[i]), int(members[j])
                edges.add((min(u, v), max(u, v)))


def _with_plants(
    edges: set[tuple[int, int]],
    vertices: pd.DataFrame,
    plants: list[tuple[int, int]],
    *,
    seed: int,
) -> None:
    """Plant one fair clique per (size, cnt_a) spec on disjoint vertex sets."""
    rng = np.random.default_rng(seed)
    n = len(vertices)
    used: set[int] = set()
    for idx, (size, cnt_a) in enumerate(plants):
        pool = np.array([v for v in range(n) if v not in used], dtype="int64")
        members = rng.choice(pool, size=size, replace=False)
        used.update(int(x) for x in members)
        plant_fair_clique(edges, vertices, members, cnt_a, seed=seed + 97 * idx + 1)


def _dataset(
    base_edges: set[tuple[int, int]],
    n: int,
    plants: list[tuple[int, int]],
    *,
    seed: int,
    p_a: float = 0.5,
    storm: tuple[int, int, int, int] | None = None,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    vertices = _attrs(n, np.random.default_rng(seed + 13), p_a=p_a)
    if storm is not None:
        pool, cnt, lo, hi = storm
        clique_storm(base_edges, n, pool, cnt, lo, hi, seed=seed + 71)
    _with_plants(base_edges, vertices, plants, seed=seed + 29)
    return vertices, _edges_frame(base_edges)


def _scaled(x: int, scale: float, lo: int = 8) -> int:
    return max(lo, int(round(x * scale)))


# ---------------------------------------------------------------------------
# Named datasets — synthetic analogues of the paper's Table I graphs.
# Each returns (vertices_pdf, edges_pdf). ``scale=1.0`` is benchmark size;
# tests use scale≈0.2. Planted fair-clique sizes are chosen so the paper's
# own k grids (see DESIGN.md §4) have non-trivial answers.
# ---------------------------------------------------------------------------

def themarker(scale: float = 1.0, seed: int = 11) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Dense social network analogue (paper k∈[2,6], δ def 3)."""
    n = _scaled(900, scale)
    edges = powerlaw(n, 6, seed=seed)
    plants = [(16, 8), (14, 8), (12, 6), (10, 5)]
    return _dataset(edges, n, plants, seed=seed, storm=(50, 20, 8, 15))


def google(scale: float = 1.0, seed: int = 23) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Sparse web-graph analogue with deep cliques (paper k∈[5,9], def 7)."""
    n = _scaled(1600, scale)
    edges = powerlaw(n, 3, seed=seed)
    plants = [(22, 11), (20, 9), (18, 9), (16, 8)]
    return _dataset(edges, n, plants, seed=seed, storm=(60, 22, 12, 20))


def dblp(scale: float = 1.0, seed: int = 37) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Collaboration-network analogue: overlapping community cliques."""
    n = _scaled(1200, scale)
    edges = affiliation(n, _scaled(130, scale), 4, 14, noise=_scaled(200, scale), seed=seed)
    plants = [(22, 10), (20, 10), (18, 9)]
    return _dataset(edges, n, plants, seed=seed, storm=(55, 22, 12, 19))


def flixster(scale: float = 1.0, seed: int = 41) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Large sparse social analogue (paper k∈[2,6], def 3)."""
    n = _scaled(2000, scale)
    edges = powerlaw(n, 4, seed=seed)
    plants = [(15, 7), (13, 6), (11, 5), (9, 4)]
    return _dataset(edges, n, plants, seed=seed, storm=(60, 24, 6, 13))


def pokec(scale: float = 1.0, seed: int = 53) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Dense uniform-core social analogue (paper k∈[3,7], def 4)."""
    n = _scaled(800, scale)
    edges = gnp(n, min(1.0, 14.0 / max(n - 1, 1)), seed=seed)
    plants = [(18, 9), (16, 7), (14, 7), (12, 6)]
    return _dataset(edges, n, plants, seed=seed, storm=(50, 22, 7, 15))


def aminer(scale: float = 1.0, seed: int = 67) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Collaboration analogue with *skewed* attributes (real-attr stand-in)."""
    n = _scaled(700, scale)
    edges = affiliation(n, _scaled(90, scale), 4, 12, noise=_scaled(120, scale), seed=seed)
    plants = [(18, 8), (16, 8), (14, 6)]
    return _dataset(edges, n, plants, seed=seed, p_a=0.45, storm=(45, 20, 10, 16))


DATASETS = {
    "themarker": themarker,
    "google": google,
    "dblp": dblp,
    "flixster": flixster,
    "pokec": pokec,
    "aminer": aminer,
}

# The paper's parameter grids (§VI-A), kept verbatim: (k values, default k,
# δ values, default δ).
PARAM_GRID = {
    "themarker": ([2, 3, 4, 5, 6], 6, [1, 2, 3, 4, 5], 3),
    "google": ([5, 6, 7, 8, 9], 7, [1, 2, 3, 4, 5], 4),
    "dblp": ([5, 6, 7, 8, 9], 7, [1, 2, 3, 4, 5], 4),
    "flixster": ([2, 3, 4, 5, 6], 3, [1, 2, 3, 4, 5], 3),
    "pokec": ([3, 4, 5, 6, 7], 4, [1, 2, 3, 4, 5], 4),
    "aminer": ([4, 5, 6, 7, 8], 6, [1, 2, 3, 4, 5], 4),
}


def random_attributed_graph(
    n: int, p: float, *, seed: int = 0, p_a: float = 0.5
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Small random attributed graph — workhorse for randomized tests."""
    edges = gnp(n, p, seed=seed)
    vertices = _attrs(n, np.random.default_rng(seed + 1), p_a=p_a)
    return vertices, _edges_frame(edges)
