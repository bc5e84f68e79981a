"""Seeded input generators for the benchmark workloads.

These live in the benchmark, not in ``repro.graph.gen``, so that a change
to the program's own generators cannot silently change what the
benchmark measures. Every function takes a ``numpy.random.Generator``
and returns pandas frames in the shape ``repro.graph.builder.from_pandas``
expects: ``vertices (id: int64, attr: "a"|"b")`` and canonical
``edges (src < dst: int64)``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _frames(n: int, attr: np.ndarray, pairs: set[tuple[int, int]]) -> tuple[pd.DataFrame, pd.DataFrame]:
    vertices = pd.DataFrame({"id": np.arange(n, dtype="int64"), "attr": attr})
    arr = np.array(sorted(pairs), dtype="int64").reshape(-1, 2)
    return vertices, pd.DataFrame({"src": arr[:, 0], "dst": arr[:, 1]})


def _add_clique(pairs: set[tuple[int, int]], members) -> None:
    ms = sorted(int(x) for x in members)
    for i, u in enumerate(ms):
        for v in ms[i + 1:]:
            pairs.add((u, v))


def _random_attrs(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.where(rng.random(n) < 0.5, "a", "b").astype(object)


def _storm(pairs, rng, pool: np.ndarray, n_cliques: int, lo: int, hi: int) -> None:
    """Overlay ``n_cliques`` cliques of size lo..hi drawn from ``pool``."""
    for _ in range(n_cliques):
        size = min(int(rng.integers(lo, hi + 1)), len(pool))
        _add_clique(pairs, rng.choice(pool, size=size, replace=False))


def _plant(pairs, attr: np.ndarray, rng, plants: list[tuple[int, int]]) -> None:
    """Plant one clique per (size, count of a) on disjoint vertex sets."""
    free = rng.permutation(len(attr))
    at = 0
    for size, n_a in plants:
        members = free[at:at + size]
        at += size
        attr[members[:n_a]] = "a"
        attr[members[n_a:]] = "b"
        _add_clique(pairs, members)


def disjoint_union(parts: list[tuple[pd.DataFrame, pd.DataFrame]]) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Relabel and concatenate graphs into one graph with no edges between
    the parts. A query's cost on the union sums (search, triangles) or
    takes the maximum (peel rounds) over independent parts, which is
    steadier across seeds than one part of the same total size."""
    vs, es, offset = [], [], 0
    for v, e in parts:
        vs.append(v.assign(id=v["id"] + offset))
        es.append(e + offset)
        offset += len(v)
    return pd.concat(vs, ignore_index=True), pd.concat(es, ignore_index=True)


def powerlaw_storm(
    rng: np.random.Generator, n: int, storm: tuple[int, int, int, int] = (60, 24, 6, 13)
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Preferential attachment (4 edges per new vertex), a clique storm of
    (pool, cliques, smallest, largest) and four planted fair cliques: the
    flixster-analogue recipe."""
    m = 4
    pairs: set[tuple[int, int]] = set()
    targets = list(range(m + 1))
    for u in range(m + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(targets[int(rng.integers(0, len(targets)))])
        for v in chosen:
            pairs.add((v, u))
            targets.append(v)
        targets.extend([u] * m)
    attr = _random_attrs(n, rng)
    pool, count, lo, hi = storm
    _storm(pairs, rng, rng.choice(n, size=pool, replace=False), count, lo, hi)
    _plant(pairs, attr, rng, [(15, 7), (13, 6), (11, 5), (9, 4)])
    return _frames(n, attr, pairs)


def dense_random(rng: np.random.Generator, n: int, p: float) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Attributed Erdős–Rényi G(n, p)."""
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    pairs = set(zip(iu[mask].tolist(), ju[mask].tolist()))
    return _frames(n, _random_attrs(n, rng), pairs)
