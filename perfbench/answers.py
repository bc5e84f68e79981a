"""Answer check for every query: fair clique of the input, oracle size.

The oracle is ``repro.core.baseline.brute_force_max_fair_clique`` on the
input graph. A clique never spans two connected components, so the
oracle runs once per component, in worker processes, and the answer is
the largest result. It runs after the timed queries, and its sizes are
cached by a digest of the input graph and (k, δ).
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pandas as pd


def fairness_failure(clique, vertices: pd.DataFrame, edges: pd.DataFrame, k: int, delta: int) -> str | None:
    """Why ``clique`` is not a (k, δ)-fair clique of the input, or None."""
    members = [int(v) for v in clique]
    if len(set(members)) != len(members):
        return "repeated vertex"
    attr = dict(zip(vertices["id"].tolist(), vertices["attr"].tolist()))
    if any(v not in attr for v in members):
        return "vertex not in the input graph"
    inside = set(members)
    sub = edges[edges["src"].isin(inside) & edges["dst"].isin(inside)]
    if len(sub) != len(members) * (len(members) - 1) // 2:
        return "not a clique of the input graph"
    na = sum(1 for v in members if attr[v] == "a")
    nb = len(members) - na
    if na < k or nb < k or abs(na - nb) > delta:
        return f"not fair: {na} a, {nb} b for k={k}, delta={delta}"
    return None


def answer_failure(clique, completed: bool, oracle: int, vertices, edges, k: int, delta: int) -> str | None:
    """Why a query's answer is wrong, or None when it is right."""
    if not completed:
        return "search did not complete"
    if clique or oracle:
        why = fairness_failure(clique, vertices, edges, k, delta)
        if why:
            return why
    if len(clique) != oracle:
        return f"size {len(clique)} but the oracle found {oracle}"
    return None


def _components(vertices: pd.DataFrame, edges: pd.DataFrame, min_size: int):
    """Connected components with at least ``min_size`` vertices."""
    ids = vertices["id"].to_numpy()
    parent = {int(v): int(v) for v in ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(edges["src"].tolist(), edges["dst"].tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = np.array([find(int(v)) for v in ids])
    for r in np.unique(roots):
        keep = ids[roots == r]
        if len(keep) < min_size:
            continue
        vs = vertices[vertices["id"].isin(keep)]
        es = edges[edges["src"].isin(keep)]
        yield vs, es


def _oracle_part(vertices: pd.DataFrame, edges: pd.DataFrame, k: int, delta: int) -> int:
    from repro.core.baseline import brute_force_max_fair_clique
    from repro.graph.local import LocalGraph

    return len(brute_force_max_fair_clique(LocalGraph.from_pandas(vertices, edges), k, delta))


def digest(vertices: pd.DataFrame, edges: pd.DataFrame, k: int, delta: int) -> str:
    h = hashlib.sha256(f"{k},{delta};".encode())
    h.update(vertices["id"].to_numpy(dtype="int64").tobytes())
    h.update("".join(vertices["attr"].tolist()).encode())
    h.update(edges[["src", "dst"]].to_numpy(dtype="int64").tobytes())
    return h.hexdigest()


def oracle_sizes(graphs, k: int, delta: int, cache: Path, workers: int) -> list[int]:
    """Oracle size for each (vertices, edges) in ``graphs``."""
    cache.mkdir(parents=True, exist_ok=True)
    keys = [digest(v, e, k, delta) for v, e in graphs]
    sizes: dict[int, int] = {}
    fresh, todo = [], []
    for i, key in enumerate(keys):
        path = cache / f"{key}.json"
        if path.exists():
            sizes[i] = json.loads(path.read_text())["size"]
        else:
            fresh.append(i)
            todo.extend((i, vs, es) for vs, es in _components(*graphs[i], 2 * k))
            sizes[i] = 0
    if todo:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futs = [(i, pool.submit(_oracle_part, vs, es, k, delta)) for i, vs, es in todo]
            for i, fut in futs:
                sizes[i] = max(sizes[i], fut.result())
    for i in fresh:
        (cache / f"{keys[i]}.json").write_text(json.dumps({"size": sizes[i]}))
    return [sizes[i] for i in range(len(graphs))]
