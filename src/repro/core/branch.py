"""Branch-and-bound maximum fair clique search on the reduced kernel.

Implements the search of Algorithms 2–3 with one deliberate fix
(DESIGN.md §3.3.1): the printed pseudo-code applies the CalColorOD
ordering filter at every recursion level *and* strictly alternates
attributes, which is incomplete (see
``tests/test_branch.py::test_paper_literal_ordering_is_incomplete``).
We keep the ordering restriction at the root level only (each clique has
a unique earliest root vertex, so every clique is enumerated exactly
once) and replace the alternation's fairness role with explicit,
provably-sound prunes:

- feasibility: ``cnt_R(x) + cnt_C(x) ≥ k`` for both attributes;
- balance:     ``cnt_R(x) − (cnt_R(y) + cnt_C(y)) ≤ δ``;
- Lemma-6 bound on the achievable counts;
- Lemma-5 size bound (always on, as in the basic framework);
- the configured ub combo (Table II) once per root branch — the paper
  applies the expensive bounds "when selecting vertices to be added to R
  for the first time" (§VI-B).

Fairness is checked at *every* node (it is not monotone: extending a
fair clique can break the δ balance), so the maximum is never missed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.graph.local import LocalGraph
from repro.core.bounds import compute_ub, fair_pair
from repro.core.colorgroups import ATTR_A
from repro.core.order import cal_color_od


@dataclass
class SearchResult:
    """Outcome of a branch-and-bound run."""

    clique: list[int]
    nodes: int = 0
    roots_pruned: int = 0
    completed: bool = True
    seconds: float = 0.0

    @property
    def size(self) -> int:
        return len(self.clique)


@dataclass
class _State:
    lg: LocalGraph
    k: int
    delta: int
    node_prune: str
    best: list[int]
    nodes: int = 0
    deadline: float | None = None
    timed_out: bool = False
    counters: dict = field(default_factory=dict)


def branch_search(
    lg: LocalGraph,
    k: int,
    delta: int,
    *,
    ub_combo: str = "ad",
    node_prune: str = "attr",
    best_init: list[int] | None = None,
    time_limit: float | None = None,
) -> SearchResult:
    """Find a maximum (k, δ)-fair clique in ``lg``.

    ``ub_combo`` selects the Table-II root-level bound configuration
    ("s", "ad", "ad+deg", "ad+h", "ad+cd", "ad+ch", "ad+cp").
    ``node_prune`` is "attr" (attribute-aware feasibility + Lemma-6
    prunes at every node) or "basic" (size bound only — the MaxRFC
    baseline of Fig. 6). ``best_init`` seeds the incumbent (HeurRFC
    integration); it must be a fair clique of ``lg``, else ValueError.
    """
    t0 = time.perf_counter()
    if best_init and not lg.is_fair_clique(best_init, k, delta):
        raise ValueError("best_init must be a (k, δ)-fair clique of lg")
    st = _State(
        lg=lg,
        k=k,
        delta=delta,
        node_prune=node_prune,
        best=list(best_init or []),
        deadline=(t0 + time_limit) if time_limit else None,
    )
    if lg.n >= 2 * k:
        order = cal_color_od(lg)
        pos = {v: i for i, v in enumerate(order)}
        roots_pruned = 0
        for u in order:
            if st.deadline and time.perf_counter() > st.deadline:
                st.timed_out = True
                break
            cand = sorted((v for v in lg.adj[u] if pos[v] > pos[u]), key=pos.get)
            floor = max(len(st.best), 2 * k - 1)
            if 1 + len(cand) <= floor:
                roots_pruned += 1
                continue
            sub = lg.subgraph([u, *cand])
            if compute_ub(sub, delta, ub_combo) <= floor:
                roots_pruned += 1
                continue
            na = 1 if lg.attr[u] == ATTR_A else 0
            _rec(st, [u], na, 1 - na, cand)
        st.counters["roots_pruned"] = roots_pruned
    return SearchResult(
        clique=st.best,
        nodes=st.nodes,
        roots_pruned=st.counters.get("roots_pruned", 0),
        completed=not st.timed_out,
        seconds=time.perf_counter() - t0,
    )


def _rec(st: _State, R: list[int], na: int, nb: int, C: list[int]) -> None:
    """Ordered subset enumeration with pruning; R is always a clique."""
    st.nodes += 1
    k, delta, lg = st.k, st.delta, st.lg
    if (
        na >= k
        and nb >= k
        and abs(na - nb) <= delta
        and len(R) > len(st.best)
    ):
        st.best = R.copy()
    if not C:
        return
    floor = max(len(st.best), 2 * k - 1)
    if len(R) + len(C) <= floor:  # Lemma 5 (the basic framework's bound)
        return
    if st.node_prune == "attr":
        ca = sum(1 for v in C if lg.attr[v] == ATTR_A)
        cb = len(C) - ca
        avail_a, avail_b = na + ca, nb + cb
        if avail_a < k or avail_b < k:  # fairness can never be met
            return
        if na - avail_b > delta or nb - avail_a > delta:  # balance unfixable
            return
        if fair_pair(avail_a, avail_b, delta) <= floor:  # Lemma 6
            return
    if st.deadline and st.nodes % 4096 == 0 and time.perf_counter() > st.deadline:
        st.timed_out = True
    if st.timed_out:
        return
    for i, u in enumerate(C):
        if st.timed_out:
            return
        adj_u = lg.adj[u]
        new_c = [v for v in C[i + 1:] if v in adj_u]
        # Child-level quick size check before paying the recursion.
        if 1 + len(R) + len(new_c) <= max(len(st.best), 2 * k - 1):
            continue
        if lg.attr[u] == ATTR_A:
            _rec(st, R + [u], na + 1, nb, new_c)
        else:
            _rec(st, R + [u], na, nb + 1, new_c)
