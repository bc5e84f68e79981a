"""End-to-end MaxRFC pipeline (Algorithm 2): Spark reduce → local search.

``max_rfc`` wires the pieces together:

1. one greedy coloring of G on the driver, shipped to Spark as (id, color);
2. Spark reductions EnColorfulCore(k−1) → ColorfulSup(k) →
   EnColorfulSup(k) (Algorithm 2, lines 1–3);
3. collect the (small) kernel to the driver as a ``LocalGraph``;
4. optionally HeurRFC to seed the incumbent and pre-prune the kernel to
   the (|R*|−1)-core (the paper's Remark in §V);
5. branch-and-bound with the configured Table-II upper-bound combo.

``max_rfc_local`` is the driver-only variant used by unit tests and by
the benchmark harness once a kernel has been collected.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.graph.builder import AttributedGraph
from repro.graph.local import LocalGraph
from repro.core.branch import SearchResult, branch_search
from repro.core.heuristic import heur_rfc
from repro.core.reduction import ReductionReport, reduce_pipeline


@dataclass
class MaxRFCResult:
    """Full pipeline outcome with per-phase accounting."""

    clique: list[int]
    k: int
    delta: int
    search: SearchResult
    heur_clique: list[int] = field(default_factory=list)
    reduction: ReductionReport | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.clique)


def max_rfc_local(
    lg: LocalGraph,
    k: int,
    delta: int,
    *,
    ub_combo: str = "ad",
    node_prune: str = "attr",
    use_heuristic: bool = True,
    time_limit: float | None = None,
) -> MaxRFCResult:
    """MaxRFC on an in-memory kernel (steps 4–5 of the pipeline)."""
    timings: dict[str, float] = {}
    heur_clique: list[int] = []
    g = lg
    t0 = time.perf_counter()
    if use_heuristic:
        hres = heur_rfc(lg, k, delta)
        heur_clique = hres.clique
        if hres.clique:
            g = hres.graph  # (|R*|−1)-core still holds every larger clique
    timings["heuristic"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    search = branch_search(
        g,
        k,
        delta,
        ub_combo=ub_combo,
        node_prune=node_prune,
        best_init=heur_clique,
        time_limit=time_limit,
    )
    timings["search"] = time.perf_counter() - t0
    return MaxRFCResult(
        clique=search.clique,
        k=k,
        delta=delta,
        search=search,
        heur_clique=heur_clique,
        timings=timings,
    )


def max_rfc(
    g: AttributedGraph,
    k: int,
    delta: int,
    *,
    ub_combo: str = "ad",
    node_prune: str = "attr",
    use_heuristic: bool = True,
    reduce_stages: tuple[str, ...] = ("encore", "sup", "ensup"),
    time_limit: float | None = None,
) -> MaxRFCResult:
    """Full Spark-reduce-then-search pipeline (Algorithm 2)."""
    t0 = time.perf_counter()
    report = reduce_pipeline(g, k, stages=reduce_stages)
    t_reduce = time.perf_counter() - t0
    t0 = time.perf_counter()
    lg = LocalGraph.from_spark(report.graph, report.colors)
    t_collect = time.perf_counter() - t0
    res = max_rfc_local(
        lg,
        k,
        delta,
        ub_combo=ub_combo,
        node_prune=node_prune,
        use_heuristic=use_heuristic,
        time_limit=time_limit,
    )
    res.reduction = report
    res.timings["reduce"] = t_reduce
    res.timings["collect"] = t_collect
    return res
