"""The benchmark workloads: what each one loads, and how it is generated.

Each workload draws every query's input graph from its own
``numpy.random.Generator`` seeded by (run seed, query index), so one run
never queries the same graph twice and the same seed gives the same
inputs. ``toy`` inputs are for the self-test only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

import graphs

Frames = tuple[pd.DataFrame, pd.DataFrame]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int
    delta: int
    #: Typical warm query seconds on a 4-core host. A run makes
    #: ceil(--seconds / query_s) warm queries, the same number every run.
    query_s: float
    recipe: Callable[[np.random.Generator], Frames]
    toy: Callable[[np.random.Generator], Frames]

    def graph(self, seed: int, index: int, *, toy: bool = False) -> Frames:
        rng = np.random.default_rng([seed, index])
        return (self.toy if toy else self.recipe)(rng)


def _blocks(make: Callable[[np.random.Generator], Frames], count: int):
    return lambda rng: graphs.disjoint_union([make(rng) for _ in range(count)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-peel",
            "power-law graph with a clique storm: multi-round Spark peeling is almost all of the query",
            k=2,
            delta=3,
            query_s=11.0,
            recipe=lambda rng: graphs.powerlaw_storm(rng, 1000, storm=(40, 10, 6, 10)),
            toy=lambda rng: graphs.powerlaw_storm(rng, 150),
        ),
        Workload(
            "dense-random",
            "dense random blocks: one round per stage removes no edge, so the kernel is the whole input and search is widest",
            k=5,
            delta=2,
            query_s=7.5,
            recipe=_blocks(lambda rng: graphs.dense_random(rng, 70, 0.76), 3),
            toy=lambda rng: graphs.dense_random(rng, 40, 0.5),
        ),
    )
}
