"""Color groups, attribute-pair thresholds and the enhanced-support test.

Every reduction (Lemmas 1–4) and the color bounds (Lemmas 7–9) rest on
three definitions, each kept here once, with its driver (Python) form
next to its Spark column form:

- **Color groups** of a vertex multiset: the colors used only by
  a-vertices (``c_a``), only by b-vertices (``c_b``), or by both
  (``c_m``). The colorful degree / support on x (Defs 2, 6) is
  ``c_x + c_m``; the enhanced colorful degree ED (Def. 4) is
  ``min(c_a+c_m, c_b+c_m, ⌊(c_a+c_b+c_m)/2⌋)``. The Spark aggregate
  form of the groups is ``repro.core.supports._group_agg``.
- **Attribute-pair thresholds** (Lemmas 3–4): an edge (u, v) needs
  ``ka = k − #a-endpoints`` common-neighbor colors on a and
  ``kb = k − #b-endpoints`` on b.
- **Enhanced colorful support test** (Def. 7): the greedy assignment of
  mixed colors meets both thresholds iff
  ``max(0, ka−c_a) + max(0, kb−c_b) ≤ c_m``. This closed form is
  equivalent to the paper's greedy γ assignment
  (``tests/test_reference.py::test_enhanced_sups_feasibility_equivalence``).
"""
from __future__ import annotations

from pyspark.sql import functions as F

ATTR_A = "a"
ATTR_B = "b"


class GroupCounter:
    """Color groups of a vertex multiset with O(1) add/remove updates.

    Tracks, per color, how many contributing vertices have attribute a
    and b, and maintains the derived exclusive/mixed group sizes
    (c_a, c_b, c_m).
    """

    __slots__ = ("counts", "c_a", "c_b", "c_m")

    def __init__(self) -> None:
        self.counts: dict[int, list[int]] = {}
        self.c_a = self.c_b = self.c_m = 0

    def _group(self, pair: list[int]) -> int:
        """0 = absent, 1 = exclusive a, 2 = exclusive b, 3 = mixed."""
        return (1 if pair[0] > 0 else 0) | (2 if pair[1] > 0 else 0)

    def _apply(self, before: int, after: int) -> None:
        for g, delta in ((before, -1), (after, +1)):
            if g == 1:
                self.c_a += delta
            elif g == 2:
                self.c_b += delta
            elif g == 3:
                self.c_m += delta

    def add(self, color: int, attr: str) -> None:
        pair = self.counts.setdefault(color, [0, 0])
        before = self._group(pair)
        pair[0 if attr == ATTR_A else 1] += 1
        self._apply(before, self._group(pair))

    def remove(self, color: int, attr: str) -> None:
        pair = self.counts[color]
        before = self._group(pair)
        pair[0 if attr == ATTR_A else 1] -= 1
        after = self._group(pair)
        self._apply(before, after)
        if after == 0:
            del self.counts[color]

    @property
    def sup_a(self) -> int:
        """Distinct colors on attribute a: colorful degree / support."""
        return self.c_a + self.c_m

    @property
    def sup_b(self) -> int:
        return self.c_b + self.c_m

    @property
    def ed(self) -> int:
        """Enhanced colorful degree (Def. 4)."""
        return enhanced_degree(self.c_a, self.c_b, self.c_m)


def groups_of(lg, verts) -> GroupCounter:
    """Color groups of ``verts`` in a colored ``LocalGraph`` ``lg``."""
    gc = GroupCounter()
    for v in verts:
        gc.add(lg.color[v], lg.attr[v])
    return gc


def neighbor_groups(lg) -> dict[int, GroupCounter]:
    """Color groups of every vertex's neighborhood in ``lg``."""
    return {v: groups_of(lg, nbrs) for v, nbrs in lg.adj.items()}


def enhanced_degree(c_a: int, c_b: int, c_m: int) -> int:
    """ED (Def. 4): best min side after assigning each mixed color."""
    return min(c_a + c_m, c_b + c_m, (c_a + c_b + c_m) // 2)


def enhanced_degree_col():
    """ED as a Spark column over columns c_a, c_b, c_m."""
    return F.least(
        F.col("c_a") + F.col("c_m"),
        F.col("c_b") + F.col("c_m"),
        F.floor((F.col("c_a") + F.col("c_b") + F.col("c_m")) / 2).cast("long"),
    )


def thresholds(attr_u: str, attr_v: str, k: int) -> tuple[int, int]:
    """(ka, kb) of Lemmas 3–4 for an edge with these endpoint attributes."""
    ends = (attr_u, attr_v)
    return k - ends.count(ATTR_A), k - ends.count(ATTR_B)


def threshold_cols(k: int):
    """(ka, kb) as Spark columns over columns attr_u, attr_v."""
    def ends(x: str):
        return (F.col("attr_u") == x).cast("int") + (F.col("attr_v") == x).cast("int")

    return F.lit(k) - ends(ATTR_A), F.lit(k) - ends(ATTR_B)


def enhanced_support_ok(c_a: int, c_b: int, c_m: int, ka: int, kb: int) -> bool:
    """Def. 7: the mixed colors can cover both shortfalls."""
    return max(0, ka - c_a) + max(0, kb - c_b) <= c_m


def enhanced_support_ok_col():
    """The Def.-7 test as a Spark column over c_a, c_b, c_m, ka, kb."""
    need_a = F.greatest(F.lit(0), F.col("ka") - F.col("c_a"))
    need_b = F.greatest(F.lit(0), F.col("kb") - F.col("c_b"))
    return need_a + need_b <= F.col("c_m")
