"""Named synthetic attributed graphs, lifted into Spark."""
from pyspark.sql import SparkSession


def attributed_graph(spark: SparkSession, name: str, *, scale: float = 1.0):
    """Named synthetic attributed graph as a Spark ``AttributedGraph``.

    Extension for the fair-clique paper: the paper evaluates on six real
    graphs (its Table I); ``name`` selects the synthetic analogue
    (see ``repro.graph.gen.DATASETS`` and DESIGN.md §4). Deterministic
    per (name, scale).
    """
    from repro.graph import gen
    from repro.graph.builder import from_pandas

    vertices, edges = gen.DATASETS[name](scale=scale)
    return from_pandas(spark, vertices, edges)
