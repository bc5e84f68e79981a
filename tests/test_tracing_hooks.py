"""The traced benchmark's layer hooks still resolve.

``perfbench/tracing.py`` wraps layer functions by module attribute; a
rename or removal in ``src/`` would only show when a traced benchmark
run fails. ``Tracer.installed()`` only gets and sets attributes, so it
runs here without a Spark session.
"""
from pathlib import Path


def test_tracer_installs_and_restores(monkeypatch):
    from repro.core import maxrfc

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    orig = maxrfc.reduce_pipeline
    with Tracer(None).installed():
        assert maxrfc.reduce_pipeline is not orig
    assert maxrfc.reduce_pipeline is orig
