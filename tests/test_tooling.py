"""The benchmark's tooling still fits the package.

`perfbench/tracing.py` patches package functions and methods by name. A
change that retires one of those names fails here, in the test suite, and
not only in traced benchmark runs.
"""

from __future__ import annotations

from pathlib import Path

from txmonsim import checks, engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    before = (checks.check_all, engine.digest, engine.Engine.run_transaction)
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (checks.check_all, engine.digest, engine.Engine.run_transaction) == before
