"""Fixtures shared across the test packages."""

import pytest


@pytest.fixture
def engine_calls(monkeypatch):
    """Lift every class's array-engine floor and log what the engine serves.

    ``run()`` keeps a piece shorter than its class's floor on the object
    engine, so an engine-parity test whose segments are short would compare
    the object engine with itself. With this fixture ``run()`` offers the
    engine every piece, and each ``try_run`` call appends
    ``(piece length, accesses served)`` to the returned list (served is
    ``None`` when the engine declined), so the test can assert that the
    engine, not the fallback, produced the array side. A segment no longer
    than the piece size (``repro.mmu.base._PIECE``) is one piece.
    """
    from repro.mmu import array_engine

    for cls in list(array_engine._FLOORS):
        monkeypatch.setitem(array_engine._FLOORS, cls, 0)
    calls = []
    real_try_run = array_engine.try_run

    def logging_try_run(mm, trace):
        served = real_try_run(mm, trace)
        calls.append((len(trace), served))
        return served

    monkeypatch.setattr(array_engine, "try_run", logging_try_run)
    return calls
