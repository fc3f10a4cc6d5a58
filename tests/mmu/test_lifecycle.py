"""Machine lifecycle: a dropped MM is freed by reference counting alone,
and a pickled MM (how ``jobs>1`` workers receive a prebuilt machine)
replays exactly like the original.

The decoupled and write-back machines install callbacks on their own
parts (the scheme's ψ-update hook, the RAM's eviction hook).  A callback
bound to the machine itself would make a reference cycle, and every
discarded machine — 4,096-entry LRU orders, the ψ map, allocator
tables — would wait for the cyclic collector.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.bench.harness import _as_factory
from repro.mmu.registry import ENGINES, MM_NAMES, make_mm

from .test_array_engine import TRACE, _assert_served_whole, _state_sig

TLB_ENTRIES = 32
RAM_PAGES = 512


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", MM_NAMES)
def test_dropped_machine_dies_without_the_collector(
    name, engine, no_cyclic_gc, engine_calls
):
    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine=engine)
    mm.run(TRACE[:3_000])
    _assert_served_whole(mm, engine_calls)
    refs = [weakref.ref(mm)]
    system = getattr(mm, "system", None)
    if system is not None:
        refs.append(weakref.ref(system))
        del system
    del mm
    assert [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("name", MM_NAMES)
def test_pickled_machine_replays_identically(name):
    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
    mm.run(TRACE[:3_000])
    clone = pickle.loads(pickle.dumps(_as_factory(mm)))()
    assert _state_sig(clone) == _state_sig(mm)
    rest = np.asarray(TRACE[3_000:6_000])
    mm.run(rest)
    clone.run(rest)
    assert _state_sig(clone) == _state_sig(mm)
