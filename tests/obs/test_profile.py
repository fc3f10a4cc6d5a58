"""Tests for wall-clock profiling helpers."""

from repro.obs import Timer, accesses_per_second


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            sum(range(10_000))
        assert t.elapsed > 0

    def test_accumulates_across_uses(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            pass
        assert t.elapsed > first


class TestThroughput:
    def test_basic(self):
        assert accesses_per_second(1000, 0.5) == 2000.0

    def test_zero_guards(self):
        assert accesses_per_second(0, 1.0) == 0.0
        assert accesses_per_second(1000, 0.0) == 0.0
