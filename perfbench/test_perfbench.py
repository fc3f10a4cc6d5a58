"""Smoke tests for the benchmark: one round of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run

run.load_simulator()

import cells  # noqa: E402  (needs the simulator on the path)
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _one_round(grid, seed, expected, traced=True):
    bench = run.Run(grid, seed, expected, traced=traced)
    bench.measure(0)
    return bench


@pytest.mark.parametrize("workload", list(cells.GRIDS))
def test_one_round_reproduces_pins_traced_and_untraced(workload):
    grid = cells.GRIDS[workload]
    seed, expected, errors = run.expected_counters(grid, cells.DEFAULT_SEED)
    assert seed == cells.DEFAULT_SEED and not errors
    assert set(expected) == {cell.name for cell in grid.cells}
    bench = _one_round(grid, cells.DEFAULT_SEED, expected)
    # one untraced and one traced pass per cell, each matching the pins,
    # so traced counters equal untraced ones
    assert bench.errors == []
    assert bench.attempted == 2 * len(grid.cells)
    assert bench.failed == 0
    result = bench.result()
    assert result["correct"] is True
    metrics = result["metrics"]
    parts = sum(
        metrics[name]["value"] for name in spans.LAYER_METRICS.values()
    )
    assert parts == pytest.approx(metrics["wall_s"]["value"], abs=1e-6)
    assert metrics["trace_overhead"]["value"] > 0


def test_twin_agrees_off_the_default_seed():
    picks = {
        "fig1a-sweep": "h=1",
        "zipf-whole": "physical-huge",
        "tenants-q64": "physical-huge@array",
    }
    for workload, name in picks.items():
        grid = cells.GRIDS[workload]
        cell = next(c for c in grid.cells if c.name == name)
        single = cells.Grid(workload, (cell,))
        seed, expected, errors = run.expected_counters(single, 1)
        assert seed == 1 and not errors
        bench = _one_round(single, seed, expected, traced=False)
        assert bench.failed == 0, bench.errors
        # a different seed gives a different trace, hence different counters
        assert expected[name] != json.loads(run.PINS.read_text())[workload][name]


def test_inputs_with_a_paging_failure_are_replaced():
    grid = cells.GRIDS["zipf-whole"]
    hybrid = cells.Grid(grid.name, tuple(c for c in grid.cells if c.name == "hybrid"))
    # this trace drives the fixed machine's hybrid MM into a paging failure
    assert hybrid.cells[0].twin(17)["paging_failures"] > 0
    seed, expected, errors = run.expected_counters(hybrid, 17)
    assert seed != 17 and not errors
    assert expected["hybrid"]["paging_failures"] == 0


def test_wrong_counters_fail_every_pass():
    cell = cells.GRIDS["fig1a-sweep"].cells[-1]
    grid = cells.Grid("fig1a-sweep", (cell,))
    pins = json.loads(run.PINS.read_text())["fig1a-sweep"]
    wrong = {cell.name: {**pins[cell.name], "ios": pins[cell.name]["ios"] + 1}}
    bench = _one_round(grid, cells.DEFAULT_SEED, wrong)
    assert bench.failed == bench.attempted == 2
    assert bench.result()["correct"] is False


def test_traced_pass_restores_the_simulator():
    from repro.mmu import array_engine
    from repro.paging import PageCache

    originals = (PageCache.access_many, array_engine.try_run)
    grid = cells.GRIDS["fig1a-sweep"]
    _one_round(cells.Grid(grid.name, grid.cells[-1:]), cells.DEFAULT_SEED,
               run.expected_counters(grid, cells.DEFAULT_SEED)[1])
    assert (PageCache.access_many, array_engine.try_run) == originals


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    grid = cells.GRIDS["fig1a-sweep"]
    cell = cells.Grid(grid.name, grid.cells[-1:])
    expected = run.expected_counters(grid, cells.DEFAULT_SEED)[1]
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        got = _one_round(cell, cells.DEFAULT_SEED, expected, traced).result()
        assert {
            name: m["unit"] for name, m in got["metrics"].items()
        } == {m["name"]: m["unit"] for m in spec[key]}
    assert [w["name"] for w in spec["workloads"]] == list(cells.GRIDS)


def test_refuses_to_run_without_the_simulator(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, bench)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1a-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
