"""End-to-end benchmark of the simulator: ``repro fig1`` and ``repro tenants``
shaped workloads, timed on the host and checked against pinned counters.

Run from the repository root::

    python3 perfbench/run.py --workload fig1a-sweep --seed 0 --seconds 35 --trace 0

Each workload is a grid of cells (``cells.py``) driven from this single
process: a closed loop with one client and ``jobs=1``.  A run replays every
cell in repeated passes, interleaved round-robin across cells, until
``--seconds`` have passed; the round in progress completes, so every cell
gets the same number of passes.  Every pass builds fresh inputs and a fresh
MM and checks the simulated counters it produced.

Slow phases on small shared hosts stretch a whole process by 1.4-1.7x for
seconds to minutes, and they only ever add time, so each cell is timed by
its fastest pass.  With ``--trace 0`` the run reports

* ``accesses_per_s``: simulated accesses (warm-up included) per host
  second, Σ accesses ÷ Σ each cell's fastest replay;
* ``setup_s``: Σ each cell's fastest build (trace generation, MM, tenant
  and ``MultiTenantSim`` construction);
* ``peak_rss_mb``: the process's peak resident memory.

With ``--trace 1`` every round also makes one traced pass per cell
(``spans.py``), and the run reports the per-layer split of each cell's
fastest traced pass, summed over cells, plus ``trace_overhead`` (traced ÷
untraced replay time).  The spans of those passes are written to
``perfbench/out/``.

The last line of stdout is the JSON result; the lines before it are per-cell
noise diagnostics (passes, fastest and median pass) and, when traced, the
per-cell time split.  ``--write-pins`` recomputes ``pins.json``, the
counters every pass at the default seed must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "pins.json"
OUT = HERE / "out"

#: a p99 needs at least ten samples beyond it.
MIN_P99_SAMPLES = 1000

#: candidate input seeds are ``seed + k * INPUT_SEED_STRIDE``.
INPUT_SEED_STRIDE = 1_000_003
MAX_INPUT_ATTEMPTS = 8

_clock = time.perf_counter


def load_simulator() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit non-zero
    when the sources are missing (nothing to benchmark)."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: simulator sources not found ({package} is missing)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class CellStats:
    build_s: list = field(default_factory=list)
    replay_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: the fastest traced pass: wall, replay_s, self_s, counts, run_us, spans.
    traced: dict | None = None


def _one_pass(cell, seed: int):
    t0 = _clock()
    inputs = cell.build(seed)
    t1 = _clock()
    result = cell.replay(inputs)
    t2 = _clock()
    return t1 - t0, t2 - t1, result


class Run:
    """One benchmark run of one grid: the pass loop and its bookkeeping."""

    def __init__(self, grid, seed: int, expected: dict, traced: bool) -> None:
        self.grid = grid
        self.seed = seed
        self.expected = expected
        self.tracer = spans.Tracer() if traced else None
        self.stats = {cell.name: CellStats() for cell in grid.cells}
        self.errors: list[str] = []
        self.rounds = 0

    def measure(self, seconds: float) -> None:
        """Round-robin passes over every cell until *seconds* have passed
        (at least one round).

        Successive rounds run on successive CPUs of the process's affinity
        set: the host slows each vCPU independently, so spreading a cell's
        passes over them lets its fastest pass miss one vCPU's slow phase.
        """
        cpus = sorted(os.sched_getaffinity(0))
        deadline = _clock() + seconds
        try:
            while True:
                os.sched_setaffinity(0, {cpus[self.rounds % len(cpus)]})
                for cell in self.grid.cells:
                    self._untraced_pass(cell)
                    if self.tracer is not None:
                        self._traced_pass(cell)
                self.rounds += 1
                if _clock() >= deadline:
                    return
        finally:
            os.sched_setaffinity(0, cpus)

    def _check(self, cell, stats: CellStats, run) -> tuple | None:
        """Run one pass; a pass that raises or whose counters differ from the
        expected ones is a failed operation."""
        stats.attempted += 1
        try:
            build_s, replay_s, result = run()
            got = cell.counters(result)
        except Exception as exc:  # a failed pass, counted and reported
            return self._fail(cell, stats, f"{type(exc).__name__}: {exc}")
        want = self.expected.get(cell.name)
        if got != want:
            return self._fail(cell, stats, f"counters {got} != expected {want}")
        return build_s, replay_s

    def _fail(self, cell, stats: CellStats, why: str) -> None:
        stats.failed += 1
        self.errors.append(f"{self.grid.name}/{cell.name}: {why}")
        return None

    def _untraced_pass(self, cell) -> None:
        stats = self.stats[cell.name]
        done = self._check(cell, stats, lambda: _one_pass(cell, self.seed))
        if done is not None:
            stats.build_s.append(done[0])
            stats.replay_s.append(done[1])

    def _traced_pass(self, cell) -> None:
        # traced and untraced passes check against the same expected
        # counters, so a pass that passes both has equal counters in both
        tracer = self.tracer
        stats = self.stats[cell.name]
        tracer.begin(f"{cell.name}#{self.rounds}")

        def run():
            with tracer.installed():
                root = tracer.enter(spans.RESIDUAL, f"cell:{cell.name}")
                try:
                    return _one_pass(cell, self.seed)
                finally:
                    tracer.leave(root)

        done = self._check(cell, stats, run)
        if done is None:
            return
        _name, start, end, _parent, _tag = tracer.spans[0]  # the root span
        wall = end - start
        explained = sum(tracer.self_s.values())
        if abs(explained - wall) > 1e-6:
            self._fail(cell, stats, f"self times sum to {explained:.6f}s, "
                                    f"wall is {wall:.6f}s")
            return
        if stats.traced is None or done[1] < stats.traced["replay_s"]:
            stats.traced = {
                "wall": wall,
                "replay_s": done[1],
                "self_s": dict(tracer.self_s),
                "counts": dict(tracer.counts),
                "run_us": tracer.run_us,
                "spans": tracer.spans,
            }

    # ----------------------------------------------------------- results

    @property
    def attempted(self) -> int:
        return sum(s.attempted for s in self.stats.values())

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.stats.values())

    def end_to_end(self) -> dict:
        timed = [c for c in self.grid.cells if self.stats[c.name].replay_s]
        accesses = sum(c.accesses for c in timed)
        replay = sum(min(self.stats[c.name].replay_s) for c in timed)
        setup = sum(min(self.stats[c.name].build_s) for c in timed)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "accesses_per_s": (accesses / replay if replay else 0.0, "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss_kib * 1024 / 1e6, "MB"),
        }

    def per_layer(self) -> dict:
        best = [s.traced for s in self.stats.values() if s.traced is not None]
        out = {
            metric: (sum(b["self_s"].get(layer, 0.0) for b in best), "s")
            for layer, metric in spans.LAYER_METRICS.items()
        }
        counts: Counter = Counter()
        for b in best:
            counts.update(b["counts"])
        run_us = sorted(x for b in best for x in b["run_us"])
        calls = counts["mmu.run_calls"]
        p99 = (
            statistics.quantiles(run_us, n=100, method="inclusive")[98]
            if len(run_us) >= MIN_P99_SAMPLES
            else 0.0
        )
        untraced = sum(
            min(s.replay_s)
            for s in self.stats.values()
            if s.traced is not None and s.replay_s
        )
        traced = sum(b["replay_s"] for b in best)
        out.update({
            "wall_s": (sum(b["wall"] for b in best), "s"),
            "paging.access_many_keys": (counts["paging.access_many_keys"], "count"),
            "mmu.run_calls": (calls, "count"),
            "mmu.accesses_per_call": (
                counts["mmu.run_accesses"] / calls if calls else 0.0, "acc/call"
            ),
            "mmu.run_p50_us": (statistics.median(run_us) if run_us else 0.0, "us"),
            "mmu.run_p99_us": (p99, "us"),
            "mmu.run_samples": (len(run_us), "count"),
            "array_engine.calls": (counts["array_engine.calls"], "count"),
            "array_engine.declined_share": (
                counts["array_engine.declined_accesses"]
                / counts["array_engine.accesses"]
                if counts["array_engine.accesses"]
                else 0.0,
                "ratio",
            ),
            "array_engine.prefix_per_access": (
                counts["array_engine.prefix"] / counts["array_engine.n0"]
                if counts["array_engine.n0"]
                else 0.0,
                "ratio",
            ),
            "ballsbins.events": (counts["ballsbins.events"], "count"),
            "ballsbins.declines": (counts["ballsbins.declines"], "count"),
            "tenancy.turns": (counts["tenancy.turns"], "count"),
            "tenancy.shootdowns": (counts["tenancy.shootdowns"], "count"),
            "trace_overhead": (traced / untraced if untraced else 0.0, "ratio"),
        })
        return out

    # ------------------------------------------------------------ report

    def diagnostics(self) -> list[str]:
        """Per cell: passes run, fastest and median pass, fastest build."""
        lines = [
            f"{'cell':<24} {'passes':>6} {'failed':>6} {'fastest_ms':>11} "
            f"{'median_ms':>10} {'build_ms':>9}"
        ]
        for cell in self.grid.cells:
            s = self.stats[cell.name]
            if not s.replay_s:
                lines.append(f"{cell.name:<24} {s.attempted:>6} {s.failed:>6}")
                continue
            lines.append(
                f"{cell.name:<24} {s.attempted:>6} {s.failed:>6} "
                f"{min(s.replay_s) * 1e3:>11.2f} "
                f"{statistics.median(s.replay_s) * 1e3:>10.2f} "
                f"{min(s.build_s) * 1e3:>9.2f}"
            )
        return lines

    def split(self) -> list[str]:
        """Per cell: the fastest traced pass's self milliseconds per layer."""
        layers = list(spans.LAYER_METRICS)
        used = [
            layer for layer in layers
            if any(
                s.traced and s.traced["self_s"].get(layer)
                for s in self.stats.values()
            )
        ]
        lines = [f"{'cell':<24} {'wall_ms':>9} " + " ".join(
            f"{layer:>{max(len(layer), 8)}}" for layer in used
        )]
        for cell in self.grid.cells:
            t = self.stats[cell.name].traced
            if t is None:
                continue
            lines.append(f"{cell.name:<24} {t['wall'] * 1e3:>9.2f} " + " ".join(
                f"{t['self_s'].get(layer, 0.0) * 1e3:>{max(len(layer), 8)}.2f}"
                for layer in used
            ))
        return lines

    def write_spans(self, path: Path) -> int:
        """Write every kept traced pass's spans as JSON lines."""
        n = 0
        with open(path, "w") as fh:
            for s in self.stats.values():
                if s.traced is None:
                    continue
                for name, start, end, parent, tag in s.traced["spans"]:
                    fh.write(json.dumps({
                        "name": name, "start": start, "end": end,
                        "parent": parent, "cell": tag,
                    }) + "\n")
                    n += 1
        return n

    def result(self) -> dict:
        metrics = self.per_layer() if self.tracer is not None else self.end_to_end()
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def expected_counters(grid, seed: int) -> tuple[int, dict, list[str]]:
    """``(input_seed, expected, errors)``: the seed the inputs are made
    from and the counters each cell's passes must reproduce — the pins at
    the default seed, the other engine's untimed twin at any other seed.

    A paging failure turns the array engine off for the rest of a
    decoupled or hybrid run, which makes that cell 2-4x slower than on
    other inputs; about one zipf-whole trace in ten has one.  Inputs whose
    twin counters show a paging failure are therefore replaced by those of
    the next candidate seed, so the run's work does not depend on the seed.
    """
    import cells

    if seed == cells.DEFAULT_SEED:
        pins = json.loads(PINS.read_text())
        return seed, pins[grid.name], []
    for attempt in range(MAX_INPUT_ATTEMPTS):
        input_seed = seed + attempt * INPUT_SEED_STRIDE
        expected, errors = {}, []
        for cell in grid.cells:
            try:
                expected[cell.name] = cell.twin(input_seed)
            except Exception as exc:  # every pass of this cell then fails
                errors.append(
                    f"{grid.name}/{cell.name} twin: {type(exc).__name__}: {exc}"
                )
        if not any(c.get("paging_failures") for c in expected.values()):
            break
    return input_seed, expected, errors


def write_pins() -> int:
    """Recompute ``pins.json`` at the default seed; each cell's counters
    must agree with its other-engine twin before they are pinned."""
    import cells

    seed = cells.DEFAULT_SEED
    pins: dict = {}
    for grid in cells.GRIDS.values():
        pins[grid.name] = {}
        for cell in grid.cells:
            _build, _replay, result = _one_pass(cell, seed)
            got = cell.counters(result)
            twin = cell.twin(seed)
            if got != twin:
                print(f"{grid.name}/{cell.name}: {got} != twin {twin}", file=sys.stderr)
                return 1
            pins[grid.name][cell.name] = got
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(g) for g in pins.values())} cells in {PINS}")
    return 0


def main(argv=None) -> int:
    load_simulator()
    import cells

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(cells.GRIDS))
    parser.add_argument("--seed", type=int, default=cells.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measurement time; 0 runs one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="recompute pins.json and exit")
    args = parser.parse_args(argv)
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    grid = cells.GRIDS[args.workload]
    input_seed, expected, errors = expected_counters(grid, args.seed)
    run = Run(grid, input_seed, expected, traced=bool(args.trace))
    run.errors.extend(errors)
    run.measure(args.seconds)

    print(f"{grid.name}: seed {args.seed} (inputs from seed {input_seed}), "
          f"{run.rounds} rounds")
    for line in run.diagnostics():
        print(line)
    if args.trace:
        print()
        for line in run.split():
            print(line)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{grid.name}-seed{args.seed}.spans.jsonl"
        print(f"\n{run.write_spans(path)} spans written to {path.relative_to(HERE.parent)}")
    for error in run.errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
