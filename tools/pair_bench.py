#!/usr/bin/env python3
"""Paired end-to-end benchmark: a base commit against the working tree.

Usage, from the repository root::

    python3 tools/pair_bench.py                     # base: merge base with main
    python3 tools/pair_bench.py --base HEAD --pairs 5 --seconds 10 \\
        --workload fig1a-sweep

The base commit is extracted with ``git archive`` into a temporary
directory.  For every workload of ``BENCHMARK.json`` the tool runs the
benchmark's command (``perfbench/run.py --workload W --seconds S --trace
0``, at the benchmark's default seed) in N pairs of runs, one process per
run: one run in the base tree and one in the working tree, with the side
that runs first swapped from pair to pair, so a drift in machine speed
favours neither.

For every end-to-end metric it prints both sides' medians, the base's
quartiles, the median of the per-pair ratios (working tree / base) and how
many pairs moved each way.  The verdict fails, and the tool exits 1, when
a median pair ratio is worse than the metric's ``BENCHMARK.json`` bound
(below ``1 - bound`` for a higher-is-better metric, above ``1 + bound``
for a lower-is-better one), or when any run prints no result, reports
``correct: false`` or reports ``failed > 0``.

Stdlib-only, like ``tools/check_bench.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def merge_base(ref: str = "main") -> str:
    """The commit where the working tree's history meets *ref*."""
    return _git("merge-base", "HEAD", ref)


def extract(rev: str, dest: Path) -> str:
    """Write the tree of *rev* into *dest*; return the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:  # Python < 3.10.12 has no extraction filters
            archive.extractall(dest)
    return commit


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def schedule(pairs: int) -> list[tuple[str, str]]:
    """Run order per pair: base first in even pairs, head first in odd."""
    return [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(pairs)]


def run_once(tree: Path, command: list, workload: str, seconds: float):
    """One benchmark process in *tree*: its JSON result, or ``None`` when it
    exits non-zero, times out or prints no JSON last line."""
    argv = [*command, "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(
            argv, cwd=tree, capture_output=True, text=True,
            timeout=max(600.0, 10 * seconds),
        )
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _value(payload: dict, metric: str) -> float:
    return float(payload["metrics"][metric]["value"])


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json``: both sides' medians,
    the base's quartiles, the median pair ratio (head / base) and the
    number of pairs where the head did better and worse.  *pairs* holds
    ``{"base": payload, "head": payload}``; pairs with a missing payload or
    metric are left out."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        higher = spec["better"] == "higher"
        base, head = [], []
        for pair in pairs:
            try:
                b, h = (_value(pair[side], name) for side in SIDES)
            except (KeyError, TypeError):
                continue
            base.append(b)
            head.append(h)
        ratios = [h / b for b, h in zip(base, head) if b]
        if not ratios:
            out[name] = {"pairs": 0}
            continue
        q = (
            statistics.quantiles(base, n=4, method="inclusive")
            if len(base) > 1
            else [base[0]] * 3
        )
        out[name] = {
            "pairs": len(ratios),
            "base_median": statistics.median(base),
            "base_q1": q[0],
            "base_q3": q[2],
            "head_median": statistics.median(head),
            "ratio": statistics.median(ratios),
            "better": sum(r > 1 if higher else r < 1 for r in ratios),
            "worse": sum(r < 1 if higher else r > 1 for r in ratios),
        }
    return out


def verdict(workload: str, pairs: list[dict], summary: dict, metrics: list[dict]):
    """Failure messages for one workload (empty when it passes)."""
    fails = []
    for k, pair in enumerate(pairs, 1):
        for side in SIDES:
            payload = pair.get(side)
            if payload is None:
                fails.append(f"{workload} pair {k} {side}: no result")
            elif payload.get("correct") is not True or payload.get("failed", 1) > 0:
                fails.append(
                    f"{workload} pair {k} {side}: correct={payload.get('correct')} "
                    f"failed={payload.get('failed')}"
                )
    for spec in metrics:
        name, bound = spec["name"], spec["bound"]
        got = summary.get(name, {})
        if not got.get("pairs"):
            fails.append(f"{workload} {name}: no complete pair")
            continue
        ratio = got["ratio"]
        if spec["better"] == "higher" and ratio < 1 - bound:
            fails.append(f"{workload} {name}: median ratio {ratio:.3f} < {1 - bound:.2f}")
        elif spec["better"] == "lower" and ratio > 1 + bound:
            fails.append(f"{workload} {name}: median ratio {ratio:.3f} > {1 + bound:.2f}")
    return fails


def _fmt(x: float) -> str:
    return f"{x:.5g}"


def _shown(payload, metrics: list[dict]) -> str:
    if payload is None:
        return "no result"
    got = payload.get("metrics", {})
    return " ".join(
        f"{m['name']}={_fmt(got[m['name']]['value'])}" for m in metrics if m["name"] in got
    ) + f" correct={payload.get('correct')} failed={payload.get('failed')}"


def report(workload: str, summary: dict) -> list[str]:
    lines = [f"{'metric':<16} {'base median [q1-q3]':>32} {'head median':>12} "
             f"{'ratio':>7} {'better':>6} {'worse':>6}"]
    for name, got in summary.items():
        if not got.get("pairs"):
            lines.append(f"{name:<16} (no complete pair)")
            continue
        base = f"{_fmt(got['base_median'])} [{_fmt(got['base_q1'])}-{_fmt(got['base_q3'])}]"
        lines.append(
            f"{name:<16} {base:>32} {_fmt(got['head_median']):>12} "
            f"{got['ratio']:>7.3f} {got['better']:>6} {got['worse']:>6}"
        )
    return [f"== {workload}"] + lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="base commit (default: merge base with main)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement time of each run")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable (default: every workload)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = bench["end_to_end"]
    command = bench["command"]

    with tempfile.TemporaryDirectory(prefix="pair_bench-") as tmp:
        trees = {"base": Path(tmp), "head": ROOT}
        commit = extract(args.base or merge_base(), trees["base"])
        print(f"base {commit[:12]} in {tmp}; head: working tree {ROOT}")
        fails = []
        for workload in args.workload or names:
            pairs = []
            for k, order in enumerate(schedule(args.pairs), 1):
                pair = {}
                for side in order:
                    t0 = time.perf_counter()
                    pair[side] = run_once(trees[side], command, workload, args.seconds)
                    print(f"{workload} pair {k}/{args.pairs} {side}: "
                          f"{_shown(pair[side], metrics)} "
                          f"({time.perf_counter() - t0:.0f} s)", flush=True)
                pairs.append(pair)
            summary = summarize(pairs, metrics)
            fails += verdict(workload, pairs, summary, metrics)
            print("\n".join(report(workload, summary)), flush=True)
    for line in fails:
        print(f"FAIL {line}")
    print("verdict:", "FAIL" if fails else "ok")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
