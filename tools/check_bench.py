#!/usr/bin/env python3
"""CI perf-regression gate: compare a fresh bench payload against the
committed baseline.

Usage::

    python tools/check_bench.py benchmarks/baselines/BENCH_sweep.json \\
        BENCH_sweep.json --tolerance 0.25

Handles both payload kinds (baseline and new run must be the same kind):

* ``bench_sweep`` (``repro bench``) — the end-to-end sweep;
* ``bench_hotloop`` (``repro bench --hotloop``) — per-component
  microbenchmarks, gated on ``geomean_ops_per_s``.

Two checks, two exit codes:

* **exit 2 — correctness / comparability.** The configs (grid, seed) must
  match, and the simulated counters (accesses, ios, tlb_misses, ...) of
  every cell/component must be identical — they are deterministic given
  the config. For sweep payloads counter checking is skipped (with a
  note) when the two payloads were produced by different numpy versions,
  whose random streams are not guaranteed identical (``--counters
  always`` overrides, and ``--counters never`` disables); hotloop key
  streams are numpy-free, so their counters are always compared.
* **exit 1 — throughput regression.** The aggregate throughput
  (``accesses_per_s`` / ``geomean_ops_per_s``) may not drop more than
  ``--tolerance`` (fraction) below the baseline. One aggregate number,
  not per-cell timings, to stay tolerant of runner noise; improvements
  and same-speed runs pass.

For hotloop payloads an additional *within-payload* gate compares each
probed row — ``mm+sampled:<name>`` (a ``SamplingProbe`` attached) and
``mm+online:<name>`` (the streaming ``OnlineWorkingSet`` /
``OnlineStackDistance`` probes attached) — against its unprobed
``mm:<name>`` twin in the **new** run: the counters must be identical (a
probe must never perturb the simulation — exit 2), and per prefix the
geometric-mean throughput ratio may not fall below
``1 - --probe-tolerance`` (default 0.10 — the "observability is within
10% of unprobed" contract; exit 1). Within one payload both rows ran on
the same machine moments apart, so the ratio is noise-robust.

The engine-identity gate holds every ``mm@object:<x>`` row to counters
identical to its ``mm:<x>`` twin — including the ``mm:<name>+fail``
paging-failure cells, which must additionally report
``paging_failures > 0`` so the bailout path stays exercised (exit 2
either way). The same pairs carry the engine-ratio gate in the **new**
run: per row family — whole trace, ``+fail``, ``@q`` and ``@t`` — the
geometric mean of the ``mm:<x>`` rows' ``ops_per_s`` over their object
twins' may not fall below ``1 - --engine-tolerance`` (default 0.25;
exit 1), so no family of cells falls off the array engine's speed. The
twins are timed interleaved, like the probed rows, so slow drift in
machine speed cancels out of the ratio, and the geomean absorbs the
noise of single rows.

Under each probe-gated and engine-gated verdict the gate prints the
family's row pairs with their spread: the best-of ``ops_per_s`` the
gates read, then the median and interquartile range of the repeats
(``ops_per_s_median`` / ``ops_per_s_iqr``) when the payload stores them.
The spread is reported only; no gate reads it.

Stdlib-only on purpose: the gate runs before (and independent of) the
package itself.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import subprocess
import sys

#: Simulated (deterministic) counters compared cell by cell.
COUNTER_FIELDS = (
    "accesses",
    "ios",
    "tlb_misses",
    "tlb_hits",
    "decoding_misses",
    "paging_failures",
)

OK, REGRESSION, MISMATCH = 0, 1, 2

KNOWN_KINDS = ("bench_sweep", "bench_hotloop")


def load_payload(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("kind") not in KNOWN_KINDS or payload.get("format") != 1:
        raise ValueError(
            f"{path}: not a format-1 {' / '.join(KNOWN_KINDS)} payload"
        )
    return payload


def _cell_key(row: dict) -> tuple:
    return (row.get("algorithm"), row.get("h"))


def _config_mismatch(baseline: dict, new: dict) -> list[str]:
    changed = sorted(
        k
        for k in set(baseline["config"]) | set(new["config"])
        if baseline["config"].get(k) != new["config"].get(k)
    )
    return [
        f"FAIL configs differ ({', '.join(changed)}): the runs are not "
        "comparable — regenerate both baselines with "
        "`python tools/regen_baselines.py` and commit them"
    ]


def _throughput_gate(
    old_tput: float, new_tput: float, tolerance: float, messages: list[str]
) -> int:
    """Append the gate verdict to *messages*; return OK or REGRESSION."""
    if old_tput <= 0:
        messages.append("note: baseline throughput is 0; skipping the gate")
        return OK
    change = new_tput / old_tput - 1.0
    line = (
        f"throughput: {old_tput / 1e3:.1f} -> {new_tput / 1e3:.1f} kacc/s "
        f"({change:+.1%}, tolerance -{tolerance:.0%})"
    )
    if change < -tolerance:
        messages.append(f"FAIL {line}")
        return REGRESSION
    messages.append(f"ok: {line}")
    return OK


#: probed hotloop row prefixes gated against their unprobed twins.
PROBED_PREFIXES = ("mm+sampled:", "mm+online:", "mm+attrib:")


def _unprobed_twin(rows: dict, name: str, prefix: str) -> dict | None:
    """The unprobed twin of a probed row: the object-engine re-run
    (``mm@object:``) when present — probes ride the object fast paths, so
    that is the like-for-like denominator — else the plain ``mm:`` row
    (payloads from before the array engine)."""
    for plain_prefix in ("mm@object:", "mm:"):
        twin = rows.get(name.replace(prefix, plain_prefix, 1))
        if twin is not None:
            return twin
    return None


def _geomean(ratios: list[float]) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def _rate(row: dict) -> str:
    """A row's throughput in kops/s: the best of its repeats, then their
    median and interquartile range (payloads from before the spread was
    stored show the best alone)."""
    text = f"{row['ops_per_s'] / 1e3:.1f}"
    if "ops_per_s_median" in row:
        text += (
            f" (median {row['ops_per_s_median'] / 1e3:.1f}, "
            f"IQR {row['ops_per_s_iqr'] / 1e3:.1f})"
        )
    return text


def _pair_lines(pairs: list[tuple[dict, dict]]) -> list[str]:
    """One indented line per ``(row, twin)`` pair with both spreads."""
    return [
        f"  {row['component']} {_rate(row)} vs "
        f"{twin['component']} {_rate(twin)} kops/s"
        for row, twin in pairs
    ]


def _probed_gate(
    payload: dict, probe_tolerance: float, messages: list[str]
) -> int:
    """Gate probed rows against their unprobed twins (one payload).

    Applies to every prefix in :data:`PROBED_PREFIXES` (``mm+sampled:``,
    ``mm+online:`` and ``mm+attrib:``), gated independently. Counters must be identical
    (MISMATCH otherwise: the probe perturbed the simulation) and per
    prefix the geomean probed/unprobed throughput ratio must stay above
    ``1 - probe_tolerance`` (REGRESSION otherwise: the probe knocked an
    algorithm off its fast path or got too expensive).
    """
    rows = {r["component"]: r for r in payload["rows"]}
    code = OK
    for prefix in PROBED_PREFIXES:
        pairs = [
            (name, _unprobed_twin(rows, name, prefix), rows[name])
            for name in sorted(rows)
            if name.startswith(prefix)
            and _unprobed_twin(rows, name, prefix) is not None
        ]
        if not pairs:
            continue
        ratios = []
        for name, plain, probed in pairs:
            if plain.get("counters") != probed.get("counters"):
                code = MISMATCH
                messages.append(
                    f"FAIL {name}: counters differ from its unprobed twin "
                    f"{plain.get('counters')} -> {probed.get('counters')} "
                    "(a probe must never perturb the simulation)"
                )
            ratios.append(probed["ops_per_s"] / plain["ops_per_s"])
        geomean_ratio = _geomean(ratios)
        line = (
            f"{prefix.rstrip(':')} throughput: {geomean_ratio:.1%} of "
            f"unprobed across {len(pairs)} fast-path MMs "
            f"(floor {1 - probe_tolerance:.0%})"
        )
        if geomean_ratio < 1 - probe_tolerance:
            messages.append(f"FAIL {line}")
            code = max(code, REGRESSION)
        else:
            messages.append(f"ok: {line}")
        messages += _pair_lines([(probed, plain) for _, plain, probed in pairs])
    return code


def _engine_family(component: str) -> str:
    """The family of an engine-twin row: ``+fail``, ``@q`` / ``@t`` (its
    turn-length or tenant-count suffix without the number) or the whole
    trace."""
    if component.endswith("+fail"):
        return "+fail"
    _, at, suffix = component.rpartition("@")
    return "@" + suffix.rstrip("0123456789") if at else "whole-trace"


def _engine_twin_gate(
    payload: dict, engine_tolerance: float, messages: list[str]
) -> int:
    """``mm@object:<name>`` rows re-run ``mm:<name>`` on the object engine;
    both replay the same deterministic stream, so any counter divergence
    means the two engines disagree about the simulation (MISMATCH).

    ``*+fail`` components are the paging-failure cells: besides matching
    their twin they must report ``paging_failures > 0`` — a failure row
    that stops failing silently stops exercising the batch engine's
    bailout path, which is exactly what these rows exist to gate
    (MISMATCH as well).

    Per row family (:func:`_engine_family`), the geomean of the
    ``mm:<name>`` rows' throughput over their object twins' must stay at
    or above ``1 - engine_tolerance`` (REGRESSION otherwise: the array
    engine, or the choice of engine per segment, got slower than the
    reference it replaces).
    """
    rows = {r["component"]: r for r in payload["rows"]}
    code = OK
    checked = 0
    families: dict[str, dict[str, float]] = {}
    for name in sorted(rows):
        if name.endswith("+fail") and not (
            (rows[name].get("counters") or {}).get("paging_failures", 0) > 0
        ):
            code = MISMATCH
            messages.append(
                f"FAIL {name}: failure-path row reports no paging_failures "
                "(the cell no longer exercises the bailout accounting)"
            )
        if not name.startswith("mm@object:"):
            continue
        twin = rows.get(name.replace("mm@object:", "mm:", 1))
        if twin is None:
            continue
        checked += 1
        if rows[name].get("counters") != twin.get("counters"):
            code = MISMATCH
            messages.append(
                f"FAIL {name}: counters differ from its array-engine twin "
                f"{twin.get('counters')} -> {rows[name].get('counters')} "
                "(the engines must simulate identically)"
            )
        component = twin["component"]
        ratio = twin["ops_per_s"] / rows[name]["ops_per_s"]
        families.setdefault(_engine_family(component), {})[component] = ratio
    if checked and code == OK:
        messages.append(
            f"ok: {checked} engine twin(s), array and object counters "
            "identical (failure rows failing as pinned)"
        )
    for family, ratios in sorted(families.items()):
        geomean_ratio = _geomean(list(ratios.values()))
        slowest = min(ratios, key=ratios.get)
        line = (
            f"array engine {family} throughput: {geomean_ratio:.1%} of "
            f"object across {len(ratios)} twin(s), slowest {slowest} at "
            f"{ratios[slowest]:.0%} (floor {1 - engine_tolerance:.0%})"
        )
        if geomean_ratio < 1 - engine_tolerance:
            code = max(code, REGRESSION)
            messages.append(f"FAIL {line}")
        else:
            messages.append(f"ok: {line}")
        messages += _pair_lines(
            [(rows[c], rows[c.replace("mm:", "mm@object:", 1)]) for c in sorted(ratios)]
        )
    return code


def compare(
    baseline: dict,
    new: dict,
    *,
    tolerance: float = 0.25,
    counters: str = "auto",
    probe_tolerance: float = 0.10,
    engine_tolerance: float = 0.25,
) -> tuple[int, list[str]]:
    """Compare payloads of either kind; return ``(exit_code, messages)``."""
    if baseline.get("kind") != new.get("kind"):
        return MISMATCH, [
            f"FAIL payload kinds differ: {baseline.get('kind')} (baseline) "
            f"vs {new.get('kind')} (new run)"
        ]
    if baseline.get("kind") == "bench_hotloop":
        return compare_hotloop(
            baseline, new, tolerance=tolerance, counters=counters,
            probe_tolerance=probe_tolerance, engine_tolerance=engine_tolerance,
        )
    messages: list[str] = []
    code = OK

    if baseline["config"] != new["config"]:
        return MISMATCH, _config_mismatch(baseline, new)

    check_counters = counters == "always" or (
        counters == "auto"
        and baseline["machine"].get("numpy") == new["machine"].get("numpy")
    )
    if counters == "auto" and not check_counters:
        messages.append(
            "note: skipping counter comparison — numpy "
            f"{baseline['machine'].get('numpy')} (baseline) vs "
            f"{new['machine'].get('numpy')} (new); random streams may differ"
        )

    if check_counters:
        old_rows = {_cell_key(r): r for r in baseline["rows"]}
        new_rows = {_cell_key(r): r for r in new["rows"]}
        for key in sorted(set(old_rows) | set(new_rows), key=str):
            a, b = old_rows.get(key), new_rows.get(key)
            if a is None or b is None:
                code = MISMATCH
                messages.append(
                    f"FAIL cell {key}: present only in "
                    f"{'new run' if a is None else 'baseline'}"
                )
                continue
            for metric in COUNTER_FIELDS:
                if a.get(metric) != b.get(metric):
                    code = MISMATCH
                    messages.append(
                        f"FAIL cell {key}: {metric} changed "
                        f"{a.get(metric)} -> {b.get(metric)} (deterministic "
                        "counter; a code change altered simulated behaviour)"
                    )
        if code == OK:
            messages.append(
                f"ok: {len(new['rows'])} cells, all simulated counters identical"
            )

    code = max(
        code,
        _throughput_gate(
            baseline["accesses_per_s"], new["accesses_per_s"], tolerance, messages
        ),
    )
    return code, messages


def compare_hotloop(
    baseline: dict,
    new: dict,
    *,
    tolerance: float = 0.25,
    counters: str = "auto",
    probe_tolerance: float = 0.10,
    engine_tolerance: float = 0.25,
) -> tuple[int, list[str]]:
    """Compare two ``bench_hotloop`` payloads.

    The per-component counters come from numpy-free key streams, so they
    are compared exactly unless ``--counters never``; the throughput gate
    runs on the geometric mean across components.
    """
    messages: list[str] = []
    code = OK

    if baseline["config"] != new["config"]:
        return MISMATCH, _config_mismatch(baseline, new)

    if counters != "never":
        old_rows = {r["component"]: r for r in baseline["rows"]}
        new_rows = {r["component"]: r for r in new["rows"]}
        for name in sorted(set(old_rows) | set(new_rows)):
            a, b = old_rows.get(name), new_rows.get(name)
            if a is None or b is None:
                code = MISMATCH
                messages.append(
                    f"FAIL component {name}: present only in "
                    f"{'new run' if a is None else 'baseline'}"
                )
                continue
            if a.get("counters") != b.get("counters"):
                code = MISMATCH
                messages.append(
                    f"FAIL component {name}: counters changed "
                    f"{a.get('counters')} -> {b.get('counters')} "
                    "(deterministic; a code change altered simulated behaviour)"
                )
        if code == OK:
            messages.append(
                f"ok: {len(new['rows'])} components, all counters identical"
            )

    code = max(
        code,
        _throughput_gate(
            baseline["geomean_ops_per_s"],
            new["geomean_ops_per_s"],
            tolerance,
            messages,
        ),
    )
    code = max(code, _engine_twin_gate(new, engine_tolerance, messages))
    code = max(code, _probed_gate(new, probe_tolerance, messages))
    return code, messages


def append_history(payload: dict, history_dir: str) -> str:
    """Append one trajectory record to ``<history_dir>/history.jsonl``.

    Called only after a passing gate, so the stream is a time series of
    *accepted* throughput states: ``{ts, commit, geomean, rows}`` per
    record (``rows`` carries the per-component ops/s of hotloop payloads).
    ``repro report`` renders the stream as the geomean trajectory.
    """
    if payload.get("kind") == "bench_hotloop":
        geomean = payload.get("geomean_ops_per_s", 0.0)
        rows = [
            {"component": r.get("component"), "ops_per_s": r.get("ops_per_s")}
            for r in payload.get("rows", [])
        ]
    else:
        geomean = payload.get("accesses_per_s", 0.0)
        rows = []
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    record = {
        "kind": "bench_history",
        "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": commit,
        "payload_kind": payload.get("kind"),
        "geomean": geomean,
        "rows": rows,
    }
    os.makedirs(history_dir, exist_ok=True)
    path = os.path.join(history_dir, "history.jsonl")
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline", help="committed BENCH_sweep.json / BENCH_hotloop.json"
    )
    parser.add_argument(
        "new", help="freshly measured payload of the same kind"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional throughput drop (default: %(default)s)",
    )
    parser.add_argument(
        "--counters", choices=["auto", "always", "never"], default="auto",
        help="compare deterministic counters: auto = only when numpy "
             "versions match (default), always, never",
    )
    parser.add_argument(
        "--probe-tolerance", type=float, default=0.10,
        help="allowed fractional throughput cost of an attached probe "
             "(sampling or online analysis), gated per prefix within the "
             "new hotloop payload (default: %(default)s)",
    )
    parser.add_argument(
        "--engine-tolerance", type=float, default=0.25,
        help="allowed fractional shortfall of the array-engine rows' "
             "geomean throughput against their object-engine twins, gated "
             "per row family within the new hotloop payload "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--append-history", metavar="DIR", default=None,
        help="after a passing gate, append a {ts, commit, geomean, rows} "
             "record to DIR/history.jsonl — the bench trajectory that "
             "`repro report` plots",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_payload(args.baseline)
        new = load_payload(args.new)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return MISMATCH
    code, messages = compare(
        baseline, new, tolerance=args.tolerance, counters=args.counters,
        probe_tolerance=args.probe_tolerance,
        engine_tolerance=args.engine_tolerance,
    )
    for line in messages:
        print(line)
    if code == OK and args.append_history:
        path = append_history(new, args.append_history)
        print(f"ok: history record appended to {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
