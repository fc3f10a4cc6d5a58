"""Tests for the paired end-to-end benchmark tool (tools/pair_bench.py).

The tool is a stdlib-only script outside the package, so it is loaded by
file path rather than imported from ``repro``.  Its verdict is tested on
synthetic payloads shaped like ``perfbench/run.py``'s JSON result.
"""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("pair_bench", _ROOT / "tools" / "pair_bench.py")
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)

METRICS = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BOUND = {m["name"]: m["bound"] for m in METRICS}


def _payload(rate=1e6, setup=0.5, rss=50.0, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "accesses_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def _judge(pairs):
    summary = pair_bench.summarize(pairs, METRICS)
    return summary, pair_bench.verdict("w", pairs, summary, METRICS)


def test_identical_sides_pass_at_ratio_one():
    pairs = [{"base": _payload(), "head": _payload()} for _ in range(3)]
    summary, fails = _judge(pairs)
    assert fails == []
    for got in summary.values():
        assert got["ratio"] == 1.0
        assert got["better"] == got["worse"] == 0
        assert got["pairs"] == 3


def test_median_pair_ratio_and_direction_counts():
    # head rates 1.3, 0.9 and 1.2 times the base's: median 1.2, two pairs
    # better and one worse; a lower setup time is better
    pairs = [
        {"base": _payload(rate=1e6, setup=1.0), "head": _payload(rate=1.3e6, setup=0.5)},
        {"base": _payload(rate=2e6, setup=1.0), "head": _payload(rate=1.8e6, setup=1.1)},
        {"base": _payload(rate=1e6, setup=1.0), "head": _payload(rate=1.2e6, setup=0.9)},
    ]
    summary, fails = _judge(pairs)
    assert fails == []
    rate = summary["accesses_per_s"]
    assert rate["ratio"] == pytest.approx(1.2)
    assert (rate["better"], rate["worse"]) == (2, 1)
    assert rate["base_median"] == 1e6 and rate["head_median"] == 1.3e6
    assert (rate["base_q1"], rate["base_q3"]) == (1e6, 1.5e6)
    setup = summary["setup_s"]
    assert setup["ratio"] == pytest.approx(0.9)
    assert (setup["better"], setup["worse"]) == (2, 1)


@pytest.mark.parametrize(
    "head, failing",
    [
        (_payload(rate=1e6 * (0.99 - BOUND["accesses_per_s"])), "accesses_per_s"),
        (_payload(setup=0.5 * (1.01 + BOUND["setup_s"])), "setup_s"),
        (_payload(rss=50.0 * (1.01 + BOUND["peak_rss_mb"])), "peak_rss_mb"),
    ],
    ids=["slower", "longer-setup", "more-memory"],
)
def test_a_median_beyond_its_bound_fails(head, failing):
    pairs = [{"base": _payload(), "head": head} for _ in range(3)]
    _summary, fails = _judge(pairs)
    assert len(fails) == 1 and fails[0].startswith(f"w {failing}: median ratio")


def test_changes_inside_the_bounds_pass():
    head = _payload(
        rate=1e6 * (1.01 - BOUND["accesses_per_s"]),
        setup=0.5 * (0.99 + BOUND["setup_s"]),
        rss=50.0 * (0.99 + BOUND["peak_rss_mb"]),
    )
    pairs = [{"base": _payload(), "head": head} for _ in range(3)]
    assert _judge(pairs)[1] == []


def test_one_outlier_pair_does_not_move_the_median():
    pairs = [{"base": _payload(), "head": _payload()} for _ in range(4)]
    pairs.append({"base": _payload(), "head": _payload(rate=0.2e6)})
    assert _judge(pairs)[1] == []


@pytest.mark.parametrize(
    "bad",
    [_payload(correct=False), _payload(failed=2), None],
    ids=["incorrect", "failed-passes", "no-result"],
)
@pytest.mark.parametrize("side", ["base", "head"])
def test_any_bad_run_fails_the_verdict(bad, side):
    pairs = [{"base": _payload(), "head": _payload()} for _ in range(3)]
    pairs[1][side] = bad
    summary, fails = _judge(pairs)
    assert any(f.startswith(f"w pair 2 {side}:") for f in fails)
    if bad is None:
        # the incomplete pair is left out of the ratios
        assert summary["accesses_per_s"]["pairs"] == 2


def test_no_complete_pair_fails():
    summary, fails = _judge([{"base": None, "head": _payload()}])
    assert summary["accesses_per_s"] == {"pairs": 0}
    assert "w accesses_per_s: no complete pair" in fails


def test_pairs_alternate_which_side_runs_first():
    assert pair_bench.schedule(4) == [
        ("base", "head"),
        ("head", "base"),
        ("base", "head"),
        ("head", "base"),
    ]


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_extract_writes_the_committed_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "kept.txt").write_text("committed\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "kept.txt"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    (repo / "kept.txt").write_text("uncommitted\n")
    monkeypatch.setattr(pair_bench, "ROOT", repo)
    dest = tmp_path / "base"
    dest.mkdir()
    commit = pair_bench.extract("HEAD", dest)
    assert len(commit) == 40
    assert (dest / "kept.txt").read_text() == "committed\n"
