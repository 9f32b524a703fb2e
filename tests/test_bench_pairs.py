"""The pairs writer's parsing and summary, on made-up runs (no benchmark
is run here; CI runs the tool on tiny inputs)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def run(side: str, seed: int, qps: float, setup: float, exit_code: int = 0) -> dict:
    metrics = {"queries_per_s": {"value": qps, "unit": "1/s"}, "setup_s": {"value": setup, "unit": "s"}}
    return {"workload": "w", "side": side, "seed": seed, "exit_code": exit_code,
            "result": {"correct": True, "metrics": metrics}}


def test_parse_stdout():
    lines = ["perfbench w seed=0 trace=0", 'stamp {"seed": 0}', "  queries_per_s 1 1/s",
             "digest sha256:abc over the first 5 operations", '{"correct": true, "metrics": {}}']
    assert bench_pairs.parse_stdout(lines) == {
        "stamp": {"seed": 0}, "digest": "sha256:abc", "result": {"correct": True, "metrics": {}},
    }
    assert bench_pairs.parse_stdout(["perfbench: no program"])["result"] is None


def test_summary_counts_wins_and_the_bound():
    runs = [run("parent", 0, 100, 1.0), run("change", 0, 110, 1.4),
            run("change", 1, 90, 1.3), run("parent", 1, 100, 1.0),
            run("parent", 2, 100, 1.0), run("change", 2, 120, 1.2)]
    summary = bench_pairs.summarize(runs, ["w"], END_TO_END)["w"]
    qps, setup = summary["queries_per_s"], summary["setup_s"]
    assert (qps["pairs"], qps["change_wins"], qps["worse"]) == (3, 2, False)
    assert qps["change"]["median"] == 110 and qps["change"]["iqr"] == pytest.approx(15)
    assert (setup["change_wins"], setup["worse"]) == (0, True)  # 1.3 s against at most 1.25 s


def test_failed_runs_leave_the_summary():
    runs = [run("parent", 0, 100, 1.0), run("change", 0, 10, 9.0, exit_code=1)]
    qps = bench_pairs.summarize(runs, ["w"], END_TO_END)["w"]["queries_per_s"]
    assert (qps["pairs"], qps["change"]["median"], qps["worse"]) == (0, None, None)
