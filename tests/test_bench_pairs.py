"""The pairs writer's parsing and summary, on made-up runs (no benchmark
is run here; CI runs the tool on tiny inputs)."""

from __future__ import annotations

import importlib.util
import json
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


def run(side: str, seed: int, qps: float, setup: float, exit_code: int = 0, digest: str | None = "sha256:a",
        workload: str = "w") -> dict:
    metrics = {"queries_per_s": {"value": qps, "unit": "1/s"}, "setup_s": {"value": setup, "unit": "s"}}
    return {"workload": workload, "side": side, "seed": seed, "exit_code": exit_code, "digest": digest,
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
    assert (qps["unresolved"], setup["unresolved"]) == (False, False)  # the parent never moved


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent queries_per_s 60, 100, 140: IQR 40 against 25; setup_s 1, 2, 3:
    # IQR 1 against 0.5, but every change run is faster than every parent run
    runs = [run("parent", seed, qps, setup) for seed, (qps, setup) in enumerate([(60, 1.0), (100, 2.0), (140, 3.0)])]
    runs += [run("change", seed, qps, setup) for seed, (qps, setup) in enumerate([(110, 0.5), (120, 0.6), (130, 0.9)])]
    summary = bench_pairs.summarize(runs, ["w"], END_TO_END)["w"]
    assert (summary["queries_per_s"]["unresolved"], summary["setup_s"]["unresolved"]) == (True, False)


def test_gain_shown_takes_ten_pairs_nine_wins_and_a_median_past_the_parents_iqr():
    def shown(parent_qps, change_qps, parent_setup, change_setup):
        runs = [run("parent", seed, qps, setup) for seed, (qps, setup) in enumerate(zip(parent_qps, parent_setup))]
        runs += [run("change", seed, qps, setup) for seed, (qps, setup) in enumerate(zip(change_qps, change_setup))]
        summary = bench_pairs.summarize(runs, ["w"], END_TO_END)["w"]
        return summary["queries_per_s"]["gain_shown"], summary["setup_s"]["gain_shown"]

    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # median 104.5, IQR 4.5
    setup = [1.0] * 10
    # nine wins and one tie; set-up time is lower-better, and 0.9 s beats 1.0 s by more than an IQR of 0
    assert shown(parent, [q + 6 for q in parent[:9]] + [109], setup, [0.9] * 10) == (True, True)
    assert shown(parent, [q + 6 for q in parent[:8]] + [107, 108], setup, setup) == (False, False)  # eight wins
    assert shown(parent, [q + 4 for q in parent], setup, setup) == (False, False)  # within the IQR
    assert shown(parent[:9], [q + 6 for q in parent[:9]], setup[:9], [0.9] * 9) == (False, False)  # nine pairs


def test_failed_runs_leave_the_summary():
    runs = [run("parent", 0, 100, 1.0), run("change", 0, 10, 9.0, exit_code=1)]
    qps = bench_pairs.summarize(runs, ["w"], END_TO_END)["w"]["queries_per_s"]
    assert (qps["pairs"], qps["change"]["median"], qps["worse"], qps["unresolved"]) == (0, None, None, None)


def test_digests_differ_lists_the_seeds_whose_picks_moved():
    runs = [run("parent", 0, 100, 1.0), run("change", 0, 100, 1.0),
            run("change", 1, 100, 1.0, digest="sha256:b"), run("parent", 1, 100, 1.0),
            run("parent", 2, 100, 1.0), run("change", 2, 100, 1.0, exit_code=1, digest=None),
            run("parent", 0, 100, 1.0, workload="v"), run("change", 0, 100, 1.0, workload="v", digest="sha256:c")]
    assert bench_pairs.digests_differ(runs, ["w", "v", "u"]) == {"w": [1], "v": [0], "u": []}


def test_main_names_the_seeds_whose_digests_differ(tmp_path, monkeypatch, capsys):
    spec = {"command": ["true"], "workloads": [{"name": "w"}, {"name": "v"}], "end_to_end": END_TO_END}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))

    def fake_run(command, tree, workload, seed, seconds, size):
        moved = tree.name == "change" and workload == "v" and seed == 1
        qps = 60 + 80 * seed if tree.name == "parent" and workload == "w" else 100  # parent IQR 40, bound 25
        made_up = run(tree.name, seed, qps, 1.0, digest="sha256:b" if moved else "sha256:a")
        return {"seconds": 0.0, **{key: made_up[key] for key in ("exit_code", "digest", "result")}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert json.loads(out.read_text())["digests_differ"] == {"w": [], "v": [1]}
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "gain shown: none; unresolved: w queries_per_s; digests differ: v seed 1")


def test_main_lists_each_sides_source_digests(tmp_path, monkeypatch, capsys):
    spec = {"command": ["true"], "workloads": [{"name": "w"}], "end_to_end": END_TO_END}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))

    def fake_run(command, tree, workload, seed, seconds, size):
        # the change tree was edited between its two runs; the second parent run printed no stamp
        source = "sha256:p" if tree.name == "parent" else f"sha256:c{seed}"
        stamp = None if tree.name == "parent" and seed == 1 else {"source_sha256": source}
        made_up = run(tree.name, seed, 100, 1.0)
        return {"seconds": 0.0, "stamp": stamp, **{key: made_up[key] for key in ("exit_code", "digest", "result")}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    sides = json.loads(out.read_text())["sides"]
    assert (sides["parent"]["source_sha256"], sides["change"]["source_sha256"]) == (["sha256:p"], ["sha256:c0", "sha256:c1"])
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert warnings == ["bench_pairs: warning: the change side ran 2 different sources"]
