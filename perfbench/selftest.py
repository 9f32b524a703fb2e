"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, prints every metric
   BENCHMARK.json names, with its unit, checks correct, and fails nothing.
2. The output checker accepts real plans and rejects corrupted ones (stages
   swapped, a unit dropped, a wrong residual, wrong totals, a wrong
   infeasibility report), and two runs with different digests are refused.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits non-zero without printing a result.

Exits 0 when every check holds; prints the first failure and exits 1
otherwise.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def tiny_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = _run(["--workload", workload["name"], "--seed", "7", "--seconds", "1", "--trace", trace,
                         "--size", "tiny"])
            assert proc.returncode == 0, f"{workload['name']} trace={trace} exited {proc.returncode}: {proc.stderr}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload['name']} trace={trace}: metrics {got} != {want}"
            for name in want:
                assert f"  {name} " in proc.stdout, f"{name} missing from the printed report"
            print(f"ok  tiny {workload['name']} trace={trace}")


def _rejects(what: str, fn) -> None:
    try:
        fn()
    except check.CheckFailed:
        print(f"ok  checker rejects {what}")
        return
    raise AssertionError(f"checker accepted {what}")


def checker() -> None:
    import lqplan
    from lqplan import cli

    dictionary, _ = lqplan.generate(lqplan.GenSpec(seed=11, lq_count=300, kf_count=240))
    WORK.mkdir(parents=True, exist_ok=True)
    dict_path = WORK / "dict.json"
    dict_path.write_bytes(lqplan.serialize_dictionary(dictionary))
    ref = check.Reference.load(dict_path)
    known = frozenset(sorted(ref.closure(()))[:1])
    attainable = sorted(ref.closure(known) - known)

    # A plan with at least two stages and two rounds, so every corruption bites.
    for start in range(0, len(attainable) - 20, 5):
        target = frozenset(attainable[start:start + 20])
        profile = lqplan.LearnerProfile(known=known, target=target)
        trace = lqplan.backward_resolve(profile, dictionary, config=lqplan.CoverConfig(mode=lqplan.CoverMode.GREEDY))
        plan = lqplan.topo_schedule(lqplan.build_digraph(trace.solution, dictionary, profile), dictionary)
        if len(plan.stages) >= 2 and len(trace.iterations) >= 2:
            break
    else:
        raise AssertionError("no multi-stage plan found for the checker test")
    rec = check.record_from_library(trace, plan)
    check.check_plan(ref, known, target, True, rec)
    print("ok  checker accepts a real plan")

    stages = list(rec.stages)
    stages[0], stages[1] = stages[1], stages[0]
    _rejects("swapped stages", lambda: check.check_plan(ref, known, target, True, replace(rec, stages=tuple(stages))))
    dropped = (rec.stages[0][1:],) + rec.stages[1:]
    _rejects("a dropped unit", lambda: check.check_plan(ref, known, target, True, replace(rec, stages=dropped)))
    first = rec.iterations[0]
    bad_round = ((first[0], first[1], first[2][1:]),) + rec.iterations[1:]
    _rejects("a wrong residual", lambda: check.check_plan(ref, known, target, True, replace(rec, iterations=bad_round)))
    _rejects("wrong totals", lambda: check.check_plan(ref, known, target, True, replace(rec, totals=(0, 0))))

    argv = ["plan", "--dict", str(dict_path), "--known", ",".join(known), "--target", ",".join(sorted(target)),
            "--mode", "greedy"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    doc = json.loads(out.getvalue())
    check.check_plan(ref, known, target, True, check.plan_from_json(doc))
    doc["plan"]["stages"][0] = doc["plan"]["stages"][0][1:]
    _rejects("CLI JSON with a dropped unit",
             lambda: check.check_plan(ref, known, target, True, check.plan_from_json(doc)))

    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv + ["--format", "text"]) == 0
    lines = out.getvalue().splitlines()
    check.check_plan(ref, known, target, True, check.plan_from_text(out.getvalue()))
    s1 = next(i for i, line in enumerate(lines) if line.startswith("  stage 1:"))
    lines[s1], lines[s1 + 1] = lines[s1 + 1].replace("stage 2", "stage 1"), lines[s1].replace("stage 1", "stage 2")
    _rejects("CLI text with swapped stages",
             lambda: check.check_plan(ref, known, target, True, check.plan_from_text("\n".join(lines))))

    check.check_infeasible(ref, known, target | {"absent"}, 0, {"absent"})
    _rejects("a wrong stage-0 infeasibility",
             lambda: check.check_infeasible(ref, known, target | {"absent"}, 0, {"absent", attainable[0]}))

    run = {"digest": check.digest([[0, "plan", rec.canonical()]]), "counters": {"cover.rounds": 2}}
    check.compare_runs(run, dict(run))
    _rejects("a wrong digest", lambda: check.compare_runs(run, dict(run, digest="0" * 64)))
    _rejects("differing counters", lambda: check.compare_runs(run, dict(run, counters={"cover.rounds": 3})))


def bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(["--workload", "greedy-broad", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the program"
    assert '"metrics"' not in proc.stdout, "run.py printed a result without the program"
    print(f"ok  without the program run.py exits {proc.returncode} and prints no result")


def main() -> int:
    try:
        checker()
        bare_directory()
        tiny_runs()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
