"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 --seconds 30 --out bench.json

For pair k = 0, 1, ... and every workload in the change tree's
BENCHMARK.json, it runs the declared command (``perfbench/run.py``) with
``--workload W --seed k --seconds S --trace 0`` once in each tree, the
parent first on even k and the change first on odd k. Both trees must
hold the same BENCHMARK.json. Each run is recorded with its side, seed,
order in the pair, wall seconds, exit code and every stdout line, with
the stamp, digest and final JSON line parsed out. Each side records its
``git rev-parse HEAD``, whether its working tree differs from it, and
the sorted distinct ``source_sha256`` values of its runs' stamps: the
digest of the source it actually ran, which the stamp's commit does not
name for an uncommitted change. A side that ran more than one source
gets a warning on stderr.

For every workload and end-to-end metric the summary holds each side's
values, median and interquartile range, the pairs the change wins
(strictly better, as the metric's ``better`` says), ``worse``: whether
the change's median is worse than the parent's by more than the metric's
bound, taken as a fraction of the parent's median, ``unresolved``:
whether the parent's interquartile range is wider than that bound while
some change run does not beat every parent run, so that the runs cannot
tell a change within the bound from none, and ``gain_shown``: whether
the runs show a gain, which takes at least ten pairs, wins in at least
nine tenths of them (ties count for neither side), and a change median
better than the parent's by more than the parent's interquartile range.
Beside it,
``digests_differ`` lists each workload's seeds whose parent and change
runs printed different digests: a speed change must not move a pick.

Stdlib only. Exits 0 when every run ended with exit 0 and a final JSON
line, 1 otherwise; the verdict on the metrics is in the file, not in the
exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 900
GAIN_MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def git_side(tree: Path) -> dict:
    """HEAD of the tree (run.py's own stamp reads ``.git/HEAD``, which is
    a file, not a directory, in a linked worktree) and whether the tree
    differs from it."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def source_digests(runs: list[dict], side: str) -> list[str]:
    """The distinct source digests stamped by one side's runs, sorted."""
    return sorted({run["stamp"]["source_sha256"] for run in runs if run["side"] == side and run.get("stamp")})


def parse_stdout(lines: list[str]) -> dict:
    """The stamp, the digest and the final JSON line of a run.py output."""
    parsed: dict = {"stamp": None, "digest": None, "result": None}
    for line in lines:
        if line.startswith("stamp "):
            parsed["stamp"] = json.loads(line[len("stamp "):])
        elif line.startswith("digest "):
            parsed["digest"] = line.split()[1]
    if lines:
        try:
            parsed["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return parsed


def run_once(command: list[str], tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if size != "full":
        argv += ["--size", size]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:  # its output is bytes even in text mode
        code, stdout, stderr = None, (exc.stdout or b"").decode(), f"timed out after {RUN_TIMEOUT_S} s"
    lines = stdout.splitlines()
    return {
        "seconds": time.perf_counter() - start,
        "exit_code": code,
        "stdout": lines,
        "stderr_tail": stderr.splitlines()[-20:],
        **parse_stdout(lines),
    }


def spread(values: list[float]) -> dict:
    """Median and interquartile range; the range is 0 below two values."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "iqr": 0.0 if values else None}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def summarize(runs: list[dict], workloads: list[str], end_to_end: list[dict]) -> dict:
    """Per workload and metric: both sides' values, medians and IQRs, the
    change's wins over the pairs where both sides gave the metric, whether
    the change's median is worse than the bound allows, whether the
    parent's spread is too wide for the bound to decide, and whether the
    runs show a gain."""
    summary: dict = {}
    for workload in workloads:
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload and run["result"] is not None and run["exit_code"] == 0:
                pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
        per_metric = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side][name]["value"] for _, p in sorted(pairs.items()) if side in p]
                      for side in ("parent", "change")}
            both = [(p["parent"][name]["value"], p["change"][name]["value"])
                    for _, p in sorted(pairs.items()) if len(p) == 2]
            wins = sum(change < parent if lower else change > parent for parent, change in both)
            parent, change = spread(values["parent"]), spread(values["change"])
            worse = unresolved = gain_shown = None
            if parent["median"] is not None and change["median"] is not None:
                limit = parent["median"] * (1 + metric["bound"] if lower else 1 - metric["bound"])
                worse = change["median"] > limit if lower else change["median"] < limit
                gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
                gain_shown = (len(both) >= GAIN_MIN_PAIRS and wins >= GAIN_WIN_SHARE * len(both)
                              and gain > parent["iqr"])
                if lower:
                    beats_all = max(values["change"]) < min(values["parent"])
                else:
                    beats_all = min(values["change"]) > max(values["parent"])
                unresolved = parent["iqr"] > metric["bound"] * parent["median"] and not beats_all
            per_metric[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": {"values": values["parent"], **parent},
                "change": {"values": values["change"], **change},
                "pairs": len(both), "change_wins": wins, "worse": worse, "unresolved": unresolved,
                "gain_shown": gain_shown,
            }
        summary[workload] = per_metric
    return summary


def digests_differ(runs: list[dict], workloads: list[str]) -> dict[str, list[int]]:
    """Per workload, the seeds at which both sides printed a digest and
    the two differ."""
    digests: dict[str, dict[int, set[str]]] = {workload: {} for workload in workloads}
    for run in runs:
        if run["digest"] is not None:
            digests[run["workload"]].setdefault(run["seed"], set()).add(run["digest"])
    return {workload: sorted(seed for seed, seen in by_seed.items() if len(seen) > 1)
            for workload, by_seed in digests.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    if json.loads((trees["parent"] / "BENCHMARK.json").read_text()) != spec:
        print("bench_pairs: the two trees hold different BENCHMARK.json files", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in range(args.pairs):
        for workload in workloads:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                run = run_once(spec["command"], trees[side], workload, seed, args.seconds, args.size)
                runs.append({"workload": workload, "side": side, "seed": seed, "order": position, **run})
                print(f"pair {seed} {workload} {side}: exit {run['exit_code']} in {run['seconds']:.1f} s",
                      file=sys.stderr)
    summary = summarize(runs, workloads, spec["end_to_end"])
    worse = [f"{w} {m}" for w, metrics in summary.items() for m, s in metrics.items() if s["worse"]]
    unresolved = [f"{w} {m}" for w, metrics in summary.items() for m, s in metrics.items() if s["unresolved"]]
    gains = [f"{w} {m}" for w, metrics in summary.items() for m, s in metrics.items() if s["gain_shown"]]
    moved = digests_differ(runs, workloads)
    document = {
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "size": args.size, "trace": 0,
                     "command": spec["command"]},
        "sides": {side: {**git_side(tree), "source_sha256": source_digests(runs, side)}
                  for side, tree in trees.items()},
        "runs": runs,
        "summary": summary,
        "worse_than_bound": worse,
        "gain_shown": gains,
        "digests_differ": moved,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    for side, facts in document["sides"].items():
        if len(facts["source_sha256"]) > 1:
            print(f"bench_pairs: warning: the {side} side ran {len(facts['source_sha256'])} different sources",
                  file=sys.stderr)
    failed = [r for r in runs if r["exit_code"] != 0 or r["result"] is None]
    differ = [f"{w} seed {', '.join(map(str, seeds))}" for w, seeds in moved.items() if seeds]
    print(f"bench_pairs: {len(runs)} runs, {len(failed)} failed; worse than bound: {', '.join(worse) or 'none'}; "
          f"gain shown: {', '.join(gains) or 'none'}; unresolved: {', '.join(unresolved) or 'none'}; "
          f"digests differ: {'; '.join(differ) or 'none'}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
