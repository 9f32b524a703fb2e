"""Run one workload's operations in a process of its own.

``run.py`` generates the inputs and starts this script, so the inputs'
generation never shows in this process's peak memory. The worker loads the
dictionary (set-up), runs the operations, checks every output with
``check.py`` and prints one JSON object as its last line.

Modes:
  e2e    closed loop, one client, untraced, whole passes over the
         operations for about ``--seconds``; each operation is checked
         right after it completes, outside its latency.
  trace  the first ``trace_ops`` operations, plus the first ``probe_ops``
         plans sent through the other front end, once untraced and once
         traced, so the counters and the digest cover a fixed set of
         operations.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from time import perf_counter

import lqplan.cli as cli
import lqplan.cover as cover
import lqplan.model as model
import lqplan.sequence as sequence
from lqplan import CoverConfig, CoverMode, CycleDetected, ExactTooLarge, Infeasible, LearnerProfile, MinimalityMetric

import check
import speed
from inputs import cli_argv, probes
from spans import Tracer

MIN_PASSES = 2
CLI_TIMEOUT_S = 60
_REFUSED_RE = re.compile(r"exact cover over (\d+) relevant candidates exceeds the cap of (\d+)")
_INFEASIBLE_RE = re.compile(r"^lqplan: Infeasible at stage (\d+): uncovered = (.*)$")
_CYCLE_RE = re.compile(r"^lqplan: prerequisite cycle: (.*)$")


class Workload:
    def __init__(self, manifest: dict):
        self.m = manifest
        self.ref = check.Reference.load(manifest["dict_path"])
        self.base_known = frozenset(manifest["base_known"])
        self.ops = manifest["ops"]
        self.library = manifest["spec"]["kind"] == "library"
        self.dictionary = None
        self.env = dict(os.environ, PYTHONPATH=manifest["src"])

    def known(self, op: dict) -> frozenset[str]:
        return self.base_known | frozenset(op["known_extra"])

    # -- set-up --------------------------------------------------------------

    def load(self, tracer: Tracer | None = None) -> float:
        """One set-up: ``load_dictionary`` (parse plus validate) on the file.
        The previous dictionary is dropped first, so only one is held."""
        self.dictionary = None
        start = perf_counter()
        with open(self.m["dict_path"], "rb") as f:
            if tracer is None:
                self.dictionary = model.load_dictionary(f)
            else:
                self.dictionary = tracer.call("bench.setup", model.load_dictionary, f)
        return perf_counter() - start

    # -- operations ----------------------------------------------------------

    def query(self, op: dict):
        """The README's library pipeline. A refused exact query is retried in
        greedy mode, as the refusal message advises."""
        profile = LearnerProfile(known=self.known(op), target=frozenset(op["target"]))
        config = CoverConfig(
            metric=MinimalityMetric(op["metric"]),
            mode=CoverMode(op["mode"]),
            reuse_acquired_objectives=not op["strict"],
        )
        refused = None
        while True:
            try:
                trace = cover.backward_resolve(profile, self.dictionary, config=config)
                graph = sequence.build_digraph(trace.solution, self.dictionary, profile)
                plan = sequence.topo_schedule(graph, self.dictionary)
                verdict = sequence.simulate_plan(plan, self.dictionary, profile)
                return refused, ("plan", trace, graph, plan, verdict)
            except ExactTooLarge as exc:
                if config.mode is CoverMode.GREEDY:
                    raise
                refused = [exc.count, exc.bound]
                config = replace(config, mode=CoverMode.GREEDY)
            except Infeasible as exc:
                return refused, ("infeasible", exc.stage, exc.uncovered)
            except CycleDetected as exc:
                return refused, ("cycle", exc.cycle)

    def cli_process(self, argv: list[str]) -> tuple[int, str, str]:
        code, out, err = speed.run_process([sys.executable, "-m", "lqplan", *argv], CLI_TIMEOUT_S,
                                           env=self.env, cwd=self.m["root"])
        return code, out.decode(), err.decode()

    def cli_inprocess(self, argv: list[str], tracer: Tracer | None = None) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, argv)
        if tracer is not None:
            tracer.add("cli.stdout_bytes", len(out.getvalue().encode()))
        return code, out.getvalue(), err.getvalue()

    def cli(self, op: dict, run):
        argv = cli_argv(op, self.m["dict_path"], self.m["base_known"])
        result = run(argv)
        if op.get("mode") == "exact" and result[0] == cli.EXIT_USAGE and (m := _REFUSED_RE.search(result[2])):
            argv[argv.index("--mode") + 1] = "greedy"
            return [int(m[1]), int(m[2])], run(argv)
        return None, result

    def run(self, op: dict, tracer: Tracer | None = None, process: bool = True):
        if op["kind"] == "query":
            return self.query(op)
        if process:
            return self.cli(op, self.cli_process)
        return self.cli(op, lambda argv: self.cli_inprocess(argv, tracer))

    def execute(self, op: dict, tracer: Tracer | None = None, process: bool = True):
        """Run one operation; returns (result, error text, seconds)."""
        start = perf_counter()
        try:
            if tracer is None:
                result = self.run(op, process=process)
            else:
                tracer.op = ("probe" if op.get("probe") else "op") + str(op["index"])
                result = tracer.call("bench.op", self.run, op, tracer, process)
            error = None
        except Exception as exc:  # an undocumented failure is a failed operation, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        return result, error, perf_counter() - start

    # -- checking ------------------------------------------------------------

    def judge(self, op: dict, result, error) -> tuple[str, list]:
        """Check one outcome; returns (status, canonical record)."""
        head = [op["index"], op["kind"]]
        if error is not None:
            return "failed", head + ["error", error]
        refused, out = result
        try:
            body = self._judge_query(op, out) if op["kind"] == "query" else self._judge_cli(op, *out)
        except (check.CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
            return "wrong", head + ["wrong", f"{type(exc).__name__}: {exc}"]
        return body[0], head + [refused] + body

    def _judge_query(self, op: dict, out) -> list:
        known, target, reuse = self.known(op), op["target"], not op["strict"]
        if out[0] == "infeasible":
            check.check_infeasible(self.ref, known, target, out[1], out[2])
            return ["infeasible", out[1], sorted(out[2])]
        if out[0] == "cycle":
            check.check_cycle(self.ref, known, out[1])
            return ["cycle", list(out[1])]
        _, trace, graph, plan, verdict = out
        if not verdict.ok:
            raise check.CheckFailed(f"simulate_plan rejects its own plan: {verdict}")
        rec = check.record_from_library(trace, plan)
        if any(it.k != len(it.selected) for it in trace.iterations) or trace.cardinality != len(rec.solution) \
                or plan.lq_count != len(rec.solution) or graph.nodes != frozenset(rec.solution):
            raise check.CheckFailed("reported counts or digraph nodes disagree with the solution")
        check.check_plan(self.ref, known, target, reuse, rec)
        return ["plan", rec.canonical()]

    def _judge_cli(self, op: dict, code: int, stdout: str, stderr: str) -> list:
        known = self.known(op)
        fingerprint = hashlib.sha256((stdout + "\0" + stderr).encode()).hexdigest()
        kind = op["kind"]
        if kind.startswith("plan") and code == cli.EXIT_INFEASIBLE:
            m = _INFEASIBLE_RE.match(stderr.strip())
            if not m:
                raise check.CheckFailed(f"unparsable infeasibility report {stderr!r}")
            check.check_infeasible(self.ref, known, op["target"], int(m[1]), m[2].split(", "))
            return ["infeasible", code, fingerprint]
        if kind.startswith("plan") and code == cli.EXIT_CYCLE:
            m = _CYCLE_RE.match(stderr.strip())
            if not m:
                raise check.CheckFailed(f"unparsable cycle report {stderr!r}")
            check.check_cycle(self.ref, known, tuple(m[1].split(" -> ")[:-1]))
            return ["cycle", code, fingerprint]
        if code != cli.EXIT_OK:
            raise check.CheckFailed(f"{kind} exited {code}: {stderr.strip()}")
        if kind.startswith("plan-json"):
            doc = json.loads(stdout)
            if doc["known"] != sorted(known) or sorted(doc["target"]) != sorted(op["target"]):
                raise check.CheckFailed("plan echoes the wrong query")
            check.check_plan(self.ref, known, op["target"], not op["strict"], check.plan_from_json(doc))
        elif kind == "plan-text-exact":
            check.check_plan(self.ref, known, op["target"], not op["strict"], check.plan_from_text(stdout))
        elif kind == "counsel":
            check.check_counsel(self.ref, known, op["lq"], json.loads(stdout))
        elif kind == "validate":
            lines = stdout.splitlines()
            expected = f"OK: {len(self.ref.units)} quanta, {self.ref.clouds} clouds"
            if not lines or lines[-1] != expected or any(line.startswith("error") for line in lines):
                raise check.CheckFailed(f"validate printed {stdout!r}")
        return ["plan" if kind.startswith("plan") else kind, code, fingerprint]


# -- modes ---------------------------------------------------------------------


class Timeline:
    """Timed samples between calibrations (see ``speed.py``). A segment is
    opened by one calibration and closed by the next; each sample is
    adjusted by the mean of its segment's two."""

    def __init__(self, calibrate, every_s: float) -> None:
        self.calibrate = calibrate
        self.every_s = every_s
        self.cals = [calibrate()]
        self.opened = perf_counter()
        self.samples: list[tuple[str, int, float, int]] = []  # (kind, index, seconds, segment)

    def cut(self) -> None:
        self.cals.append(self.calibrate())
        self.opened = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self.opened >= self.every_s

    def add(self, kind: str, index: int, seconds: float) -> None:
        self.samples.append((kind, index, seconds, len(self.cals) - 1))

    def adjusted(self, kind: str, reference: float) -> list[tuple[int, float, float]]:
        """(index, measured seconds, adjusted seconds) of every closed sample of ``kind``."""
        return [
            (i, t, t * reference * 2 / (self.cals[seg] + self.cals[seg + 1]))
            for k, i, t, seg in self.samples if k == kind and seg + 1 < len(self.cals)
        ]


def _per_op(samples: list[tuple[int, float, float]], field: int, n: int) -> list[float]:
    """Each operation's median time over its passes."""
    times: list[list[float]] = [[] for _ in range(n)]
    for sample in samples:
        times[sample[0]].append(sample[field])
    return [statistics.median(t) for t in times]


def _timed_load(w: Workload, timeline: Timeline, index: int) -> None:
    """One set-up in a segment of its own."""
    timeline.cut()
    timeline.add("setup", index, w.load())
    timeline.cut()


def run_e2e(w: Workload) -> dict:
    """The closed loop: whole passes over the operation list until the next
    pass would end past ``--seconds`` (at least MIN_PASSES), so every
    operation is timed equally often. Every time is adjusted for host speed
    (``speed.py``). Set-up is repeated ``setup_repeats`` times, spread
    evenly over the run, between operations and outside their latency."""
    seconds = w.m["seconds"]
    spec = w.m["spec"]
    # Set-up runs in this process; CLI operations each start a process.
    timeline = Timeline(speed.calibrate, 0.5)
    op_timeline = timeline if w.library else Timeline(speed.calibrate_process, 1.0)
    loads = 0
    setup_every = seconds / spec["setup_repeats"]
    tally: Counter = Counter()
    records: list = [None] * len(w.ops)
    wrong: list[list] = []
    start = perf_counter()
    passes = 0
    while True:
        for i, op in enumerate(w.ops):
            if loads < spec["setup_repeats"] and perf_counter() - start >= setup_every * loads:
                _timed_load(w, timeline, loads)
                loads += 1
            if op_timeline.due():
                op_timeline.cut()
            result, error, seconds_taken = w.execute(op)
            op_timeline.add("op", i, seconds_taken)
            status, record = w.judge(op, result, error)
            tally[status] += 1
            tally["refused"] += bool(result and result[0])
            if status in ("failed", "wrong"):
                wrong.append(record)
            records[i] = records[i] or record
        passes += 1
        elapsed = perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    op_timeline.cut()
    loop_wall = perf_counter() - start
    while loads < spec["setup_repeats"]:
        _timed_load(w, timeline, loads)
        loads += 1
    reference = speed.REFERENCE_S if w.library else speed.REFERENCE_PROCESS_S
    latencies = op_timeline.adjusted("op", reference)
    setups = timeline.adjusted("setup", speed.REFERENCE_S)
    rusage = resource.getrusage(resource.RUSAGE_SELF if w.library else resource.RUSAGE_CHILDREN)
    return {
        "setup_times": [adjusted for _, _, adjusted in setups],
        "setup_times_measured": [measured for _, measured, _ in setups],
        "latencies": _per_op(latencies, 2, len(w.ops)),
        "latencies_measured": _per_op(latencies, 1, len(w.ops)),
        "busy": sum(sample[2] for sample in latencies),
        "busy_measured": sum(sample[1] for sample in latencies),
        "executions": len(latencies),
        "slowdown": statistics.median(op_timeline.cals) / reference,
        "calibrations": len(op_timeline.cals),
        "passes": passes,
        "loop_wall": loop_wall,
        "tally": dict(tally),
        "wrong": wrong[:5],
        "digest": check.digest(records[: spec["trace_ops"]]),
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
    }


def pin_to_one_cpu() -> None:
    """Run this worker, and the CLI children it starts, on one CPU, so each
    calibration measures the CPU that runs the timed work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _pass(w: Workload, ops: list[dict], tracer: Tracer | None = None) -> tuple[list[list], list[float]]:
    """Run ``ops`` in process; returns (records, seconds per operation)."""
    records, times = [], []
    for op in ops:
        result, error, seconds_taken = w.execute(op, tracer, process=False)
        times.append(seconds_taken)
        records.append(w.judge(op, result, error)[1])
    return records, times


def run_trace(w: Workload) -> dict:
    spec = w.m["spec"]
    ops = w.ops[: spec["trace_ops"]]
    all_ops = ops + probes(w.library, spec["probe_ops"], ops)
    problems = []

    for _ in range(spec["setup_repeats"]):
        w.load()
    records, times = _pass(w, all_ops)
    process = inprocess = 0.0
    for n, op in enumerate(all_ops):
        if op["kind"] == "query":
            continue
        result, error, seconds_taken = w.execute(op, process=True)
        process += seconds_taken
        inprocess += times[n]
        if w.judge(op, result, error)[1] != records[n]:
            problems.append(f"operation {op['index']}: the CLI process and in-process main disagree")

    tracer = Tracer()
    tracer.install()
    try:
        for n in range(spec["setup_repeats"]):
            tracer.op = f"setup{n}"
            w.load(tracer)
        traced_records, traced_times = _pass(w, all_ops, tracer)
    finally:
        tracer.uninstall()
    if traced_records != records:
        problems.append("traced and untraced passes disagree")
    problems += [json.dumps(r) for r in records if r[2] == "wrong"]
    return {
        "digest": check.digest(records[: len(ops)]),
        "counters": tracer.counter_metrics(),
        "layers": tracer.layer_metrics(),
        "per_query": tracer.layer_metrics({f"op{op['index']}" for op in ops}),
        "process_wall_s": process,
        "inprocess_main_s": inprocess,
        "busy_untraced": sum(times),
        "busy_traced": sum(traced_times),
        "failed": sum(r[2] in ("error", "wrong") for r in records),
        "problems": problems,
        "spans": tracer.dump(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--mode", choices=["e2e", "trace"], required=True)
    args = parser.parse_args()
    with open(args.manifest) as f:
        w = Workload(json.load(f))
    pin_to_one_cpu()
    result = run_e2e(w) if args.mode == "e2e" else run_trace(w)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
