"""lqplan benchmark: one command for every workload, metric and output check.

    python3 perfbench/run.py --workload greedy-broad --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree; it plans with ``src/lqplan`` of that
tree and writes only under ``.perfbench/`` there. The inputs are generated
here, then a worker process (``worker.py``) runs the workload, so the
generator never shows in the measured process. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json from an untraced closed loop; ``--trace
1`` reports the per-layer metrics from two traced workers started with
different ``PYTHONHASHSEED`` values, whose counters and digests must agree.
The last line of output is one JSON object; the lines before it are the
same figures for people, with the environment stamp and the outcome digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10  # the tail latency has at least this many samples beyond it ...
TAIL_PERCENTILE = 95  # ... and lies at this percentile when there are enough samples


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _stamp(args, spec) -> dict:
    from inputs import source_digest, spec_stamp

    head = ROOT / ".git" / "HEAD"
    commit = "unknown: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": commit,
        "source_sha256": source_digest(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "spec": spec_stamp(spec),
    }


def _run_worker(manifest_path: Path, mode: str, hash_seed: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path), "--mode", mode],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of TAIL_PERCENTILE, or of the
    highest percentile with TAIL_BEYOND samples beyond it if that is lower.
    The sample at the very top is a handful of the hardest operations of a
    seed and spreads too much from seed to seed. With too few samples for
    either, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = min(n - TAIL_BEYOND - 1, int(n * TAIL_PERCENTILE / 100) - 1) if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _e2e(res: dict) -> tuple[dict, list[str], int, int]:
    lat = res["latencies"]
    tally = res["tally"]
    attempted = sum(v for k, v in tally.items() if k != "refused")
    failed = tally.get("failed", 0) + tally.get("wrong", 0)
    tail, pct, beyond = _tail(lat)
    values = {
        "setup_s": statistics.median(res["setup_times"]),
        "queries_per_s": res["executions"] / res["busy"],
        "query_ms_p50": statistics.median(lat) * 1000,
        "query_ms_tail": tail * 1000,
        "ok_frac": (attempted - failed) / attempted,
        "first_try_frac": (attempted - tally.get("refused", 0)) / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    measured = res["latencies_measured"]
    notes = [
        f"times are adjusted for host speed: host slowdown {res['slowdown']:.3f} "
        f"(median of {res['calibrations']} calibrations / reference)",
        f"as measured: setup_s {statistics.median(res['setup_times_measured']):.6g} s, "
        f"queries_per_s {res['executions'] / res['busy_measured']:.6g} 1/s, query_ms_p50 {statistics.median(measured) * 1000:.6g} ms, "
        f"query_ms_tail {_tail(measured)[0] * 1000:.6g} ms",
        f"setup_s: median of {len(res['setup_times'])} loads spread over the run",
        f"latencies: {res['passes']} passes over {len(lat)} operations; an operation's latency is its median pass",
        f"query_ms_tail: p{pct:.2f} of {len(lat)} operations, {beyond} beyond it",
        f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted}; "
        f"{tally.get('wrong', 0)} failed the output check)",
        "outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(tally.items())),
        f"loop wall {res['loop_wall']:.3f} s",
    ]
    notes += [f"problem: {json.dumps(r)}" for r in res["wrong"]]
    return values, notes, attempted, failed


def _per_layer(a: dict, b: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer figures from two traced workers; times are their mean."""
    values = {k: (a["layers"][k] + b["layers"][k]) / 2 for k in a["layers"]}
    values.update(a["counters"])
    values["cli.startup_s"] = a["process_wall_s"] - a["inprocess_main_s"]
    values["trace.overhead_frac"] = statistics.mean(
        r["busy_traced"] / r["busy_untraced"] - 1 for r in (a, b)
    )
    q = a["per_query"]
    op_s = q["bench.op_s"] or 1.0
    shares = {
        "cover.cover_s": q["cover.cover_s"] / op_s,
        "model.closure_s": q["model.closure_s"] / op_s,
        "model.closure_s+cover.cover_s": (q["model.closure_s"] + q["cover.cover_s"]) / op_s,
        "model.parse_s+model.validate_s": (q["model.parse_s"] + q["model.validate_s"]) / op_s,
        "sequence": (q["sequence.digraph_s"] + q["sequence.schedule_s"] + q["sequence.simulate_s"]) / op_s,
    }
    notes = ["shares of traced operation time: " + ", ".join(f"{k}={v:.3f}" for k, v in shares.items())]
    if a["process_wall_s"]:
        wall = a["process_wall_s"]
        notes.append(
            f"cli: process wall {wall:.3f} s, in-process main {a['inprocess_main_s']:.3f} s over the same "
            f"operations; parse+validate of the traced operations = {(q['model.parse_s'] + q['model.validate_s']) / wall:.3f} "
            "of process wall"
        )
    problems = list(a["problems"]) + list(b["problems"])
    return values, notes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "lqplan" / "__init__.py").is_file():
        return _fail(f"no program to measure: {SRC / 'lqplan'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    import lqplan
    import check
    import inputs

    if Path(lqplan.__file__).resolve().parent != (SRC / "lqplan").resolve():
        return _fail(f"imported lqplan from {lqplan.__file__}, not from {SRC}")
    bench = _benchmark_spec()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    spec = inputs.workload(args.workload, args.size)
    started = time.perf_counter()
    dict_path, base_known = inputs.ensure_dictionary(WORK / "cache", SRC, spec)
    ref = check.Reference.load(dict_path)
    ops = inputs.build_ops(spec, args.seed, ref, base_known)
    del ref
    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-{args.seed}-t{args.trace}-{os.getpid()}"
    manifest_path = WORK / f"{stem}.manifest.json"
    manifest_path.write_text(json.dumps({
        "root": str(ROOT), "src": str(SRC), "dict_path": str(dict_path), "base_known": base_known,
        "ops": ops, "seconds": args.seconds, "spec": inputs.spec_stamp(spec),
    }))
    stamp = _stamp(args, spec)
    stamp["inputs_s"] = time.perf_counter() - started

    try:
        if args.trace == 0:
            res = _run_worker(manifest_path, "e2e")
            values, notes, attempted, failed = _e2e(res)
            declared = bench["end_to_end"]
            digest = res["digest"]
            correct = res["tally"].get("wrong", 0) == 0
        else:
            a = _run_worker(manifest_path, "trace", hash_seed="1")
            b = _run_worker(manifest_path, "trace", hash_seed="2")
            values, notes, problems = _per_layer(a, b)
            try:
                check.compare_runs(a, b)
            except check.CheckFailed as exc:
                problems.append(str(exc))
            (WORK / f"{args.workload}-{args.size}-{args.seed}.spans.json").write_text(json.dumps({"hashseed1": a["spans"], "hashseed2": b["spans"]}))
            notes += [f"problem: {p}" for p in problems[:10]]
            declared = bench["per_layer"]
            digest = a["digest"]
            attempted = spec.trace_ops + spec.probe_ops
            failed = a["failed"]
            correct = not problems
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(str(exc))
    finally:
        manifest_path.unlink(missing_ok=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(f"digest sha256:{digest} over the first {spec.trace_ops} operations")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
