"""Seeded inputs: workload definitions, generated dictionaries, operation lists.

Dictionaries come from ``lqplan.generate`` with a fixed generator seed per
size, so every run of a workload plans against the same dictionary and runs
with different ``--seed`` values differ only in the operations they issue.
Holding the dictionary fixed keeps run-to-run spread down to what the query
mix causes; the dictionary is cached on disk because ``generate`` is itself
quadratic (seconds at 10k units) and must stay off every clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from check import Reference

DICT_SEED = 2026
METRICS = ("count", "duration", "cost")
CLI_CYCLE = ("plan-json-greedy", "plan-text-exact", "counsel", "plan-json-greedy", "plan-text-exact", "validate")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library": in-process pipeline queries; "cli": one process per operation
    lq_count: int
    kf_count: int
    targets: tuple[int, int]  # inclusive range of target KFs per query
    mode: str
    infeasible_every: int  # every n-th query in size order adds a target no unit delivers; 0 for none
    known_extra: int  # each learner also holds up to this many attainable KFs
    ops: int  # length of the operation list; the timed loop runs it in whole passes
    trace_ops: int  # the traced run, and the digest, cover this many leading operations
    probe_ops: int  # leading plans also sent through the other front end when traced
    setup_repeats: int  # set-up loads per run


FULL = {
    "greedy-broad": Workload("greedy-broad", "library", 10000, 8000, (100, 600), "greedy", 0, 8, 60, 16, 2, 11),
    "exact-batch": Workload("exact-batch", "library", 4000, 3200, (4, 10), "exact", 8, 8, 600, 500, 2, 21),
    "cli-cold": Workload("cli-cold", "cli", 10000, 8000, (1, 3), "exact", 0, 0, 36, 12, 2, 11),
}

TINY = {
    "greedy-broad": Workload("greedy-broad", "library", 300, 240, (10, 40), "greedy", 0, 4, 12, 6, 1, 5),
    "exact-batch": Workload("exact-batch", "library", 200, 160, (4, 10), "exact", 8, 4, 48, 24, 1, 5),
    "cli-cold": Workload("cli-cold", "cli", 300, 240, (1, 3), "exact", 0, 0, 6, 6, 1, 5),
}


def workload(name: str, size: str) -> Workload:
    return (TINY if size == "tiny" else FULL)[name]


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources, in path order."""
    h = hashlib.sha256()
    for path in sorted((src / "lqplan").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def ensure_dictionary(cache: Path, src: Path, spec: Workload) -> tuple[Path, list[str]]:
    """Generate (or reuse) the workload's dictionary file and base known set.

    The cache key includes the program's source digest, so a checkout whose
    generator differs never reads another checkout's files.
    """
    key = f"{spec.lq_count}x{spec.kf_count}-s{DICT_SEED}-{source_digest(src)[:16]}"
    dict_path = cache / f"{key}.dict.json"
    known_path = cache / f"{key}.known.json"
    if not (dict_path.is_file() and known_path.is_file()):
        from lqplan import GenSpec, generate, serialize_dictionary

        dictionary, profile = generate(GenSpec(seed=DICT_SEED, lq_count=spec.lq_count, kf_count=spec.kf_count))
        cache.mkdir(parents=True, exist_ok=True)
        for path, data in (
            (dict_path, serialize_dictionary(dictionary)),
            (known_path, json.dumps(sorted(profile.known)).encode()),
        ):
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)
    return dict_path, json.loads(known_path.read_text())


def _cells(rng: random.Random, spec: Workload) -> list[tuple[int, int]]:
    """(target count, rank) per operation, in seeded order.

    The counts are ``spec.ops`` evenly spaced points of the target range, so
    every seed issues the same sizes and the seed only picks their order and
    the KFs. Query latency grows with the square of the target count, so a
    drawn mix of sizes would move the median more than the program does.
    The rank (position in size order) fixes the metric, strictness and
    infeasibility of an operation, so those are spread evenly over sizes.
    """
    lo, hi = spec.targets
    n = spec.ops
    cells = [(lo + int((rank + 0.5) * (hi - lo + 1) / n), rank) for rank in range(n)]
    rng.shuffle(cells)
    return cells


def build_ops(spec: Workload, seed: int, ref: Reference, base_known: list[str]) -> list[dict]:
    """The workload's operation list, a pure function of (spec, seed, dictionary).

    The metric cycles with the rank; one query in five (rank % 5 == 2) uses
    strict residuals, and on workloads with ``infeasible_every`` = n the
    ranks n - 1, 2n - 1, ... add a target that no unit delivers.
    """
    rng = random.Random(f"{spec.name}/{seed}")
    base = frozenset(base_known)
    attainable = sorted(ref.closure(base) - base)
    ops: list[dict] = []
    for i, (count, rank) in enumerate(_cells(rng, spec)):
        extra = sorted(rng.sample(attainable, rng.randint(0, spec.known_extra)))
        held_extra = set(extra)
        drawn = rng.sample(attainable, count + len(extra))
        target = sorted([kf for kf in drawn if kf not in held_extra][:count])
        op = {"index": i, "known_extra": extra, "target": target}
        metric = METRICS[rank % len(METRICS)]
        if spec.kind == "library":
            if spec.infeasible_every and rank % spec.infeasible_every == spec.infeasible_every - 1:
                target.append(f"absent-{i}")
            op.update(kind="query", mode=spec.mode, metric=metric, strict=rank % 5 == 2)
        else:
            op["kind"] = kind = CLI_CYCLE[i % len(CLI_CYCLE)]
            if kind.startswith("plan"):
                op.update(mode=kind.rsplit("-", 1)[1], metric=metric, strict=False)
            elif kind == "counsel":
                op["lq"] = rng.choice(ref.order)
        ops.append(op)
    return ops


def cli_argv(op: dict, dict_path: str, base_known: list[str]) -> list[str]:
    """The ``python -m lqplan`` arguments that carry out one operation."""
    known = ",".join(sorted(set(base_known) | set(op["known_extra"])))
    if op["kind"] == "validate":
        return ["validate", dict_path]
    if op["kind"] == "counsel":
        return ["counsel", "--dict", dict_path, "--known", known, "--lq", op["lq"], "--format", "json"]
    fmt = "text" if op["kind"] == "plan-text-exact" else "json"
    argv = ["plan", "--dict", dict_path, "--known", known, "--target", ",".join(op["target"]),
            "--metric", op["metric"], "--mode", op["mode"], "--format", fmt]
    if op["strict"]:
        argv.append("--strict-residual")
    return argv


def probes(library: bool, count: int, ops: list[dict]) -> list[dict]:
    """The first ``count`` plans re-issued through the other front end:
    library queries through ``plan --format json``, CLI plans as library
    queries. The traced run thereby sees every layer on every workload."""
    if library:
        chosen = [dict(op, kind="plan-json-" + op["mode"]) for op in ops]
    else:
        chosen = [dict(op, kind="query") for op in ops if op["kind"].startswith("plan")]
    return [dict(op, probe=True) for op in chosen[:count]]


def spec_stamp(spec: Workload) -> dict:
    return dict(asdict(spec), dict_seed=DICT_SEED)
