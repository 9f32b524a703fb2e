"""Independent output check and outcome digest.

Nothing here calls lqplan: the dictionary is read straight from its JSON
file, closure is a plain rescan to a fixpoint, and plans are replayed stage
by stage. A plan from the library and a plan printed by the CLI (JSON or
text) are both brought to one ``PlanRecord`` and checked by the same code.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Unit:
    prerequisites: frozenset[str]
    objectives: frozenset[str]
    duration: int
    cost: int


class Reference:
    """The dictionary as the checker sees it: unit id -> Unit, in file order."""

    def __init__(self, subject: str, units: dict[str, Unit], clouds: int = 0):
        self.subject = subject
        self.clouds = clouds
        self.units = units
        self.order = list(units)
        self.prerequisites = frozenset().union(*(u.prerequisites for u in units.values()))

    @classmethod
    def load(cls, path) -> "Reference":
        with open(path, "rb") as f:
            doc = json.load(f)
        units = {
            q["id"]: Unit(
                frozenset(q["prerequisites"]),
                frozenset(q["objectives"]),
                q.get("duration_minutes", 0),
                q.get("cost", 0),
            )
            for q in doc["quanta"]
        }
        return cls(doc["subject"], units, len(doc.get("clouds", {})))

    def unit(self, lq_id: str) -> Unit:
        try:
            return self.units[lq_id]
        except KeyError:
            raise CheckFailed(f"unknown unit {lq_id!r} in output") from None

    def closure(self, known) -> frozenset[str]:
        """Every KF reachable from ``known``: rescan all units until a full
        pass fires nothing new."""
        held = set(known)
        pending = list(self.units.values())
        while True:
            waiting = []
            for u in pending:
                if u.prerequisites <= held:
                    held |= u.objectives
                else:
                    waiting.append(u)
            if len(waiting) == len(pending):
                return frozenset(held)
            pending = waiting


@dataclass(frozen=True)
class PlanRecord:
    """One resolved plan: rounds as (selected, prereq_union, residual),
    the solution in selection order, and the stages."""

    iterations: tuple[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]], ...]
    solution: tuple[str, ...]
    stages: tuple[tuple[str, ...], ...]
    totals: tuple[int, int] | None = None  # (duration, cost) as the program reported them

    def canonical(self) -> list:
        return [[list(it) for it in self.iterations], list(self.solution), [list(s) for s in self.stages]]


def record_from_library(trace, plan) -> PlanRecord:
    """A ``PlanRecord`` from lqplan's ``SolutionTrace`` and ``Plan``."""
    return PlanRecord(
        tuple(
            (tuple(sorted(it.selected)), tuple(sorted(it.prereq_union)), tuple(sorted(it.residual)))
            for it in trace.iterations
        ),
        tuple(trace.solution),
        tuple(tuple(stage) for stage in plan.stages),
        (plan.total_duration_minutes, plan.total_cost),
    )


def _union(ids, field: str, ref: Reference) -> set[str]:
    out: set[str] = set()
    for lq_id in ids:
        out |= getattr(ref.unit(lq_id), field)
    return out


def check_plan(ref: Reference, known, target, reuse: bool, rec: PlanRecord) -> None:
    """Raise ``CheckFailed`` unless ``rec`` is a sound plan for the query."""
    known = frozenset(known)
    wanted = frozenset(target) - known
    selected: set[str] = set()
    acquired: set[str] = set()
    order: list[str] = []
    for n, (chosen, prereq_union, residual) in enumerate(rec.iterations, start=1):
        if not chosen or selected & set(chosen):
            raise CheckFailed(f"round {n} selects nothing new: {chosen}")
        delivered = _union(chosen, "objectives", ref)
        if not wanted <= delivered:
            raise CheckFailed(f"round {n} leaves {sorted(wanted - delivered)} uncovered")
        if set(prereq_union) != _union(chosen, "prerequisites", ref):
            raise CheckFailed(f"round {n} reports a wrong prerequisite union")
        acquired |= delivered
        expected = _union(chosen, "prerequisites", ref) - known
        if reuse:
            expected -= acquired
        if set(residual) != expected:
            raise CheckFailed(f"round {n} reports a wrong residual")
        selected |= set(chosen)
        order.extend(sorted(chosen))
        wanted = frozenset(residual)
    if wanted:
        raise CheckFailed(f"resolution stops with residual {sorted(wanted)}")
    if list(rec.solution) != order:
        raise CheckFailed("solution does not list the rounds' selections in order")
    staged = [lq_id for stage in rec.stages for lq_id in stage]
    if sorted(staged) != sorted(rec.solution) or len(set(staged)) != len(staged):
        raise CheckFailed("staged units differ from the solution")
    held = set(known)
    for n, stage in enumerate(rec.stages, start=1):
        if not stage or list(stage) != sorted(stage):
            raise CheckFailed(f"stage {n} is empty or unsorted")
        for lq_id in stage:
            missing = ref.unit(lq_id).prerequisites - held
            if missing:
                raise CheckFailed(f"stage {n}: {lq_id} lacks {sorted(missing)}")
        held |= _union(stage, "objectives", ref)
    if not frozenset(target) <= held:
        raise CheckFailed(f"targets {sorted(frozenset(target) - held)} not reached")
    if rec.totals is not None:
        units = [ref.unit(lq_id) for lq_id in rec.solution]
        if rec.totals != (sum(u.duration for u in units), sum(u.cost for u in units)):
            raise CheckFailed(f"reported totals {rec.totals} are wrong")


def check_infeasible(ref: Reference, known, target, stage: int, uncovered) -> None:
    """Confirm a stage-0 ``Infeasible`` by the checker's own closure. A later
    stage depends on the rounds before it, which the error does not carry,
    so only its shape is checked."""
    uncovered = frozenset(uncovered)
    wanted = frozenset(target) - frozenset(known)
    if not uncovered or not uncovered <= wanted | ref.prerequisites:
        raise CheckFailed(f"implausible uncovered set {sorted(uncovered)}")
    if stage == 0 and uncovered != wanted - ref.closure(known):
        raise CheckFailed(f"stage-0 infeasibility disagrees with closure: {sorted(uncovered)}")


def check_cycle(ref: Reference, known, cycle: tuple[str, ...]) -> None:
    """Each step of a reported cycle must be a real prerequisite edge: the
    first unit delivers something the second needs and the learner lacks."""
    if len(cycle) < 2 or len(set(cycle)) != len(cycle):
        raise CheckFailed(f"implausible cycle {cycle}")
    for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
        if not ref.unit(src).objectives & (ref.unit(dst).prerequisites - frozenset(known)):
            raise CheckFailed(f"cycle step {src} -> {dst} is not an edge")


def check_counsel(ref: Reference, known, lq_id: str, doc: dict) -> None:
    missing = ref.unit(lq_id).prerequisites - frozenset(known)
    expected = {"lq": lq_id, "missing": sorted(missing), "satisfiable": missing <= ref.closure(known)}
    if doc != expected:
        raise CheckFailed(f"counsel output {doc} != {expected}")


def plan_from_json(doc: dict) -> PlanRecord:
    trace = doc["trace"]
    its = tuple(
        (tuple(it["selected"]), tuple(it["prereq_union"]), tuple(it["residual"])) for it in trace["iterations"]
    )
    for it, raw in zip(its, trace["iterations"]):
        if raw["k"] != len(it[0]):
            raise CheckFailed("iteration k disagrees with its selection")
    plan = doc["plan"]
    rec = PlanRecord(
        its,
        tuple(trace["solution"]),
        tuple(tuple(s) for s in plan["stages"]),
        (plan["total_duration_minutes"], plan["total_cost"]),
    )
    if trace["cardinality"] != len(rec.solution) or plan["lq_count"] != len(rec.solution):
        raise CheckFailed("reported counts disagree with the solution")
    if doc["digraph"]["nodes"] != sorted(rec.solution):
        raise CheckFailed("digraph nodes differ from the solution")
    return rec


_HEAD_RE = re.compile(r"^plan for (.+): quanta=(\d+) stages=(\d+)$")
_ITER_RE = re.compile(r"^  iteration (\d+): selected=(\S+) prereq_union=(\S+) residual=(\S+)$")
_STAGE_RE = re.compile(r"^  stage (\d+): (.+)$")
_TOTALS_RE = re.compile(r"^totals: duration_minutes=(\d+) cost=(\d+)$")


def _csv(text: str) -> tuple[str, ...]:
    return () if text == "-" else tuple(text.split(","))


def plan_from_text(text: str) -> PlanRecord:
    """Parse ``plan --format text`` output."""
    lines = text.splitlines()
    head = _HEAD_RE.match(lines[0]) if lines else None
    totals = _TOTALS_RE.match(lines[-1]) if lines else None
    if not head or not totals:
        raise CheckFailed("text plan lacks its header or totals line")
    its, stages = [], []
    for line in lines[1:-1]:
        if m := _ITER_RE.match(line):
            its.append((_csv(m[2]), _csv(m[3]), _csv(m[4])))
        elif m := _STAGE_RE.match(line):
            stages.append(tuple(m[2].split(", ")))
        else:
            raise CheckFailed(f"unexpected text plan line {line!r}")
    rec = PlanRecord(
        tuple(its),
        tuple(lq_id for it in its for lq_id in sorted(it[0])),
        tuple(stages),
        (int(totals[1]), int(totals[2])),
    )
    if int(head[2]) != len(rec.solution) or int(head[3]) != len(stages):
        raise CheckFailed("text plan header disagrees with its body")
    return rec


def digest(records: list) -> str:
    """SHA-256 over canonical outcome records, one JSON line each."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


def compare_runs(a: dict, b: dict) -> None:
    """Two traced runs of the same inputs must agree on digest and counters."""
    for key in ("digest", "counters"):
        if a[key] != b[key]:
            raise CheckFailed(f"traced runs disagree on {key}: {a[key]!r} != {b[key]!r}")
