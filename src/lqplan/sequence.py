"""Prerequisite digraph construction, staged scheduling, plan simulation.

A resolved solution set is only half the answer; the learner also needs
an order. Quanta become nodes, "you supply a KF I still need" becomes an
edge, and Kahn layering turns the digraph into stages whose members can
be taken in parallel. A forward simulation replays the staged plan
against the learner profile as an independent soundness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import KFSet, LQDictionary, LQPlanError, LearnerProfile, MinimalityMetric, total_weight


@dataclass(frozen=True)
class PrereqDigraph:
    """Dependency structure over a solution set.

    ``zero_prereq`` nodes are immediately takeable (all prerequisites
    already known); ``finish`` nodes contribute a target KF and nothing
    depends on them.
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    zero_prereq: frozenset[str]
    finish: frozenset[str]


@dataclass(frozen=True)
class Plan:
    """Staged study plan. Stage tuples are sorted; stages run in order,
    quanta within one stage may run in parallel."""

    stages: tuple[tuple[str, ...], ...]
    total_duration_minutes: int
    total_cost: int

    @property
    def lq_count(self) -> int:
        return sum(len(stage) for stage in self.stages)


@dataclass(frozen=True)
class SimulationVerdict:
    """Outcome of replaying a plan forward from the learner's known set.

    On failure, ``stage``/``lq_id``/``missing`` name the first violation;
    a missing-target failure after the last stage leaves stage and lq_id
    unset. ``known_after`` is the knowledge state when the verdict was
    reached.
    """

    ok: bool
    stage: int | None = None
    lq_id: str | None = None
    missing: KFSet = frozenset()
    known_after: KFSet = frozenset()


class CycleDetected(LQPlanError):
    """The prerequisite digraph contains a dependency cycle."""

    def __init__(self, cycle: Iterable[str]):
        self.cycle = tuple(cycle)
        super().__init__("prerequisite cycle: " + " -> ".join(self.cycle + (self.cycle[0],)))


def build_digraph(
    solution: Iterable[str], dictionary: LQDictionary, profile: LearnerProfile
) -> PrereqDigraph:
    """Build the prerequisite digraph over a solution set.

    There is an edge from P to Q when P delivers some KF that Q requires
    and the learner does not already know; KFs in the known set create no
    edges. Self-loops are impossible by the same rule only when a quantum
    does not list one of its own objectives as a prerequisite, so they are
    excluded explicitly.
    """
    ids = sorted(set(solution))
    quanta = [dictionary.quantum(lq_id) for lq_id in ids]
    suppliers: dict[str, list[str]] = {}
    for q in quanta:
        for kf in q.objectives:
            suppliers.setdefault(kf, []).append(q.id)
    edges: set[tuple[str, str]] = set()
    for q in quanta:
        for kf in q.prerequisites - profile.known:
            for supplier in suppliers.get(kf, ()):
                if supplier != q.id:
                    edges.add((supplier, q.id))
    sources = {src for src, _dst in edges}
    zero_prereq = frozenset(q.id for q in quanta if q.prerequisites <= profile.known)
    finish = frozenset(q.id for q in quanta if q.objectives & profile.target and q.id not in sources)
    return PrereqDigraph(
        nodes=frozenset(ids),
        edges=frozenset(edges),
        zero_prereq=zero_prereq,
        finish=finish,
    )


def _find_cycle(nodes: set[str], edges: frozenset[tuple[str, str]]) -> tuple[str, ...]:
    """Extract one cycle from a subgraph in which every node has an
    incoming edge (the Kahn leftover always does).

    Walk backwards from the smallest node, always taking the smallest
    predecessor; a finite graph forces a repeat, and the segment between
    the two visits is a cycle. Reversing it restores forward edge order;
    rotating the smallest id to the front makes the report canonical.
    """
    preds: dict[str, list[str]] = {n: [] for n in nodes}
    for src, dst in edges:
        if src in nodes and dst in nodes:
            preds[dst].append(src)
    trail = [min(nodes)]
    seen = {trail[0]: 0}
    while True:
        current = trail[-1]
        nxt = min(preds[current])
        if nxt in seen:
            backward = trail[seen[nxt]:]
            cycle = tuple(reversed(backward))
            pivot = cycle.index(min(cycle))
            return cycle[pivot:] + cycle[:pivot]
        seen[nxt] = len(trail)
        trail.append(nxt)


def topo_schedule(graph: PrereqDigraph, dictionary: LQDictionary) -> Plan:
    """Layered topological sort of the digraph into a staged plan.

    Stage 1 holds every node with no incoming edge; removing a stage
    exposes the next. Nodes within a stage are sorted. Totals come from
    the dictionary's duration and cost attributes.
    """
    in_degree = {n: 0 for n in graph.nodes}
    successors: dict[str, list[str]] = {n: [] for n in graph.nodes}
    for src, dst in graph.edges:
        in_degree[dst] += 1
        successors[src].append(dst)
    current = sorted(n for n in graph.nodes if in_degree[n] == 0)
    stages: list[tuple[str, ...]] = []
    placed = 0
    while current:
        stages.append(tuple(current))
        placed += len(current)
        unlocked: list[str] = []
        for n in current:
            for succ in successors[n]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    unlocked.append(succ)
        current = sorted(unlocked)
    if placed < len(graph.nodes):
        leftover = {n for n in graph.nodes if in_degree[n] > 0}
        raise CycleDetected(_find_cycle(leftover, graph.edges))
    quanta = [dictionary.quantum(lq_id) for stage in stages for lq_id in stage]
    return Plan(
        stages=tuple(stages),
        total_duration_minutes=total_weight(quanta, MinimalityMetric.DURATION),
        total_cost=total_weight(quanta, MinimalityMetric.COST),
    )


def simulate_plan(
    plan: Plan, dictionary: LQDictionary, profile: LearnerProfile
) -> SimulationVerdict:
    """Replay the plan stage by stage and check it actually works.

    Every quantum in a stage must have its prerequisites met before the
    stage runs; only then do the stage's objectives join the knowledge
    state (so quanta in one stage cannot feed each other). After the last
    stage, the targets must all be held.
    """
    held: set[str] = set(profile.known)
    for stage_index, stage in enumerate(plan.stages, start=1):
        stage_quanta = [dictionary.quantum(lq_id) for lq_id in stage]
        for q in stage_quanta:
            missing = q.prerequisites - held
            if missing:
                return SimulationVerdict(
                    ok=False,
                    stage=stage_index,
                    lq_id=q.id,
                    missing=frozenset(missing),
                    known_after=frozenset(held),
                )
        for q in stage_quanta:
            held |= q.objectives
    missing_targets = profile.target - held
    if missing_targets:
        return SimulationVerdict(
            ok=False, missing=frozenset(missing_targets), known_after=frozenset(held)
        )
    return SimulationVerdict(ok=True, known_after=frozenset(held))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", " ")


def digraph_to_dot(graph: PrereqDigraph, dictionary: LQDictionary) -> str:
    """Render the digraph as Graphviz DOT.

    Nodes are labeled "id\\ntitle"; entry points (zero prerequisites) are
    filled, finish nodes double-bordered. Node and edge order is
    lexicographic so output is reproducible.
    """
    lines = [
        "digraph prerequisites {",
        "  rankdir=LR;",
        "  node [shape=box];",
    ]
    for lq_id in sorted(graph.nodes):
        label = _dot_escape(lq_id) + "\\n" + _dot_escape(dictionary.quantum(lq_id).title)
        attrs = [f'label="{label}"']
        if lq_id in graph.zero_prereq:
            attrs.append("style=filled")
            attrs.append('fillcolor="#cfe2f3"')
        if lq_id in graph.finish:
            attrs.append("peripheries=2")
        lines.append(f'  "{_dot_escape(lq_id)}" [{" ".join(attrs)}];')
    for src, dst in sorted(graph.edges):
        lines.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
