"""Prerequisite digraph construction, staged scheduling, plan simulation.

A resolved solution set is only half the answer; the learner also needs
an order. Quanta become nodes, "you supply a KF I still need" becomes an
edge, and Kahn layering turns the digraph into stages whose members can
be taken in parallel. A forward simulation replays the staged plan
against the learner profile as an independent soundness check.
``plan_query`` runs the whole path, from a profile to a staged plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from . import cover
from .model import (
    KFSet, LQDictionary, LQPlanError, LearnerProfile, MinimalityMetric, total_weight,
)


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
    unset. The knowledge state at the verdict is the known set plus the
    objectives of every stage before ``stage`` (of every stage, when
    ``stage`` is unset).
    """

    ok: bool
    stage: int | None = None
    lq_id: str | None = None
    missing: KFSet = frozenset()


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
    excluded explicitly. Suppliers come from the whole dictionary's map,
    ``dictionary.scoped().suppliers``: one counts when its id is selected.
    """
    ids = sorted(set(solution))
    quanta = list(map(dictionary.quantum, ids))
    scope, chosen = dictionary.scoped(), set(ids)
    suppliers = scope.suppliers
    edges: set[tuple[str, str]] = set()
    zero_prereq: list[str] = []
    for q in quanta:
        unmet = q.prerequisites - profile.known
        if not unmet:
            zero_prereq.append(q.id)
        for kf in unmet:
            for i in suppliers.get(kf, ()):
                supplier = scope[i]
                if supplier.id in chosen and supplier is not q:
                    edges.add((supplier.id, q.id))
    sources = {src for src, _dst in edges}
    finish = frozenset(q.id for q in quanta if q.objectives & profile.target and q.id not in sources)
    return PrereqDigraph(
        nodes=frozenset(ids),
        edges=frozenset(edges),
        zero_prereq=frozenset(zero_prereq),
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
    in_degree = dict.fromkeys(graph.nodes, 0)
    successors: dict[str, list[str]] = {}
    for src, dst in graph.edges:
        in_degree[dst] += 1
        successors.setdefault(src, []).append(dst)
    current = sorted(n for n in graph.nodes if in_degree[n] == 0)
    stages: list[tuple[str, ...]] = []
    while current:
        stages.append(tuple(current))
        unlocked: list[str] = []
        for n in current:
            for succ in successors.get(n, ()):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    unlocked.append(succ)
        current = sorted(unlocked)
    # every placed unit is looked up before the cycle check: an unknown id is reported first
    quanta = list(map(dictionary.quantum, chain.from_iterable(stages)))
    if len(quanta) < len(graph.nodes):
        leftover = {n for n in graph.nodes if in_degree[n] > 0}
        raise CycleDetected(_find_cycle(leftover, graph.edges))
    return Plan(
        stages=tuple(stages),
        total_duration_minutes=total_weight(quanta, MinimalityMetric.DURATION),
        total_cost=total_weight(quanta, MinimalityMetric.COST),
    )


def plan_query(
    profile: LearnerProfile,
    dictionary: LQDictionary,
    scope: str | None = None,
    config: cover.CoverConfig = cover.CoverConfig(),
) -> tuple[cover.SolutionTrace, PrereqDigraph, Plan]:
    """Resolve, build the digraph and stage: the one path from a query to a
    plan. Each step is looked up at call time, so a patched step is the
    one that runs."""
    trace = cover.backward_resolve(profile, dictionary, scope, config)
    graph = build_digraph(trace.solution, dictionary, profile)
    return trace, graph, topo_schedule(graph, dictionary)


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
            if missing := q.prerequisites - held:
                return SimulationVerdict(ok=False, stage=stage_index, lq_id=q.id, missing=missing)
        for q in stage_quanta:
            held |= q.objectives
    if missing_targets := profile.target - held:
        return SimulationVerdict(ok=False, missing=missing_targets)
    return SimulationVerdict(ok=True)


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
