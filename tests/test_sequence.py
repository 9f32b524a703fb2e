from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profiles, quanta_lists
from lqplan.cover import CoverConfig, CoverMode, Infeasible, backward_resolve
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import LearnerProfile, LearnerQuantum, LQCloud, LQDictionary, LQPlanError, UnknownLQ
from lqplan.sequence import (
    CycleDetected,
    Plan,
    PrereqDigraph,
    build_digraph,
    digraph_to_dot,
    simulate_plan,
    topo_schedule,
)
from oracles import digraph_by_pairs

PROFILE_K1_K3 = LearnerProfile(known={"k1"}, target={"k3"})
GREEDY = CoverConfig(mode=CoverMode.GREEDY)


def test_digraph_on_two_step_solution(d1_prime):
    graph = build_digraph(["A", "B"], d1_prime, PROFILE_K1_K3)
    assert graph.nodes == frozenset({"A", "B"})
    assert graph.edges == frozenset({("A", "B")})
    assert graph.zero_prereq == frozenset({"A"})
    assert graph.finish == frozenset({"B"})


def test_digraph_single_node(d1):
    graph = build_digraph(["C"], d1, PROFILE_K1_K3)
    assert graph.edges == frozenset()
    assert graph.zero_prereq == frozenset({"C"})
    assert graph.finish == frozenset({"C"})


def test_digraph_known_kfs_create_no_edges(d1_prime):
    # with k2 already known, B no longer depends on A
    profile = LearnerProfile(known={"k1", "k2"}, target={"k3"})
    graph = build_digraph(["A", "B"], d1_prime, profile)
    assert graph.edges == frozenset()
    assert graph.zero_prereq == frozenset({"A", "B"})


def test_digraph_mutual_dependency(xy_pair):
    graph = build_digraph(["X", "Y"], xy_pair, LearnerProfile(target={"a"}))
    assert graph.edges == frozenset({("X", "Y"), ("Y", "X")})
    assert graph.zero_prereq == frozenset()
    # both have out-degree 1, so neither is a finish node
    assert graph.finish == frozenset()


def test_digraph_unknown_id(d1):
    with pytest.raises(UnknownLQ):
        build_digraph(["C", "ZZ"], d1, PROFILE_K1_K3)


@st.composite
def digraph_cases(draw) -> tuple[list[str], LQDictionary, LearnerProfile]:
    """A selection over a generated dictionary, with up to four more known KFs.

    The selection is drawn ids (repeats allowed), or a greedy resolution's
    pick in a drawn cloud.
    """
    spec = GenSpec(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        lq_count=draw(st.integers(min_value=1, max_value=30)),
        kf_count=draw(st.integers(min_value=2, max_value=24)),
        flavor=draw(st.sampled_from(list(Flavor))),
    )
    dictionary, profile = generate(spec)
    kfs = sorted(frozenset().union(*(q.prerequisites | q.objectives for q in dictionary.quanta)))
    profile = LearnerProfile(profile.known | draw(st.frozensets(st.sampled_from(kfs), max_size=4)), profile.target)
    ids = [q.id for q in dictionary.quanta]
    if draw(st.sampled_from(("drawn", "cloud"))) == "cloud":
        members = draw(st.frozensets(st.sampled_from(ids), min_size=1))
        dictionary = LQDictionary(dictionary.subject, dictionary.quanta, (LQCloud("drawn", members),))
        delivered = sorted(frozenset().union(*(dictionary.by_id[i].objectives for i in members)) - profile.known)
        if delivered:
            target = draw(st.frozensets(st.sampled_from(delivered), min_size=1, max_size=4))
            try:
                trace = backward_resolve(LearnerProfile(profile.known, target), dictionary, "drawn", GREEDY)
                return list(trace.solution), dictionary, profile
            except LQPlanError:
                pass
        return sorted(members), dictionary, profile
    return draw(st.lists(st.sampled_from(ids), max_size=12)), dictionary, profile


@given(digraph_cases())
@settings(max_examples=150, deadline=None)
def test_digraph_matches_the_pairwise_oracle(case):
    selection, dictionary, profile = case
    assert vars(build_digraph(selection, dictionary, profile)) == digraph_by_pairs(selection, dictionary, profile)


def test_topo_chain(d1_prime):
    graph = build_digraph(["A", "B"], d1_prime, PROFILE_K1_K3)
    plan = topo_schedule(graph, d1_prime)
    assert plan.stages == (("A",), ("B",))
    assert plan.lq_count == 2
    assert plan.total_duration_minutes == 75
    assert plan.total_cost == 12


def test_topo_parallel_stage(d1):
    profile = LearnerProfile(known={"k1"}, target={"k2", "k4"})
    graph = build_digraph(["A", "C"], d1, profile)
    plan = topo_schedule(graph, d1)
    assert plan.stages == (("A", "C"),)


def test_topo_cycle_detected(xy_pair):
    graph = build_digraph(["X", "Y"], xy_pair, LearnerProfile(target={"a"}))
    with pytest.raises(CycleDetected) as err:
        topo_schedule(graph, xy_pair)
    assert err.value.cycle == ("X", "Y")
    assert "X -> Y -> X" in str(err.value)


def test_a_missing_placed_unit_is_reported_before_a_cycle(xy_pair):
    # A has no incoming edge, so it is placed in stage 1; X and Y are left in a cycle
    graph = PrereqDigraph(
        nodes=frozenset({"A", "X", "Y"}),
        edges=frozenset({("X", "Y"), ("Y", "X")}),
        zero_prereq=frozenset({"A"}),
        finish=frozenset(),
    )
    with pytest.raises(UnknownLQ) as err:
        topo_schedule(graph, xy_pair)
    assert err.value.lq_id == "A"


def test_topo_empty_graph(d1):
    graph = build_digraph([], d1, PROFILE_K1_K3)
    plan = topo_schedule(graph, d1)
    assert plan.stages == ()
    assert plan.lq_count == 0


def test_resolution_can_still_produce_a_cycle(cycle_trap):
    # covering picks the entangled pair because each also delivers a
    # target; the schedule is then impossible and must say so.
    dictionary, profile = cycle_trap
    trace = backward_resolve(profile, dictionary)
    assert set(trace.solution) == {"X", "Y"}
    graph = build_digraph(trace.solution, dictionary, profile)
    with pytest.raises(CycleDetected) as err:
        topo_schedule(graph, dictionary)
    assert err.value.cycle == ("X", "Y")


def test_simulate_pass(d1_prime):
    plan = Plan(stages=(("A",), ("B",)), total_duration_minutes=75, total_cost=12)
    verdict = simulate_plan(plan, d1_prime, PROFILE_K1_K3)
    assert verdict.ok


def test_simulate_fail_names_first_offender(d1_prime):
    plan = Plan(stages=(("B",), ("A",)), total_duration_minutes=75, total_cost=12)
    verdict = simulate_plan(plan, d1_prime, PROFILE_K1_K3)
    assert not verdict.ok
    assert verdict.stage == 1
    assert verdict.lq_id == "B"
    assert verdict.missing == frozenset({"k2"})


def test_simulate_same_stage_objectives_do_not_feed_each_other(d1_prime):
    plan = Plan(stages=(("A", "B"),), total_duration_minutes=75, total_cost=12)
    verdict = simulate_plan(plan, d1_prime, PROFILE_K1_K3)
    assert not verdict.ok
    assert (verdict.stage, verdict.lq_id) == (1, "B")


def test_simulate_missed_target(d1):
    plan = Plan(stages=(("A",),), total_duration_minutes=30, total_cost=5)
    verdict = simulate_plan(plan, d1, PROFILE_K1_K3)
    assert not verdict.ok
    assert verdict.stage is None
    assert verdict.missing == frozenset({"k3"})


def test_simulate_empty_plan_when_target_known(d1):
    plan = Plan(stages=(), total_duration_minutes=0, total_cost=0)
    assert simulate_plan(plan, d1, LearnerProfile(known={"k1"}, target={"k1"})).ok


def test_dot_export_golden(d1_prime):
    graph = build_digraph(["A", "B"], d1_prime, PROFILE_K1_K3)
    expected = (
        "digraph prerequisites {\n"
        "  rankdir=LR;\n"
        "  node [shape=box];\n"
        '  "A" [label="A\\nGroundwork" style=filled fillcolor="#cfe2f3"];\n'
        '  "B" [label="B\\nMiddle steps" peripheries=2];\n'
        '  "A" -> "B";\n'
        "}\n"
    )
    assert digraph_to_dot(graph, d1_prime) == expected


def test_dot_escapes_quotes():
    d = LQDictionary(
        subject="q",
        quanta=(LearnerQuantum("A", 'He said "hi"\nthen left', frozenset(), {"t"}),),
    )
    dot = digraph_to_dot(build_digraph(["A"], d, LearnerProfile(target={"t"})), d)
    assert '\\"hi\\"' in dot
    assert "\n  " in dot and '"A"' in dot


@given(quanta_lists(), profiles(), st.sampled_from(["exact", "greedy"]))
@settings(max_examples=100, deadline=None)
def test_end_to_end_soundness(quanta, profile, mode):
    dictionary = LQDictionary(subject="prop", quanta=quanta)
    try:
        trace = backward_resolve(profile, dictionary, config=CoverConfig(mode=CoverMode(mode)))
    except Infeasible:
        return
    graph = build_digraph(trace.solution, dictionary, profile)
    try:
        plan = topo_schedule(graph, dictionary)
    except CycleDetected as err:
        # legitimate on adversarial shapes; the cycle must be real
        cycle = err.cycle
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            assert (src, dst) in graph.edges
        return
    verdict = simulate_plan(plan, dictionary, profile)
    assert verdict.ok, verdict
    # stage-order invariant
    stage_of = {lq: i for i, stage in enumerate(plan.stages, start=1) for lq in stage}
    for src, dst in graph.edges:
        assert stage_of[src] < stage_of[dst]
    # layer minimality: each node sits right after its latest in-neighbor
    for node in graph.nodes:
        preds = [stage_of[src] for src, dst in graph.edges if dst == node]
        assert stage_of[node] == (max(preds) + 1 if preds else 1)
    # entry stage is exactly the zero-prerequisite set on passing plans
    if plan.stages:
        assert frozenset(plan.stages[0]) == graph.zero_prereq
    else:
        assert graph.zero_prereq == frozenset()
    # determinism
    assert topo_schedule(graph, dictionary) == plan
