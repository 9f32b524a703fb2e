"""Valid dictionaries built in code, through the whole pipeline.

A dictionary that ``validate_dictionary`` passes without an error may
still hold what a parser-made one rarely does: repeated KFs, units that
list a KF as both prerequisite and objective (only a warning), clouds,
and titles with quotes, newlines or non-ASCII text. Every mode, metric,
residual mode and scope goes through resolution, the digraph, staging,
the forward simulation, DOT output and an in-process ``plan --format
json``. Nothing but an ``LQPlanError`` may be raised, every staged plan
must simulate cleanly, and the CLI must stage the same plan.
"""

from __future__ import annotations

import json
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_d1
from lqplan.cover import CoverConfig, CoverMode, backward_resolve
from lqplan.model import (
    LearnerProfile,
    LearnerQuantum,
    LQCloud,
    LQDictionary,
    LQPlanError,
    MinimalityMetric,
    serialize_dictionary,
    validate_dictionary,
)
from lqplan.sequence import build_digraph, digraph_to_dot, simulate_plan, topo_schedule
from test_golden_cli import run_case

KFS = ("k1", "k2", "k3", "k4", "k5", "é")  # a comma would split a KF on the command line
IDS = ("A", "B", "C", "D", "E", "F", "G", 'Q"1', "a\\b", "ü")
TITLES = st.one_of(st.sampled_from(("t", 'say "hi"', "two\nlines", "naïve café", "{}\\")), st.text(max_size=8))

D1 = make_d1()
OVERLAP = LQDictionary("overlap", D1.quanta + (LearnerQuantum("D", "Refresher", {"k2"}, {"k2", "k5"}),))


@st.composite
def valid_dictionaries(draw) -> LQDictionary:
    kfs = st.sampled_from(KFS)
    quanta = tuple(
        LearnerQuantum(
            lq_id,
            draw(TITLES),
            draw(st.frozensets(kfs, max_size=3)),  # may overlap the objectives
            draw(st.frozensets(kfs, min_size=1, max_size=3)),
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        )
        for lq_id in draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=7, unique=True))
    )
    ids = [q.id for q in quanta]
    clouds = tuple(
        LQCloud(name, draw(st.frozensets(st.sampled_from(ids))))
        for name in draw(st.lists(st.sampled_from(("c1", "c2")), max_size=2, unique=True))
    )
    return LQDictionary(draw(TITLES), quanta, clouds)


def check_pipeline(dictionary: LQDictionary, profile: LearnerProfile, dict_path) -> None:
    dict_path.write_bytes(serialize_dictionary(dictionary))
    for scope, mode, metric, reuse in product(
        [None] + [c.name for c in dictionary.clouds], CoverMode, MinimalityMetric, (True, False)
    ):
        stages = None
        try:
            trace = backward_resolve(profile, dictionary, scope, CoverConfig(metric, mode, reuse))
            graph = build_digraph(trace.solution, dictionary, profile)
            digraph_to_dot(graph, dictionary)
            plan = topo_schedule(graph, dictionary)
            verdict = simulate_plan(plan, dictionary, profile)
            assert verdict.ok, (scope, mode, metric, reuse, plan, verdict)
            stages = [list(stage) for stage in plan.stages]
        except LQPlanError:
            pass
        argv = [
            "plan", "--dict", str(dict_path), "--known", ",".join(sorted(profile.known)),
            "--target", ",".join(sorted(profile.target)), "--mode", mode.value, "--metric", metric.value,
            "--format", "json",
        ]
        if scope is not None:
            argv += ["--cloud", scope]
        if not reuse:
            argv.append("--strict-residual")
        code, out, err = run_case(argv)
        assert code in ((0,) if stages is not None else (1, 3, 4)), (argv, err)
        if stages is not None:
            assert json.loads(out)["plan"]["stages"] == stages


@given(
    dictionary=valid_dictionaries(),
    known=st.frozensets(st.sampled_from(KFS), max_size=3),
    target=st.frozensets(st.sampled_from(KFS), min_size=1, max_size=3),
)
# D teaches its own prerequisite k2: counting that toward itself skipped A
@example(dictionary=OVERLAP, known=frozenset({"k1"}), target=frozenset({"k5"}))
@settings(max_examples=100, deadline=None)
def test_valid_dictionaries_plan_soundly_or_raise_lqplan_errors(tmp_path_factory, dictionary, known, target):
    assert not [f for f in validate_dictionary(dictionary) if f.severity == "error"]
    profile = LearnerProfile(known, target)
    check_pipeline(dictionary, profile, tmp_path_factory.getbasetemp() / "pipeline-fuzz.json")
