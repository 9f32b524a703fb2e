"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with plain pytest; the ACCEPTANCE lines are written outside capture
so they appear in the live output either way.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import pytest

from lqplan import cli
from lqplan.cover import (
    CoverConfig,
    CoverMode,
    Infeasible,
    backward_resolve,
    minimal_cover,
)
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import (
    LearnerProfile,
    LearnerQuantum,
    LQPlanError,
    MinimalityMetric,
    closure_over,
    serialize_dictionary,
    total_weight,
)
from lqplan.sequence import CycleDetected, build_digraph, simulate_plan, topo_schedule
from oracles import best_reachable_subset, min_cover_weight

FEASIBLE_COUNT = 500
INFEASIBLE_COUNT = 100


def _sizes(seed: int) -> tuple[int, int]:
    return 1 + seed % 8, 2 + seed % 9


@pytest.fixture(scope="module")
def feasible_instances():
    instances = []
    for seed in range(1, FEASIBLE_COUNT + 1):
        lqs, kfs = _sizes(seed)
        dictionary, profile = generate(GenSpec(seed=seed, lq_count=lqs, kf_count=kfs))
        instances.append((seed, dictionary, profile))
    return instances


def _verdict(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_feasible_oracle_suite(feasible_instances, capsys):
    failures = []
    start = time.perf_counter()
    for seed, dictionary, profile in feasible_instances:
        for mode in (CoverMode.EXACT, CoverMode.GREEDY):
            try:
                trace = backward_resolve(profile, dictionary, config=CoverConfig(mode=mode))
                graph = build_digraph(trace.solution, dictionary, profile)
                plan = topo_schedule(graph, dictionary)
                verdict = simulate_plan(plan, dictionary, profile)
            except LQPlanError as exc:
                failures.append((seed, mode.value, repr(exc)))
                continue
            if not verdict.ok:
                failures.append((seed, mode.value, verdict))
    elapsed = time.perf_counter() - start
    runs = 2 * len(feasible_instances)
    ok = not failures and elapsed < 10.0
    _verdict(
        capsys, 1, ok,
        f"{runs - len(failures)}/{runs} resolve+simulate runs clean in {elapsed:.2f}s"
        + (f"; first failures {failures[:3]}" if failures else ""),
    )


def test_criterion_2_exact_cover_minimality(capsys):
    rng = random.Random(20260816)
    kf_pool = [f"k{i}" for i in range(1, 9)]
    mismatches = []
    checked = 0
    for case in range(200):
        quanta = []
        for i in range(rng.randint(1, 10)):
            objectives = rng.sample(kf_pool, rng.randint(1, 3))
            outside = [kf for kf in kf_pool if kf not in objectives]
            quanta.append(
                LearnerQuantum(
                    id=f"q{i:02d}",
                    title="case unit",
                    prerequisites=frozenset(rng.sample(outside, rng.randint(0, 2))),
                    objectives=frozenset(objectives),
                    duration_minutes=rng.randint(0, 60),
                    cost=rng.randint(0, 9),
                )
            )
        union = sorted(set().union(*(q.objectives for q in quanta)))
        targets = frozenset(rng.sample(union, rng.randint(1, min(3, len(union)))))
        by_id = {q.id: q for q in quanta}
        for metric in MinimalityMetric:
            got = minimal_cover(targets, quanta, frozenset(), CoverConfig(metric=metric))
            weight = total_weight([by_id[i] for i in got], metric)
            best = min_cover_weight(targets, quanta, metric)
            checked += 1
            if weight != best:
                mismatches.append((case, metric.value, weight, best))
    ok = not mismatches and checked == 600
    _verdict(
        capsys, 2, ok,
        f"{checked - len(mismatches)}/{checked} exact covers match enumeration weight",
    )


def test_criterion_3_global_vs_iterative_gap(feasible_instances, capsys, d1, d1_prime):
    profile = LearnerProfile(known={"k1"}, target={"k3"})
    fixture_ok = (
        set(backward_resolve(profile, d1).solution) == {"C"}
        and set(backward_resolve(profile, d1_prime).solution) == {"A", "B"}
        and best_reachable_subset(profile, d1.quanta, MinimalityMetric.COUNT) == frozenset({"C"})
    )
    violations = []
    for seed, dictionary, prof in feasible_instances:
        trace = backward_resolve(prof, dictionary)
        iterative = total_weight(
            [dictionary.quantum(i) for i in trace.solution], MinimalityMetric.COUNT
        )
        best = best_reachable_subset(prof, dictionary.quanta, MinimalityMetric.COUNT)
        optimal = total_weight([dictionary.quantum(i) for i in best], MinimalityMetric.COUNT)
        if iterative < optimal:
            violations.append(seed)
    ok = fixture_ok and not violations
    _verdict(
        capsys, 3, ok,
        f"divergence fixtures {'reproduced' if fixture_ok else 'WRONG'}; "
        f"{len(feasible_instances) - len(violations)}/{len(feasible_instances)} instances "
        "satisfy iterative >= global",
    )


def test_criterion_4_per_iteration_invariants(feasible_instances, capsys):
    violations = []
    for seed, dictionary, profile in feasible_instances:
        trace = backward_resolve(profile, dictionary)
        acquired = frozenset()
        for lq_id in trace.solution:
            acquired |= dictionary.quantum(lq_id).objectives
        clean = (
            all(not rec.residual & profile.known for rec in trace.iterations)
            and profile.target <= profile.known | acquired
            and trace.cardinality == sum(rec.k for rec in trace.iterations)
            and trace.cardinality == len(trace.solution)
            and len(trace.iterations) <= len(dictionary.quanta)
        )
        if not clean:
            violations.append(seed)
    ok = not violations
    _verdict(
        capsys, 4, ok,
        f"{len(feasible_instances) - len(violations)}/{len(feasible_instances)} traces "
        "satisfy residual/coverage/cardinality invariants",
    )


def test_criterion_5_infeasibility_completeness(capsys, tmp_path):
    bad = []
    for seed in range(1, INFEASIBLE_COUNT + 1):
        lqs, kfs = _sizes(seed)
        dictionary, profile = generate(
            GenSpec(seed=seed, lq_count=lqs, kf_count=kfs, flavor=Flavor.INFEASIBLE)
        )
        closure_agrees = not profile.target <= closure_over(profile.known, dictionary.scoped())
        try:
            backward_resolve(profile, dictionary)
            library_raises = False
        except Infeasible:
            library_raises = True
        dict_path = tmp_path / f"inf{seed}.json"
        dict_path.write_bytes(serialize_dictionary(dictionary))
        code = cli.main(
            [
                "plan",
                "--dict", str(dict_path),
                "--known", ",".join(sorted(profile.known)),
                "--target", ",".join(sorted(profile.target)),
            ]
        )
        captured = capsys.readouterr()
        if not (closure_agrees and library_raises and code == 1 and "Infeasible" in captured.err):
            bad.append(seed)
    ok = not bad
    _verdict(
        capsys, 5, ok,
        f"{INFEASIBLE_COUNT - len(bad)}/{INFEASIBLE_COUNT} infeasible instances "
        "exit 1 with closure agreement",
    )


def test_criterion_6_digraph_topo_invariants(
    feasible_instances, capsys, xy_pair, cycle_trap, write_dict
):
    violations = []
    for seed, dictionary, profile in feasible_instances:
        trace = backward_resolve(profile, dictionary)
        graph = build_digraph(trace.solution, dictionary, profile)
        plan = topo_schedule(graph, dictionary)
        if not simulate_plan(plan, dictionary, profile).ok:
            violations.append((seed, "simulation"))
            continue
        stage_of = {lq: i for i, stage in enumerate(plan.stages, start=1) for lq in stage}
        out_degree = {n: 0 for n in graph.nodes}
        for src, dst in graph.edges:
            out_degree[src] += 1
            if not stage_of[src] < stage_of[dst]:
                violations.append((seed, "stage-order"))
        first_stage = frozenset(plan.stages[0]) if plan.stages else frozenset()
        if first_stage != graph.zero_prereq:
            violations.append((seed, "entry-stage"))
        if any(out_degree[f] != 0 for f in graph.finish):
            violations.append((seed, "finish-degree"))

    try:
        topo_schedule(
            build_digraph(["X", "Y"], xy_pair, LearnerProfile(target={"a"})), xy_pair
        )
        cycle_ok = False
    except CycleDetected as exc:
        cycle_ok = exc.cycle == ("X", "Y")

    trap_dictionary, trap_profile = cycle_trap
    code = cli.main(
        [
            "plan",
            "--dict", str(write_dict(trap_dictionary, "trap.json")),
            "--known", "",
            "--target", ",".join(sorted(trap_profile.target)),
        ]
    )
    captured = capsys.readouterr()
    cli_cycle_ok = code == 3 and "cycle" in captured.err
    ok = not violations and cycle_ok and cli_cycle_ok
    _verdict(
        capsys, 6, ok,
        f"{len(feasible_instances) - len(violations)}/{len(feasible_instances)} plans satisfy "
        f"digraph invariants; 2-cycle exits 3: {cli_cycle_ok}",
    )


def test_criterion_7_cli_determinism(capsys, tmp_path, d1, d1_prime, cycle_trap, write_dict):
    d1_path = str(write_dict(d1, "d1.json"))
    d1p_path = str(write_dict(d1_prime, "d1p.json"))
    trap_path = str(write_dict(cycle_trap[0], "trap.json"))
    gen_prefix = str(tmp_path / "gen-fixture")

    invocations = [
        ["validate", d1_path],
        ["plan", "--dict", d1_path, "--known", "k1", "--target", "k3", "--format", "text"],
        ["plan", "--dict", d1_path, "--known", "k1", "--target", "k3", "--format", "json"],
        ["plan", "--dict", d1_path, "--known", "k1", "--target", "k3", "--format", "dot"],
        ["plan", "--dict", d1_path, "--known", "k1", "--target", "k3,k4",
         "--metric", "cost", "--mode", "greedy", "--format", "json"],
        ["plan", "--dict", d1p_path, "--known", "k1", "--target", "k3", "--format", "json"],
        ["plan", "--dict", d1p_path, "--known", "k1", "--target", "k3", "--strict-residual",
         "--format", "json"],
        ["plan", "--dict", d1_path, "--known", "", "--target", "k3"],
        ["plan", "--dict", trap_path, "--known", "", "--target", "t1,t2"],
        ["counsel", "--dict", d1_path, "--known", "k1", "--lq", "B", "--format", "json"],
        ["counsel", "--dict", d1_path, "--known", "", "--lq", "A"],
        ["graph", "--dict", d1p_path, "--known", "k1", "--target", "k3"],
        ["gen", "--seed", "13", "--lqs", "6", "--kfs", "9", "--flavor", "adversarial",
         "--out", gen_prefix],
    ]
    for seed in (1, 77, 250, 404, 499):
        lqs, kfs = _sizes(seed)
        dictionary, profile = generate(GenSpec(seed=seed, lq_count=lqs, kf_count=kfs))
        path = str(write_dict(dictionary, f"gen{seed}.json"))
        known = ",".join(sorted(profile.known))
        target = ",".join(sorted(profile.target))
        for mode in ("exact", "greedy"):
            invocations.append(
                ["plan", "--dict", path, "--known", known, "--target", target,
                 "--mode", mode, "--format", "json"]
            )

    def run_once(argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        extra = b""
        if argv[0] == "gen":
            extra = (tmp_path / "gen-fixture.dict.json").read_bytes()
            extra += (tmp_path / "gen-fixture.profile.json").read_bytes()
        return code, captured.out, captured.err, extra

    unstable = []
    for argv in invocations:
        if run_once(argv) != run_once(argv):
            unstable.append(argv)

    # hash randomization must not leak into output: separate interpreters
    # with different PYTHONHASHSEED values must agree byte for byte
    hash_pairs_ok = True
    for argv in (
        ["plan", "--dict", d1_path, "--known", "k1", "--target", "k3,k4", "--format", "json"],
        ["graph", "--dict", d1p_path, "--known", "k1", "--target", "k3"],
    ):
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-m", "lqplan", *argv],
                capture_output=True, env=env,
            )
            outs.append((result.returncode, result.stdout, result.stderr))
        if outs[0] != outs[1]:
            hash_pairs_ok = False

    ok = not unstable and hash_pairs_ok
    _verdict(
        capsys, 7, ok,
        f"{len(invocations) - len(unstable)}/{len(invocations)} invocations byte-identical "
        f"on rerun; hash-seed pairs identical: {hash_pairs_ok}",
    )


def test_criterion_8_scale_smoke(capsys):
    dictionary, generated_profile = generate(GenSpec(seed=2026, lq_count=1000, kf_count=800))
    # the generated target is tiny; demand a broad slice of the attainable
    # KFs so the greedy plan actually has to chain through the dictionary
    attainable = sorted(closure_over(generated_profile.known, dictionary.scoped()) - generated_profile.known)
    profile = LearnerProfile(known=generated_profile.known, target=frozenset(attainable[::8]))
    assert len(profile.target) > 50
    start = time.perf_counter()
    trace = backward_resolve(
        profile, dictionary, config=CoverConfig(mode=CoverMode.GREEDY)
    )
    graph = build_digraph(trace.solution, dictionary, profile)
    plan = topo_schedule(graph, dictionary)
    verdict = simulate_plan(plan, dictionary, profile)
    elapsed = time.perf_counter() - start
    ok = verdict.ok and elapsed < 2.0
    _verdict(
        capsys, 8, ok,
        f"{plan.lq_count} quanta over {len(plan.stages)} stages for "
        f"{len(profile.target)} targets, planned and verified in {elapsed:.3f}s",
    )
