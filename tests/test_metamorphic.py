"""Metamorphic relations of ``plan --format json``: changes to a
dictionary that must leave what the CLI prints as it was.

Generated instances (seeds 0-9, the flavor cycling with the seed; 8, 20,
60 and 200 units at four KFs per five units) are each asked for their
generated target in both modes, under every metric, with and without
``--strict-residual``. Each relation compares the exit code, stdout and
stderr of every such run with the run on the instance as generated:

- the units in another order give the same bytes;
- five more units, whose objectives are fresh KFs that nothing needs,
  give the same bytes;
- ids, KFs and cloud names renamed to rank-based names, which keeps
  each kind's sort order, give the same bytes once the names are mapped
  back;
- one more known KF, drawn from the closure of the known set, never
  turns a run into "Infeasible at stage 0" (closure is monotone);
- every duration and cost times 7 gives the same bytes but for both
  totals, which are 7 times as large.

Dictionaries drawn by hypothesis from the conftest strategies (up to
eight units over seven KFs, with drawn known and target sets, zero
weights and shared objectives) are held to the first three relations
too, in the same twelve runs each, and to scaling once every duration
and cost is raised by 1, so that no unit weighs 0.

Scaling fails where some unit weighs 0, so those instances run under a
strict xfail: greedy counts a zero weight as 1, so scaling moves a pick
whenever greedy takes a zero-weight unit that the rest of its pick
covers, and exact mode keeps such a unit when it seeds the search
(ROADMAP item 1, "No free riders").
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profiles, small_dictionaries
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import (
    LearnerProfile,
    LearnerQuantum,
    LQCloud,
    LQDictionary,
    closure_over,
    serialize_dictionary,
    validate_dictionary,
)
from test_golden_cli import plan_json_cases, run_case

SEEDS = range(10)
SIZES = (8, 20, 60, 200)
RENAMED = re.compile(r"~[UKC]\d{5}")
STAGE_0 = "lqplan: Infeasible at stage 0:"
FACTOR = 7

Instance = tuple[LQDictionary, LearnerProfile]


@pytest.fixture(scope="module")
def generated() -> dict[str, Instance]:
    flavors = list(Flavor)
    found = {}
    for seed in SEEDS:
        flavor = flavors[seed % len(flavors)]
        for units in SIZES:
            spec = GenSpec(seed=seed, lq_count=units, kf_count=units * 4 // 5, flavor=flavor)
            found[f"{flavor.value}-{units}-s{seed}"] = generate(spec)
    return found


def run_plans(dict_dir: Path, name: str, dictionary: LQDictionary, profile: LearnerProfile) -> dict[str, tuple]:
    """The 12 ``plan --format json`` results of the instance's query."""
    path = dict_dir / f"{name}.json"
    path.write_bytes(serialize_dictionary(dictionary))
    base = ["plan", "--dict", str(path), "--known", ",".join(sorted(profile.known)),
            "--target", ",".join(sorted(profile.target))]
    return {case: run_case(argv) for case, argv in plan_json_cases(name, base).items()}


def all_kfs(dictionary: LQDictionary, profile: LearnerProfile) -> list[str]:
    return sorted(frozenset().union(profile.known, profile.target,
                                    *(q.prerequisites | q.objectives for q in dictionary.quanta)))


def permuted(dictionary: LQDictionary, profile: LearnerProfile, rng: random.Random) -> Instance:
    quanta = list(dictionary.quanta)
    rng.shuffle(quanta)
    return replace(dictionary, quanta=tuple(quanta)), profile


def with_noise(dictionary: LQDictionary, profile: LearnerProfile, rng: random.Random) -> Instance:
    """Five units at random places, each needing up to two of the
    instance's KFs and delivering one fresh KF."""
    kfs = all_kfs(dictionary, profile)
    quanta = list(dictionary.quanta)
    for n in range(5):
        needs = rng.sample(kfs, rng.randint(0, min(2, len(kfs))))
        noise = LearnerQuantum(f"noise{n}", "Noise", needs, {f"fresh{n}"}, rng.randint(0, 60), rng.randint(0, 9))
        quanta.insert(rng.randint(0, len(quanta)), noise)
    return replace(dictionary, quanta=tuple(quanta)), profile


def renaming(dictionary: LQDictionary, profile: LearnerProfile) -> dict[str, str]:
    """Each id, KF and cloud name to ``~`` and a kind letter, then its
    zero-padded rank among the names of its kind."""
    kinds = (
        ("U", sorted({q.id for q in dictionary.quanta})),
        ("K", all_kfs(dictionary, profile)),
        ("C", sorted(c.name for c in dictionary.clouds)),
    )
    return {name: f"~{kind}{rank:05d}" for kind, names in kinds for rank, name in enumerate(names)}


def renamed(dictionary: LQDictionary, profile: LearnerProfile, to: dict[str, str]) -> Instance:
    def kfs(names):
        return {to[kf] for kf in names}

    quanta = tuple(
        replace(q, id=to[q.id], prerequisites=kfs(q.prerequisites), objectives=kfs(q.objectives))
        for q in dictionary.quanta
    )
    clouds = tuple(LQCloud(to[c.name], {to[i] for i in c.member_ids}) for c in dictionary.clouds)
    return replace(dictionary, quanta=quanta, clouds=clouds), LearnerProfile(kfs(profile.known), kfs(profile.target))


def renamed_runs_mapped_back(dict_dir: Path, name: str, dictionary: LQDictionary,
                             profile: LearnerProfile) -> dict[str, tuple]:
    """``run_plans`` on the renamed instance, with the names in its output
    mapped back."""
    to = renaming(dictionary, profile)
    back = {new: old for old, new in to.items()}

    def unmap(text: str) -> str:
        return RENAMED.sub(lambda m: back[m.group()], text)

    runs = run_plans(dict_dir, name, *renamed(dictionary, profile, to))
    return {case: (code, unmap(out), unmap(err)) for case, (code, out, err) in runs.items()}


@pytest.fixture(scope="module")
def as_generated(generated, tmp_path_factory) -> dict[str, dict[str, tuple]]:
    dict_dir = tmp_path_factory.mktemp("generated")
    results = {name: run_plans(dict_dir, name, *instance) for name, instance in generated.items()}
    codes = {code for runs in results.values() for code, _, _ in runs.values()}
    assert codes == {0, 1, 3}, codes  # plans, infeasible queries and cycles all take part
    return results


@pytest.mark.parametrize("relation", [permuted, with_noise], ids=["permuted", "noise"])
def test_same_bytes(generated, as_generated, tmp_path, relation):
    for index, (name, instance) in enumerate(generated.items()):
        changed = relation(*instance, random.Random(index))
        assert run_plans(tmp_path, name, *changed) == as_generated[name], name


def test_renamed_gives_same_bytes_mapped_back(generated, as_generated, tmp_path):
    for name, instance in generated.items():
        assert renamed_runs_mapped_back(tmp_path, name, *instance) == as_generated[name], name


@pytest.fixture(scope="module")
def drawn_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("drawn")


@given(small_dictionaries(max_quanta=8), profiles(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_drawn_instances_keep_their_bytes(drawn_dir, dictionary, profile, rng):
    assert not [f for f in validate_dictionary(dictionary) if f.severity == "error"]
    as_drawn = run_plans(drawn_dir, "drawn", dictionary, profile)
    for relation in (permuted, with_noise):
        assert run_plans(drawn_dir, "drawn", *relation(dictionary, profile, rng)) == as_drawn, relation.__name__
    assert renamed_runs_mapped_back(drawn_dir, "drawn", dictionary, profile) == as_drawn


def test_a_known_kf_of_the_closure_never_makes_stage_0(generated, as_generated, tmp_path):
    checked = 0
    for index, (name, (dictionary, profile)) in enumerate(generated.items()):
        gained = sorted(closure_over(profile.known, dictionary.quanta) - profile.known)
        kf = random.Random(index).choice(gained)
        runs = run_plans(tmp_path, name, dictionary, replace(profile, known=profile.known | {kf}))
        for case, (_, _, err) in as_generated[name].items():
            if not err.startswith(STAGE_0):
                checked += 1
                assert not runs[case][2].startswith(STAGE_0), (name, case, kf)
    assert 0 < checked < sum(map(len, as_generated.values()))  # stage 0 occurs, and not only


def scaled(dictionary: LQDictionary, profile: LearnerProfile) -> Instance:
    quanta = tuple(replace(q, duration_minutes=q.duration_minutes * FACTOR, cost=q.cost * FACTOR)
                   for q in dictionary.quanta)
    return replace(dictionary, quanta=quanta), profile


def same_but_scaled_totals(before: tuple, after: tuple) -> bool:
    if before[0] != 0 or after[0] != 0:
        return before == after
    doc, scaled_doc = json.loads(before[1]), json.loads(after[1])
    for total in ("total_duration_minutes", "total_cost"):
        if scaled_doc["plan"][total] != doc["plan"][total] * FACTOR:
            return False
        scaled_doc["plan"][total] = doc["plan"][total]
    return scaled_doc == doc and before[2] == after[2]


FREE_RIDER = pytest.mark.xfail(raises=AssertionError, strict=True,
                               reason="ROADMAP item 1 (no free riders): a zero-weight unit rides free")


@pytest.mark.parametrize("zero_weights", [False, pytest.param(True, marks=FREE_RIDER)],
                         ids=["positive-weights", "zero-weights"])
def test_scaled_weights_scale_only_the_totals(generated, as_generated, tmp_path, zero_weights):
    names = [name for name, (dictionary, _) in generated.items()
             if any(q.duration_minutes == 0 or q.cost == 0 for q in dictionary.quanta) == zero_weights]
    assert names
    for name in names:
        runs = run_plans(tmp_path, name, *scaled(*generated[name]))
        moved = [case for case, run in runs.items() if not same_but_scaled_totals(as_generated[name][case], run)]
        assert not moved, (name, moved)


@given(small_dictionaries(max_quanta=8), profiles())
@settings(max_examples=50, deadline=None)
def test_drawn_positive_weights_scale_only_the_totals(drawn_dir, dictionary, profile):
    quanta = tuple(replace(q, duration_minutes=q.duration_minutes + 1, cost=q.cost + 1) for q in dictionary.quanta)
    dictionary = replace(dictionary, quanta=quanta)
    as_drawn = run_plans(drawn_dir, "drawn", dictionary, profile)
    runs = run_plans(drawn_dir, "drawn", *scaled(dictionary, profile))
    assert not [case for case, run in runs.items() if not same_but_scaled_totals(as_drawn[case], run)]
