from __future__ import annotations

import hashlib

import pytest

from lqplan.cover import CoverConfig, CoverMode, Infeasible, backward_resolve
from lqplan.generate import Flavor, GenSpec, SpecInvalid, generate
from lqplan.model import (
    MinimalityMetric,
    serialize_dictionary,
    serialize_profile,
    validate_dictionary,
)
from lqplan.sequence import CycleDetected, plan_query, simulate_plan
from oracles import closure_by_rescan


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=-1, lq_count=3, kf_count=5),
        dict(seed=2**64, lq_count=3, kf_count=5),
        dict(seed=1, lq_count=0, kf_count=5),
        dict(seed=1, lq_count=3, kf_count=1),
        # over the size caps; refused before anything is allocated
        dict(seed=1, lq_count=100_001, kf_count=5),
        dict(seed=1, lq_count=3, kf_count=100_001),
        # a flavor's value is not a flavor
        dict(seed=1, lq_count=3, kf_count=5, flavor="feasible"),
        # a seed or count that is not an int, or is a bool
        dict(seed=1, lq_count=2.5, kf_count=4),
        dict(seed=1, lq_count=3, kf_count=4.0),
        dict(seed=1, lq_count="5", kf_count=4),
        dict(seed=True, lq_count=3, kf_count=5),
        dict(seed=1, lq_count=True, kf_count=5),
    ],
)
def test_spec_invalid(kwargs):
    with pytest.raises(SpecInvalid):
        generate(GenSpec(**kwargs))


@pytest.mark.parametrize("flavor", list(Flavor))
def test_generation_is_reproducible(flavor):
    spec = GenSpec(seed=99, lq_count=7, kf_count=9, flavor=flavor)
    d1, p1 = generate(spec)
    d2, p2 = generate(spec)
    assert serialize_dictionary(d1) == serialize_dictionary(d2)
    assert serialize_profile(p1) == serialize_profile(p2)
    assert (d1, p1) == (d2, p2)


def test_different_seeds_differ():
    a = serialize_dictionary(generate(GenSpec(seed=1, lq_count=6, kf_count=8))[0])
    b = serialize_dictionary(generate(GenSpec(seed=2, lq_count=6, kf_count=8))[0])
    assert a != b


@pytest.mark.parametrize("seed", range(1, 51))
def test_feasible_instances_are_reachable(seed):
    spec = GenSpec(seed=seed, lq_count=1 + seed % 8, kf_count=2 + seed % 9)
    dictionary, profile = generate(spec)
    assert not [f for f in validate_dictionary(dictionary) if f.severity == "error"]
    assert profile.target
    assert profile.target <= closure_by_rescan(profile.known, dictionary.quanta)


@pytest.mark.parametrize("seed", range(1, 31))
def test_infeasible_instances_are_unreachable(seed):
    spec = GenSpec(seed=seed, lq_count=1 + seed % 6, kf_count=2 + seed % 7, flavor=Flavor.INFEASIBLE)
    dictionary, profile = generate(spec)
    covered = frozenset().union(*(q.objectives for q in dictionary.quanta))
    orphaned = profile.target - covered - profile.known
    assert orphaned, "some target KF must appear in no objective set"
    assert not profile.target <= closure_by_rescan(profile.known, dictionary.quanta)
    with pytest.raises(Infeasible):
        backward_resolve(profile, dictionary)


def test_adversarial_includes_mutual_pairs_somewhere():
    found = 0
    for seed in range(1, 41):
        dictionary, _ = generate(
            GenSpec(seed=seed, lq_count=6, kf_count=9, flavor=Flavor.ADVERSARIAL)
        )
        for left in dictionary.quanta:
            for right in dictionary.quanta:
                if left.id >= right.id:
                    continue
                if (
                    left.prerequisites
                    and right.prerequisites
                    and left.prerequisites <= right.objectives
                    and right.prerequisites <= left.objectives
                ):
                    found += 1
    assert found >= 30  # the trap pair is injected whenever sizes permit


def test_adversarial_outcomes_are_all_legitimate():
    outcomes = set()
    for seed in range(1, 41):
        dictionary, profile = generate(
            GenSpec(seed=seed, lq_count=6, kf_count=9, flavor=Flavor.ADVERSARIAL)
        )
        config = CoverConfig(metric=MinimalityMetric.COST)
        try:
            _trace, _graph, plan = plan_query(profile, dictionary, config=config)
        except Infeasible:
            outcomes.add("infeasible")
            continue
        except CycleDetected:
            outcomes.add("cycle")
            continue
        assert simulate_plan(plan, dictionary, profile).ok
        outcomes.add("planned")
    assert "planned" in outcomes


def test_adversarial_degrades_below_thresholds():
    # too small for the trap pair: behaves like a feasible instance
    dictionary, profile = generate(
        GenSpec(seed=5, lq_count=2, kf_count=4, flavor=Flavor.ADVERSARIAL)
    )
    assert len(dictionary.quanta) == 2
    assert profile.target <= closure_by_rescan(profile.known, dictionary.quanta)


def test_requested_counts_are_respected():
    dictionary, _ = generate(GenSpec(seed=3, lq_count=12, kf_count=15))
    assert len(dictionary.quanta) == 12
    kfs = set()
    for q in dictionary.quanta:
        kfs |= q.prerequisites | q.objectives
    assert all(kf.startswith("k") for kf in kfs)
    assert len(kfs) <= 15
    for q in dictionary.quanta:
        assert q.objectives
        assert len(q.objectives) <= 2
        assert len(q.prerequisites) <= 3
        assert not q.prerequisites & q.objectives


def test_scale_generation_is_quick():
    dictionary, profile = generate(GenSpec(seed=8, lq_count=1000, kf_count=800))
    assert len(dictionary.quanta) == 1000
    assert profile.target <= closure_by_rescan(profile.known, dictionary.quanta)


@pytest.mark.parametrize(
    "lq_count, kf_count, digest",
    [
        (4000, 3200, "c54508853471a5a91b277228d6787fde9535932745d29bed3c36755cd1d05301"),
        (10000, 8000, "ea5ee776058322bb3424601a7f28d967f35e9941449af0cd52a76d34b714f02d"),
    ],
)
def test_benchmark_dictionaries_are_pinned(lq_count, kf_count, digest):
    # the dictionaries perfbench plans against: a generator change that
    # moves them changes what every benchmark run measures
    dictionary, _ = generate(GenSpec(2026, lq_count, kf_count))
    assert hashlib.sha256(serialize_dictionary(dictionary)).hexdigest() == digest


def test_every_flavor_is_pinned():
    # the benchmark pins cover one flavor at two sizes; this grid also
    # reaches the adversarial trap, the infeasible orphan and the sizes
    # below which a flavor degrades
    digest = hashlib.sha256()
    for flavor in Flavor:
        for lq_count in (1, 2, 3, 4, 5, 8, 40, 200):
            for seed in range(40):
                dictionary, profile = generate(GenSpec(seed, lq_count, max(2, lq_count * 4 // 5), flavor=flavor))
                digest.update(serialize_dictionary(dictionary) + serialize_profile(profile))
    assert digest.hexdigest() == "f0ae642465573fe612dc1489b4b83a73ea55286d167d114e9e6cbde7c7d36c8f"
