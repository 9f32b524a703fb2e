"""The exact branch and bound against its first, weaker version.

``cover._exact_cover`` cuts with a price bound and with the key's unmet-
prerequisite count; ``oracles.exact_cover_reference`` is the search as it
stood before, which visits every cover without a free-riding member.
``_exact_cover`` seeds itself with the greedy pick; the reference is
handed the same pick. On encoded pools full of ties both must return
the same picks, call for call. The drawn pools are encoded: every
target has two to four suppliers, weights come from {0, 1, 2, 3} (or
are all 1, as under the count metric), and needs from four prerequisite
KFs, so weights and need counts tie and only the whole key tells
covers apart. The recorded pools are the parts that exact-mode backward
resolution hands ``_exact_cover`` on generated dictionaries, with
one-target parts, targets with one supplier and zero weights.

The time gate runs tie-heavy pools that the old bound searched in full
and requires them within ``GATE_HEADROOM`` times the median measured when
the gate was set. The ``scale`` variant of the differential test runs
about 2,000 pools at the exact-mode cap; ``pytest -m scale`` runs it.
"""

from __future__ import annotations

import random
import time
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqplan import cover
from lqplan.cover import (
    MAX_EXACT_CANDIDATES,
    CoverConfig,
    _bits,
    _exact_cover,
    _greedy_cover,
    backward_resolve,
)
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import LearnerProfile, LQPlanError, MinimalityMetric, closure_over
from oracles import exact_cover_reference

NEED_KFS = ("p0", "p1", "p2", "p3")
GATE_POOLS = 20
GATE_TARGETS = 8
# Median seconds of _exact_cover over the GATE_POOLS pools, 11 runs on a
# 2-vCPU VM with CPython 3.11.7. The search before the price bound took
# about 0.8 s for the same pools, and before nodes read supplier bitsets
# about 0.014 s.
GATE_MEDIAN_S = 0.008
GATE_HEADROOM = 5


@st.composite
def tie_heavy_pools(draw, sizes=st.integers(min_value=1, max_value=MAX_EXACT_CANDIDATES)):
    """(full, masks, weights, needs) of an encoded pool of ``sizes`` members.

    The members, in drawn order, are dealt out to targets two to four at
    a time, so each member supplies a target (a last target dealt only
    one member gets a second, drawn one); up to four more targets get two
    to four drawn suppliers each.
    """
    n = draw(sizes)
    order = draw(st.permutations(range(n)))
    groups: list[list[int]] = []
    start = 0
    while start < n:
        group = order[start : start + draw(st.integers(min_value=2, max_value=4))]
        start += len(group)
        if len(group) < min(2, n):
            group.append(draw(st.sampled_from([i for i in range(n) if i not in group])))
        groups.append(group)
    suppliers = st.lists(st.sampled_from(range(n)), min_size=min(2, n), max_size=min(4, n), unique=True)
    groups += draw(st.lists(suppliers, max_size=4))
    masks = [0] * n
    for bit, group in enumerate(groups):
        for i in group:
            masks[i] |= 1 << bit
    if draw(st.booleans()):
        weights = [1] * n
    else:
        weights = draw(st.lists(st.sampled_from((0, 1, 2, 3)), min_size=n, max_size=n))
    needs = [draw(st.frozensets(st.sampled_from(NEED_KFS), max_size=2)) for _ in range(n)]
    return (1 << len(groups)) - 1, masks, weights, needs


def greedy(full: int, masks: list[int], weights: list[int], needs: list[frozenset[str]]) -> list[int]:
    """The greedy pick that seeds the reference, which reads unmet
    counts, not unmet sets."""
    return _greedy_cover(full, masks, weights, list(map(len, needs)))


def check_against_reference(pool) -> None:
    full, masks, weights, needs = pool
    expected = exact_cover_reference(full, masks, weights, needs, greedy(full, masks, weights, needs))
    assert _exact_cover(full, masks, weights, needs) == expected


@given(tie_heavy_pools())
@settings(max_examples=200, deadline=None)
def test_matches_reference_on_tie_heavy_pools(pool):
    check_against_reference(pool)


@pytest.mark.scale
@given(tie_heavy_pools(sizes=st.just(MAX_EXACT_CANDIDATES)))
@settings(max_examples=2_000, deadline=None)
def test_matches_reference_at_the_cap(pool):
    check_against_reference(pool)


@pytest.mark.parametrize("lq_count", [200, 2_000])
@pytest.mark.parametrize("flavor", [Flavor.FEASIBLE, Flavor.ADVERSARIAL])
def test_matches_reference_on_resolution_pools(monkeypatch, flavor, lq_count):
    """Every pool that exact-mode ``backward_resolve`` hands ``_exact_cover``
    on five generated dictionaries, under each metric, with reuse and
    strict residuals, for the generated target and for eight attainable
    KFs. ``minimal_cover`` looks ``_exact_cover`` up at call time."""
    pools = []

    def recording(*pool):
        pools.append(pool)
        return _exact_cover(*pool)

    monkeypatch.setattr(cover, "_exact_cover", recording)
    for seed in range(5):
        spec = GenSpec(seed=seed, lq_count=lq_count, kf_count=lq_count * 4 // 5, flavor=flavor)
        dictionary, profile = generate(spec)
        attainable = sorted(closure_over(profile.known, dictionary.quanta) - profile.known)
        for target in (profile.target, frozenset(random.Random(seed).sample(attainable, 8))):
            for metric in MinimalityMetric:
                for reuse in (True, False):
                    config = CoverConfig(metric=metric, reuse_acquired_objectives=reuse)
                    query = LearnerProfile(profile.known, target)
                    with suppress(LQPlanError):  # Infeasible, or ExactTooLarge past the cap
                        backward_resolve(query, dictionary, config=config)
    assert any(full.bit_count() == 1 for full, *_ in pools)
    assert any(
        sum(1 for mask in masks if mask & bit) == 1 for full, masks, *_ in pools for bit in _bits(full)
    )
    assert any(0 in weights for _, _, weights, _ in pools)
    for pool in pools:
        check_against_reference(pool)


# Five targets: members 0 and 2 supply the first two, 1 and 3 the other
# three, all at weight 1. With lcm(1, ..., 5) = 60 the prices are 30 and
# 20, so at the root the bound is 2 * 30 + 3 * 20 = 120, exactly the slack
# of a weight-2 best, and under member 0 it is 3 * 20 = 60, again exactly
# the slack. Only the unmet-prerequisite count, then the ids, may decide.
BALANCED = (0b11111, [0b00011, 0b11100, 0b00011, 0b11100], [1, 1, 1, 1])


@pytest.mark.parametrize(
    "needs, winner",
    [
        ([frozenset()] * 4, [0, 1]),  # every lightest cover ties on unmet count: ids decide
        ([frozenset(), frozenset(), {"p0"}, {"p0"}], [0, 1]),
        ([{"p0"}, {"p1"}, frozenset(), frozenset()], [2, 3]),
    ],
)
@pytest.mark.parametrize("incumbent", [[0, 1], [0, 3], [1, 2], [2, 3], [0, 1, 2, 3]])
def test_bound_equal_to_slack_with_mixed_gains(needs, winner, incumbent):
    full, masks, weights = BALANCED
    assert exact_cover_reference(full, masks, weights, needs, incumbent) == winner
    assert _exact_cover(full, masks, weights, needs) == winner


def gate_pools() -> list[tuple[int, list[int], list[int], list[frozenset[str]], list[int]]]:
    """GATE_POOLS pools of 8 targets with 3 weight-1 suppliers each, in
    shuffled pool order. The three suppliers of a target need three
    different KFs of the same three, so every cover ties on weight, and
    the three covers needing one KF win on the unmet count. A target's
    first supplier in pool order needs p0, so the greedy pick is
    already the winner, as it is on nearly every benchmark call, and the
    search has to prove it among 3 ** 8 equal-weight covers."""
    rng = random.Random(2026)
    pools = []
    for _ in range(GATE_POOLS):
        n = 3 * GATE_TARGETS
        position = rng.sample(range(n), n)
        masks, needs = [0] * n, [frozenset()] * n
        for target in range(GATE_TARGETS):
            first, *others = sorted(position[3 * target : 3 * target + 3])
            for i, b in zip([first, *rng.sample(others, 2)], range(3)):
                masks[i] = 1 << target
                needs[i] = frozenset({f"p{b}"})
        winner = sorted(i for i in range(n) if needs[i] == {"p0"})
        pools.append(((1 << GATE_TARGETS) - 1, masks, [1] * n, needs, winner))
    return pools


def test_tie_heavy_gate():
    pools = gate_pools()
    picks = []
    start = time.perf_counter()
    for full, masks, weights, needs, _ in pools:
        picks.append(_exact_cover(full, masks, weights, needs))
    elapsed = time.perf_counter() - start
    assert picks == [expected for *_, expected in pools]
    bound = GATE_HEADROOM * GATE_MEDIAN_S
    assert elapsed < bound, f"{GATE_POOLS} tie-heavy pools took {elapsed:.3f}s, gate {bound:.3f}s"
