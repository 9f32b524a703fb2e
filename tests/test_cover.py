from __future__ import annotations

import random
from bisect import insort
from contextlib import suppress
from dataclasses import replace
from functools import reduce
from itertools import combinations, product
from operator import or_
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KF_POOL, make_dead_end, profiles, quanta_lists
from lqplan import cover
from lqplan.cover import (
    CoverConfig,
    CoverMode,
    MAX_EXACT_CANDIDATES,
    ExactTooLarge,
    Infeasible,
    IterationRecord,
    NoCover,
    SolutionTrace,
    backward_resolve,
    minimal_cover,
    prerequisite_gap,
)
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import (
    LearnerProfile,
    LearnerQuantum,
    LQCloud,
    LQDictionary,
    LQPlanError,
    MinimalityMetric,
    SchemaError,
    Scope,
    UnknownLQ,
    closure_over,
    total_weight,
    validate_dictionary,
)
from lqplan.sequence import CycleDetected, Plan, build_digraph, plan_query, simulate_plan, topo_schedule
from oracles import (
    best_reachable_subset,
    closure_by_rescan,
    encode_by_intersection,
    greedy_cover,
    harmonic,
    is_irredundant,
    iter_covers,
    min_cover_weight,
    relevant_pool,
    selection_key,
)

EXACT = CoverConfig()
GREEDY = CoverConfig(mode=CoverMode.GREEDY)


def quanta_by_id(dictionary, ids):
    return [dictionary.quantum(lq_id) for lq_id in ids]


def widened_sample(dictionary, size, rng):
    """``size`` units drawn from the dictionary, each given up to four
    objectives: the extra ones are the dictionary's KFs outside its
    prerequisites, so many units share objectives."""
    kfs = sorted(frozenset().union(*(q.prerequisites | q.objectives for q in dictionary.quanta)))
    quanta = []
    for q in rng.sample(dictionary.quanta, size):
        outside = [kf for kf in kfs if kf not in q.prerequisites and kf not in q.objectives]
        extra = rng.sample(outside, rng.randint(0, 4 - len(q.objectives)))
        quanta.append(replace(q, objectives=q.objectives | frozenset(extra)))
    return quanta


HUGE_WEIGHT = 10**15
DENSE_KFS = tuple(f"t{i:02d}" for i in range(32))
DENSE_PREREQS = tuple(frozenset(pair) for pair in combinations(KF_POOL[:4], 2))


def draw_targets_and_known(quanta, draw):
    """Up to three coverable targets, and a non-empty known set beside them."""
    union = frozenset().union(*(q.objectives for q in quanta))
    targets = draw(
        st.frozensets(st.sampled_from(sorted(union)), min_size=1, max_size=3)
    )
    known = draw(
        st.frozensets(st.sampled_from(sorted(frozenset(KF_POOL) - targets)), min_size=1)
    )
    return targets, known


def chvatal_bound(targets, quanta, metric):
    """Chvátal's bound on a greedy cover's weight: H(d) times the least
    cover weight, d being the most targets one unit covers."""
    d = max(len(q.objectives & targets) for q in quanta)
    return harmonic(d) * min_cover_weight(targets, quanta, metric)


@st.composite
def greedy_instances(draw):
    """A (pool, targets, known) triple for the greedy oracle test.

    Three kinds: small pools with everyday weights; the same with
    durations and costs up to 10**15; and dense pools, where a unit with n
    objectives weighs n * base + delta for one base near 2 * 10**13 and a
    delta in {-1, 0, 1}, so most gain/weight ratios are equal or nearly
    so. Every dense pool holds a pair of units with 24-30 and one more
    objectives and the same delta: their ratios differ by about one part
    in 10**16, below a float's resolution. Every dense unit needs two of
    the same four KFs, so unmet counts tie too, and ids are shuffled:
    only exact ratios and the whole tie-break chain pick right.
    """
    kind = draw(st.sampled_from(("everyday", "huge", "dense")))
    if kind != "dense":
        quanta = draw(quanta_lists())
        if kind == "huge":
            weights = st.integers(min_value=0, max_value=HUGE_WEIGHT)
            quanta = tuple(replace(q, duration_minutes=draw(weights), cost=draw(weights)) for q in quanta)
        return (quanta, *draw_targets_and_known(quanta, draw))
    base = draw(st.integers(min_value=HUGE_WEIGHT // 64, max_value=HUGE_WEIGHT // 32 - 1))
    n = draw(st.integers(min_value=24, max_value=30))
    delta = draw(st.sampled_from((-1, 1)))
    units = [(frozenset(DENSE_KFS[:n]), delta), (frozenset(DENSE_KFS[: n + 1]), delta)]
    units += draw(st.lists(st.tuples(
        st.frozensets(st.sampled_from(DENSE_KFS), min_size=1), st.sampled_from((-1, 0, 1))
    ), max_size=4))
    ids = draw(st.permutations([f"q{i}" for i in range(len(units))]))
    quanta = tuple(
        LearnerQuantum(lq_id, lq_id, draw(st.sampled_from(DENSE_PREREQS)), objectives,
                       len(objectives) * base + d, len(objectives) * base + d)
        for lq_id, (objectives, d) in zip(ids, units)
    )
    targets = frozenset().union(*(q.objectives for q in quanta))
    known = draw(st.frozensets(st.sampled_from(KF_POOL[:4])))
    return quanta, targets, known


@st.composite
def component_pools(draw, weights=st.integers(min_value=0, max_value=3), shared_needs=True):
    """A (pool, targets, known) triple whose pool is two to four
    components of one to three units each, with ids shuffled across them.

    Component c of n units has targets ``c0`` to ``cn``. Its unit j
    delivers ``cj`` and ``c(j+1)``, which chains the component together
    through targets that are not always a unit's lowest, and some more
    of the component's targets. Prerequisites come from four KFs that
    every component shares, or from four of the component's own; the
    known set holds some of them. Durations and costs are drawn from
    ``weights``, small so that covers tie.
    """
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4))
    ids = iter(draw(st.permutations([f"u{i:02d}" for i in range(sum(sizes))])))
    pool, known = [], set()
    for c, size in enumerate(sizes):
        needs = [f"p{k}" for k in range(4)] if shared_needs else [f"p{c}{k}" for k in range(4)]
        known |= draw(st.frozensets(st.sampled_from(needs)))
        kfs = [f"{c}{j}" for j in range(size + 1)]
        for j in range(size):
            objectives = {kfs[j], kfs[j + 1]} | draw(st.frozensets(st.sampled_from(kfs)))
            prerequisites = draw(st.frozensets(st.sampled_from(needs), max_size=2))
            pool.append(LearnerQuantum(next(ids), "u", prerequisites, objectives, draw(weights), draw(weights)))
    targets = frozenset().union(*(q.objectives for q in pool))
    return tuple(pool), targets, frozenset(known)


@st.composite
def stale_pools(draw):
    """A (pool, targets, known) triple on which the lazy greedy re-scores
    an entry and keeps it.

    Units a and b weigh 1 and cover k targets each, k - 1 of them shared,
    and b also covers ``solo``, which no other unit covers. Every other
    unit covers fewer than k targets, so no ratio beats theirs. Whichever
    of a and b is read first is taken; the other is read next, stale, and
    goes back in with a gain of 1. b alone covers ``solo``, so it is
    always taken.
    """
    k = draw(st.integers(min_value=2, max_value=4))
    shared = [f"s{i}" for i in range(k - 1)]
    spare = draw(st.lists(st.sampled_from(KF_POOL), min_size=1, max_size=5, unique=True))
    kfs = shared + ["only-a"] + spare
    known = frozenset(draw(st.frozensets(st.sampled_from(DENSE_KFS[:4]))))
    prerequisites = st.frozensets(st.sampled_from(DENSE_KFS[:4]), max_size=2)
    weights = st.integers(min_value=0, max_value=5)
    ids = iter(draw(st.permutations([f"u{i}" for i in range(10)])))
    pool = [
        LearnerQuantum(next(ids), "a", draw(prerequisites), {*shared, "only-a"}, 1, 1),
        LearnerQuantum(next(ids), "b", draw(prerequisites), {*shared, "solo"}, 1, 1),
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        objectives = draw(st.frozensets(st.sampled_from(kfs), min_size=1, max_size=k - 1))
        pool.append(LearnerQuantum(next(ids), "o", draw(prerequisites), objectives, draw(weights), draw(weights)))
    targets = frozenset().union(*(q.objectives for q in pool))
    return tuple(draw(st.permutations(pool))), targets, known


class TestMinimalCover:
    def test_prefers_fewer_unmet_prerequisites(self, d1):
        # B and C both cover k3 at weight 1; C needs nothing new.
        got = minimal_cover(frozenset({"k3"}), d1.quanta, frozenset({"k1"}), EXACT)
        assert got == frozenset({"C"})

    def test_empty_targets(self, d1):
        assert minimal_cover(frozenset(), d1.quanta, frozenset(), EXACT) == frozenset()

    def test_no_cover(self, d1):
        with pytest.raises(NoCover) as err:
            minimal_cover(frozenset({"k9"}), d1.quanta, frozenset(), EXACT)
        assert err.value.uncovered == frozenset({"k9"})

    @pytest.mark.parametrize("config", [EXACT, GREEDY])
    def test_no_cover_names_only_the_unsupplied_targets(self, config):
        # distractors deliver no target, so they leave the pool
        pool = (
            LearnerQuantum("A", "a", {"p"}, {"t1"}),
            LearnerQuantum("B", "b", frozenset(), {"t1", "x"}),
            LearnerQuantum("D1", "d1", frozenset(), {"x"}),
            LearnerQuantum("D2", "d2", {"t3"}, {"y"}),
        )
        with pytest.raises(NoCover) as err:
            minimal_cover(frozenset({"t1", "t2", "t3"}), pool, frozenset(), config)
        assert err.value.uncovered == frozenset({"t2", "t3"})
        assert str(err.value) == "no candidate covers: t2, t3"

    @pytest.mark.parametrize("config", [EXACT, GREEDY])
    def test_no_cover_comes_before_the_cap(self, config):
        # one component over the cap, and a target nothing delivers
        pool = tuple(LearnerQuantum(f"q{i:02d}", "t", frozenset(), {"t"}) for i in range(26))
        with pytest.raises(NoCover) as err:
            minimal_cover(frozenset({"t", "u"}), pool, frozenset(), config)
        assert err.value.uncovered == frozenset({"u"})

    def test_cost_metric_prefers_two_cheap_units(self):
        pool = (
            LearnerQuantum("B", "b", frozenset(), {"k3"}, cost=1),
            LearnerQuantum("D", "d", frozenset(), {"k4"}, cost=1),
            LearnerQuantum("C", "c", frozenset(), {"k3", "k4"}, cost=3),
        )
        config = CoverConfig(metric=MinimalityMetric.COST)
        got = minimal_cover(frozenset({"k3", "k4"}), pool, frozenset(), config)
        assert got == frozenset({"B", "D"})

    def test_lexicographic_last_resort(self):
        pool = (
            LearnerQuantum("N2", "n2", frozenset(), {"t"}),
            LearnerQuantum("N1", "n1", frozenset(), {"t"}),
        )
        for config in (EXACT, GREEDY):
            assert minimal_cover(frozenset({"t"}), pool, frozenset(), config) == frozenset({"N1"})

    @pytest.mark.parametrize("config", [EXACT, GREEDY])
    @pytest.mark.parametrize("as_known", [frozenset, set, list, lambda kfs: (kf for kf in sorted(kfs))])
    def test_known_decides_a_ratio_tie(self, config, as_known):
        # A and B cover t at the same ratio and need one KF each, so the tie
        # goes to A by id until the learner holds B's prerequisite q
        pool = (
            LearnerQuantum("A", "a", {"p"}, {"t"}),
            LearnerQuantum("B", "b", {"q"}, {"t"}),
        )
        assert minimal_cover(frozenset({"t"}), pool, as_known({"r"}), config) == frozenset({"A"})
        assert minimal_cover(frozenset({"t"}), pool, as_known({"q", "r"}), config) == frozenset({"B"})

    def test_overlapping_known_rejected(self, d1):
        with pytest.raises(ValueError):
            minimal_cover(frozenset({"k3"}), d1.quanta, frozenset({"k3"}), EXACT)

    def test_exact_too_large(self):
        pool = tuple(
            LearnerQuantum(f"q{i:02d}", "t", frozenset(), {"t"}) for i in range(26)
        )
        # the 26 suppliers of one target are one component over the cap
        with pytest.raises(ExactTooLarge) as err:
            minimal_cover(frozenset({"t"}), pool, frozenset(), EXACT)
        assert (err.value.count, err.value.bound) == (26, MAX_EXACT_CANDIDATES)
        # greedy mode has no cap and handles the same pool
        assert minimal_cover(frozenset({"t"}), pool, frozenset(), GREEDY) == frozenset({"q00"})

    def test_refusal_names_the_largest_component(self):
        pool = tuple(LearnerQuantum(f"q{i:02d}", "t", frozenset(), {"t"}) for i in range(26))
        pool += tuple(LearnerQuantum(f"r{i}", "u", frozenset(), {"u"}) for i in range(3))
        with pytest.raises(ExactTooLarge) as err:
            minimal_cover(frozenset({"t", "u"}), pool, frozenset(), EXACT)
        assert err.value.count == 26

    def test_one_supplier_per_target_over_the_cap_resolves(self):
        # 26 targets with one supplier each are 26 components of one unit
        pool = tuple(LearnerQuantum(f"q{i:02d}", "t", frozenset(), {f"t{i:02d}"}) for i in range(26))
        targets = frozenset().union(*(q.objectives for q in pool))
        assert minimal_cover(targets, pool, frozenset(), EXACT) == frozenset(q.id for q in pool)

    @pytest.mark.parametrize("metric", list(MinimalityMetric))
    def test_a_non_supplier_leaves_an_over_cap_pool_as_it_was(self, metric):
        # 27 suppliers in two components within the cap, {a, b} and {c};
        # X delivers no target, so it leaves the pool before the split
        pool = [LearnerQuantum(f"B{i:02d}", "b", frozenset(), {"b"}, 10 + i, i % 3) for i in range(13)]
        pool += [LearnerQuantum("AB", "ab", frozenset(), {"a", "b"}, 30, 4)]
        pool += [LearnerQuantum(f"C{i:02d}", "c", frozenset(), {"c"}, 30 - i, i % 4) for i in range(13)]
        assert len(pool) > MAX_EXACT_CANDIDATES
        targets, config = frozenset({"a", "b", "c"}), CoverConfig(metric=metric)
        x = LearnerQuantum("X", "x", frozenset(), {"x"})
        without = minimal_cover(targets, pool, frozenset(), config)
        assert minimal_cover(targets, pool + [x], frozenset(), config) == without

    @pytest.mark.parametrize("config", [EXACT, GREEDY])
    def test_a_non_supplier_never_reaches_a_solver(self, config):
        # within the cap: Z delivers no target, so the solvers see X and Y only
        pool = (
            LearnerQuantum("X", "x", frozenset(), {"b"}),
            LearnerQuantum("Y", "y", frozenset(), {"a", "b"}),
            LearnerQuantum("Z", "z", frozenset(), {"c"}),
        )
        with (
            mock.patch.object(cover, "_greedy_cover", wraps=cover._greedy_cover) as greedy,
            mock.patch.object(cover, "_exact_cover", wraps=cover._exact_cover) as exact,
        ):
            assert minimal_cover(frozenset({"a", "b"}), pool, frozenset(), config) == frozenset({"Y"})
        calls = greedy.call_args_list + exact.call_args_list
        assert calls and all(call.args[1] == [2, 3] for call in calls)

    @given(component_pools(), st.sampled_from(list(MinimalityMetric)))
    @settings(max_examples=150, deadline=None)
    def test_split_weight_matches_enumeration(self, instance, metric):
        quanta, targets, known = instance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cover, "MAX_EXACT_CANDIDATES", 3)
            got = minimal_cover(targets, quanta, known, CoverConfig(metric=metric))
        chosen = [q for q in quanta if q.id in got]
        assert targets <= frozenset().union(*(q.objectives for q in chosen))
        assert total_weight(chosen, metric) == min_cover_weight(targets, quanta, metric)

    @given(component_pools(weights=st.integers(min_value=1, max_value=3), shared_needs=False),
           st.sampled_from(list(MinimalityMetric)))
    @settings(max_examples=150, deadline=None)
    def test_split_pick_matches_key_optimum(self, instance, metric):
        # No two components share an unmet prerequisite, so unmet counts
        # add up across them as weights do. No unit weighs 0, so no cover
        # ties with one that drops a member, and the per-component id
        # tie-break orders merged id tuples as the whole key does.
        quanta, targets, known = instance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cover, "MAX_EXACT_CANDIDATES", 3)
            got = minimal_cover(targets, quanta, known, CoverConfig(metric=metric))
        covers = iter_covers(targets, relevant_pool(targets, quanta))
        best = min(covers, key=lambda c: selection_key(c, known, metric))
        assert got == frozenset(q.id for q in best)

    @pytest.mark.parametrize("metric", list(MinimalityMetric))
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=MAX_EXACT_CANDIDATES),
           st.randoms())
    @settings(max_examples=15, deadline=None)
    def test_within_cap_pick_is_the_whole_pool_search(self, metric, seed, size, rng):
        dictionary, profile = generate(GenSpec(seed=seed, lq_count=300, kf_count=200))
        quanta = widened_sample(dictionary, size, rng)
        targets = frozenset().union(*(q.objectives for q in quanta)) - profile.known
        pool = relevant_pool(targets, quanta)
        full, masks, weights = cover._encode(targets, pool, metric)
        unmet = [q.prerequisites - profile.known for q in pool]
        whole = cover._exact_cover(full, masks, weights, unmet)
        got = minimal_cover(targets, quanta, profile.known, CoverConfig(metric=metric))
        assert got == frozenset(pool[i].id for i in whole)

    @pytest.mark.parametrize("metric", list(MinimalityMetric))
    def test_within_cap_the_whole_key_spans_components(self, metric):
        # {A1, A2} on t1 and {B1, B2} on t2 are two components within the
        # cap. Searched apart, each takes its smaller id at one unmet KF
        # ({A1, B1}: x and y); the whole pool search sees A2 share B1's x.
        pool = (
            LearnerQuantum("A1", "a1", {"y"}, {"t1"}),
            LearnerQuantum("A2", "a2", {"x"}, {"t1"}),
            LearnerQuantum("B1", "b1", {"x"}, {"t2"}),
            LearnerQuantum("B2", "b2", {"z"}, {"t2"}),
        )
        got = minimal_cover(frozenset({"t1", "t2"}), pool, frozenset(), CoverConfig(metric=metric))
        assert got == frozenset({"A2", "B1"})

    @given(st.data(), st.sampled_from(list(MinimalityMetric)))
    @settings(max_examples=100, deadline=None)
    def test_encoding_matches_the_intersection_reference(self, data, metric):
        # Units deliver one to six KFs, and one delivers at least three. One
        # delivers no target, so minimal_cover drops it and encodes again.
        kfs = st.sampled_from(DENSE_KFS[:8])
        targets = data.draw(st.frozensets(kfs, min_size=1))
        weights = st.integers(min_value=0, max_value=HUGE_WEIGHT)
        shapes = data.draw(st.lists(st.tuples(st.frozensets(kfs, min_size=1, max_size=6), weights, weights), max_size=6))
        shapes.append((data.draw(st.frozensets(kfs, min_size=3)), data.draw(weights), data.draw(weights)))
        stray = LearnerQuantum("stray", "s", frozenset(), {"elsewhere"}, data.draw(weights), data.draw(weights))
        pool = [stray] + [LearnerQuantum(f"u{i}", "u", frozenset(), *shape) for i, shape in enumerate(shapes)]
        assert cover._encode(targets, pool, metric) == encode_by_intersection(targets, pool, metric)
        original, encoded = cover._encode, []

        def recorded(targets, pool, metric):
            result = original(targets, pool, metric)
            encoded.append(result == encode_by_intersection(targets, pool, metric))
            return result

        with pytest.MonkeyPatch.context() as patch, suppress(NoCover):
            patch.setattr(cover, "_encode", recorded)
            minimal_cover(targets, pool, frozenset(), CoverConfig(metric=metric, mode=CoverMode.GREEDY))
        assert encoded == [True, True]

    def test_irrelevant_candidates_do_not_count_toward_cap(self):
        pool = tuple(
            LearnerQuantum(f"f{i:02d}", "t", frozenset(), {"other"}) for i in range(30)
        ) + (LearnerQuantum("hit", "t", frozenset(), {"t"}),)
        assert minimal_cover(frozenset({"t"}), pool, frozenset(), EXACT) == frozenset({"hit"})

    @given(quanta_lists(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_exact_weight_matches_enumeration(self, quanta, data):
        targets, known = draw_targets_and_known(quanta, data.draw)
        metric = data.draw(st.sampled_from(list(MinimalityMetric)))
        config = CoverConfig(metric=metric)
        got = minimal_cover(targets, quanta, known, config)
        by_id = {q.id: q for q in quanta}
        chosen = [by_id[i] for i in got]
        covered = frozenset().union(*(q.objectives for q in chosen)) if chosen else frozenset()
        assert targets <= covered
        assert total_weight(chosen, metric) == min_cover_weight(targets, quanta, metric)
        # (weight, unmet) is the least over every cover; the whole key, ids
        # included, is no worse than any cover without a droppable member,
        # and is the least key of all when no relevant unit weighs 0
        pool = relevant_pool(targets, quanta)
        covers = list(iter_covers(targets, pool))
        key = selection_key(chosen, known, metric)
        least = min(selection_key(c, known, metric) for c in covers)
        assert key[:2] == least[:2]
        assert key <= min(selection_key(c, known, metric) for c in covers if is_irredundant(c, targets))
        if all(map(metric.weight, pool)):
            assert key == least

    @given(quanta_lists(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_greedy_keeps_chvatals_bound(self, quanta, data):
        targets, known = draw_targets_and_known(quanta, data.draw)
        metric = data.draw(st.sampled_from(list(MinimalityMetric)))
        pool = relevant_pool(targets, quanta)
        if not all(map(metric.weight, pool)):
            return  # zero weights: test_greedy_keeps_chvatals_bound_at_zero_weight
        got = minimal_cover(targets, quanta, known, CoverConfig(metric, CoverMode.GREEDY))
        assert total_weight([q for q in pool if q.id in got], metric) <= chvatal_bound(targets, pool, metric)

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="ROADMAP item 1 (no free riders): greedy counts a zero weight as 1, "
                              "so it ties A with the free F and takes A by id")
    def test_greedy_keeps_chvatals_bound_at_zero_weight(self):
        pool = [LearnerQuantum("A", "Paid", frozenset(), {"a"}, cost=1),
                LearnerQuantum("F", "Free", frozenset(), {"a"}, cost=0)]
        targets = frozenset({"a"})
        got = minimal_cover(targets, pool, frozenset(), CoverConfig(MinimalityMetric.COST, CoverMode.GREEDY))
        cost = total_weight([q for q in pool if q.id in got], MinimalityMetric.COST)
        assert cost <= chvatal_bound(targets, pool, MinimalityMetric.COST)

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="ROADMAP item 1 (no free riders): the exact search branches on a first, takes "
                              "the free F, then covers b with G, so pruning only greedy's seed keeps F")
    def test_exact_pick_has_no_free_rider(self):
        # irredundant covers: {G} and {F, J} at (3, 1), {F, H} at (3, 2)
        pool = [LearnerQuantum("F", "f", frozenset(), {"a"}, cost=0),
                LearnerQuantum("G", "g", {"q"}, {"a", "b"}, cost=3),
                LearnerQuantum("H", "h", {"q", "r"}, {"b"}, cost=3),
                LearnerQuantum("J", "j", {"r"}, {"b"}, cost=3)]
        targets = frozenset({"a", "b"})
        got = minimal_cover(targets, pool, frozenset(), CoverConfig(MinimalityMetric.COST))
        picked = [q for q in pool if q.id in got]
        assert [q.id for q in picked if not q.cost
                and targets <= frozenset().union(*(r.objectives for r in picked if r is not q))] == []

    @pytest.mark.parametrize("metric", list(MinimalityMetric))
    @given(greedy_instances())
    @settings(max_examples=150, deadline=None)
    def test_greedy_matches_oracle(self, metric, instance):
        quanta, targets, known = instance
        config = CoverConfig(metric=metric, mode=CoverMode.GREEDY)
        got = minimal_cover(targets, quanta, known, config)
        assert got == greedy_cover(targets, quanta, known, metric)

    @pytest.mark.parametrize("metric", list(MinimalityMetric))
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=30, max_value=300), st.randoms())
    @settings(max_examples=15, deadline=None)
    def test_greedy_matches_oracle_on_generated_pools(self, metric, seed, size, rng):
        # Widened units share objectives, so picks shrink other units'
        # gains and the lazy greedy has to re-score stale entries.
        dictionary, profile = generate(GenSpec(seed=seed, lq_count=300, kf_count=200))
        quanta = widened_sample(dictionary, size, rng)
        targets = frozenset().union(*(q.objectives for q in quanta)) - profile.known
        config = CoverConfig(metric=metric, mode=CoverMode.GREEDY)
        got = minimal_cover(targets, quanta, profile.known, config)
        assert got == greedy_cover(targets, quanta, profile.known, metric)

    def test_greedy_rescores_a_stale_entry_between_live_ones(self):
        # a and b tie at 4 targets; after a, b keeps only t5 and goes back
        # between c (2 targets) and f (t5 too, but one unmet prerequisite),
        # so c is taken, then b, and f never is
        pool = (
            LearnerQuantum("a", "a", frozenset(), {"t1", "t2", "t3", "t4"}),
            LearnerQuantum("b", "b", frozenset(), {"t1", "t2", "t3", "t5"}),
            LearnerQuantum("c", "c", frozenset(), {"t6", "t7"}),
            LearnerQuantum("f", "f", {"p"}, {"t5"}),
        )
        targets = frozenset().union(*(q.objectives for q in pool))
        masks = [0b1111, 0b10111, 0b1100000, 0b10000]  # a, b, c and f over t1 ... t7
        with mock.patch.object(cover, "insort", wraps=insort) as reinsert:
            assert cover._greedy_cover(0b1111111, masks, [1] * 4, [0, 0, 0, 1]) == [0, 2, 1]
        (entries, entry, cursor), = [call.args for call in reinsert.call_args_list]
        assert entry[2] == 1 and [e[2] for e in entries[cursor:]] == [2, 1, 3]
        assert minimal_cover(targets, pool, frozenset(), GREEDY) == frozenset("abc")
        assert greedy_cover(targets, pool, frozenset(), MinimalityMetric.COUNT) == frozenset("abc")

    @pytest.mark.parametrize("metric", list(MinimalityMetric))
    @given(stale_pools())
    @settings(max_examples=100, deadline=None)
    def test_greedy_matches_oracle_on_stale_pools(self, metric, instance):
        quanta, targets, known = instance
        config = CoverConfig(metric=metric, mode=CoverMode.GREEDY)
        with mock.patch.object(cover, "insort", wraps=insort) as reinsert:
            got = minimal_cover(targets, quanta, known, config)
        assert reinsert.called
        assert got == greedy_cover(targets, quanta, known, metric)

    def test_greedy_ratio_is_exact_at_any_weight(self):
        # As floats 1/W == 2/(2W+1), so a float key would tie all three
        # units, tie their unmet counts too, and let the id pick A alone.
        # Exactly, B's 1/W beats A's 2/(2W+1), and then C beats A on t2.
        w = 10**17
        pool = (
            LearnerQuantum("a", "a", frozenset(), {"t1", "t2"}, cost=2 * w + 1),
            LearnerQuantum("b", "b", frozenset(), {"t1"}, cost=w),
            LearnerQuantum("c", "c", frozenset(), {"t2"}, cost=w),
        )
        targets = frozenset({"t1", "t2"})
        config = CoverConfig(metric=MinimalityMetric.COST, mode=CoverMode.GREEDY)
        assert 1 / w == 2 / (2 * w + 1)
        assert minimal_cover(targets, pool, frozenset(), config) == frozenset({"b", "c"})
        assert greedy_cover(targets, pool, frozenset(), MinimalityMetric.COST) == frozenset({"b", "c"})

    @pytest.mark.parametrize("metric", list(MinimalityMetric))
    @pytest.mark.parametrize("base", [10**17, 10**30, 2**64])
    def test_greedy_matches_oracle_at_huge_weights(self, metric, base):
        # weights at and next to small multiples of one base: ratios of
        # one to three targets per weight tie or differ far below a
        # float's resolution, and zero weights mix in
        rng = random.Random(base % 1000 + len(metric.value))
        weights = (base, base + 1, 2 * base + 1, 3 * base - 1, 0)
        config = CoverConfig(metric=metric, mode=CoverMode.GREEDY)
        for _ in range(200):
            targets = frozenset(rng.sample(KF_POOL, rng.randint(1, 5)))
            quanta = tuple(
                LearnerQuantum(
                    f"q{i}", "q",
                    frozenset(rng.sample(KF_POOL, rng.randint(0, 2))) - targets,
                    frozenset(rng.sample(sorted(targets), rng.randint(1, min(3, len(targets))))),
                    rng.choice(weights), rng.choice(weights),
                )
                for i in rng.sample(range(12), rng.randint(1, 8))
            )
            targets = frozenset().union(*(q.objectives for q in quanta))
            known = frozenset(rng.sample(sorted(frozenset(KF_POOL) - targets), rng.randint(0, 2)))
            expected = greedy_cover(targets, quanta, known, metric)
            assert minimal_cover(targets, quanta, known, config) == expected

    @pytest.mark.parametrize("base", [10**17, 10**30, 2**64])
    def test_greedy_pick_splits_by_component(self, base):
        # Exact mode seeds each component's search with greedy run on that
        # component alone. That is greedy's pick on the whole pool, in the
        # same order, restricted to the component: no member of another
        # covers its targets, and ratio keys stay exact under its own
        # largest weight. Weights are those of the huge-weight test above.
        rng = random.Random(base % 1000)
        weights = (base, base + 1, 2 * base + 1, 3 * base - 1, 0)
        split = 0
        for _ in range(100):
            n = rng.randint(MAX_EXACT_CANDIDATES + 1, 2 * MAX_EXACT_CANDIDATES)
            bits = rng.sample(range(24), 24)  # targets dealt to up to six components
            groups = [bits[start : start + 4] for start in range(0, 24, 4)]
            masks = [sum(1 << bit for bit in rng.sample(rng.choice(groups), rng.randint(1, 3))) for _ in range(n)]
            full = reduce(or_, masks)
            ws = [rng.choice(weights) for _ in range(n)]
            unmet = [rng.randint(0, 2) for _ in range(n)]
            picked = cover._greedy_cover(full, masks, ws, unmet)
            parts = cover._components(masks)
            split += len(parts) > 1
            for part_full, members in parts:
                local = cover._greedy_cover(
                    part_full, [masks[i] for i in members], [ws[i] for i in members], [unmet[i] for i in members]
                )
                assert [members[j] for j in local] == [i for i in picked if i in members]
        assert split > 90

    @given(quanta_lists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_greedy_covers_and_never_beats_exact(self, quanta, data):
        union = frozenset().union(*(q.objectives for q in quanta))
        targets = data.draw(
            st.frozensets(st.sampled_from(sorted(union)), min_size=1, max_size=3)
        )
        metric = data.draw(st.sampled_from(list(MinimalityMetric)))
        greedy = minimal_cover(targets, quanta, frozenset(), CoverConfig(metric=metric, mode=CoverMode.GREEDY))
        by_id = {q.id: q for q in quanta}
        covered = frozenset().union(*(by_id[i].objectives for i in greedy))
        assert targets <= covered
        exact_weight = min_cover_weight(targets, quanta, metric)
        assert total_weight([by_id[i] for i in greedy], metric) >= exact_weight


class TestBackwardResolve:
    def test_single_iteration_on_d1(self, d1):
        trace = backward_resolve(LearnerProfile(known={"k1"}, target={"k3"}), d1)
        assert trace.solution == ("C",)
        assert trace.cardinality == 1
        [rec] = trace.iterations
        assert rec.selected == frozenset({"C"})
        assert rec.k == 1
        assert rec.prereq_union == frozenset({"k1"})
        assert rec.residual == frozenset()

    def test_two_iterations_on_d1_prime(self, d1_prime):
        trace = backward_resolve(LearnerProfile(known={"k1"}, target={"k3"}), d1_prime)
        assert trace.solution == ("B", "A")
        assert set(trace.solution) == {"A", "B"}
        assert trace.cardinality == 2
        first, second = trace.iterations
        assert (first.selected, first.k) == (frozenset({"B"}), 1)
        assert first.prereq_union == frozenset({"k2"})
        assert first.residual == frozenset({"k2"})
        assert (second.selected, second.k) == (frozenset({"A"}), 1)
        assert second.prereq_union == frozenset({"k1"})
        assert second.residual == frozenset()

    def test_solution_lists_each_rounds_ids_sorted_in_round_order(self):
        picks = ({"C", "A"}, {"B"}, {"E", "D"})
        trace = SolutionTrace(tuple(IterationRecord(frozenset(ids), frozenset(), frozenset()) for ids in picks))
        assert trace.solution == ("A", "C", "B", "D", "E")
        assert trace.cardinality == 5

    def test_a_read_solution_leaves_the_trace_a_plain_value(self, d1_prime):
        trace = backward_resolve(LearnerProfile(known={"k1"}, target={"k3"}), d1_prime)
        unread = SolutionTrace(trace.iterations)
        assert trace.solution is trace.solution  # derived once
        assert trace == unread and hash(trace) == hash(unread) and repr(trace) == repr(unread)
        assert replace(trace) == trace and replace(trace).solution == ("B", "A")
        assert replace(trace, iterations=trace.iterations[1:]).solution == ("A",)

    def test_target_already_known(self, d1):
        trace = backward_resolve(LearnerProfile(known={"k1"}, target={"k1"}), d1)
        assert trace.solution == ()
        assert trace.iterations == ()
        assert trace.cardinality == 0

    def test_empty_target_rejected(self, d1):
        with pytest.raises(ValueError) as err:
            backward_resolve(LearnerProfile(known={"k1"}, target=frozenset()), d1)
        assert isinstance(err.value, LQPlanError)

    def test_unreachable_target_is_stage_zero(self, d1):
        with pytest.raises(Infeasible) as err:
            backward_resolve(LearnerProfile(known=frozenset(), target={"k3"}), d1)
        assert err.value.stage == 0
        assert err.value.uncovered == frozenset({"k3"})

    @pytest.mark.parametrize("mode", list(CoverMode))
    def test_unreachable_target_with_oversized_pool_is_stage_zero(self, mode):
        # every supplier of t needs p, which nothing supplies: exact mode's
        # round 1 refuses the pool and greedy mode's round 2 finds no cover,
        # and either way the reachability check turns it into stage 0
        pool = tuple(
            LearnerQuantum(f"q{i:02d}", "t", {"p"}, {"t"}) for i in range(MAX_EXACT_CANDIDATES + 1)
        )
        dictionary = LQDictionary(subject="oversized", quanta=pool)
        profile = LearnerProfile(known=frozenset(), target={"t"})
        with pytest.raises(Infeasible) as err:
            backward_resolve(profile, dictionary, config=CoverConfig(mode=mode))
        assert err.value.stage == 0
        assert err.value.uncovered == frozenset({"t"})

    def test_cycle_without_way_in_is_stage_zero(self, cycle_trap):
        # the X/Y pair covers every round, but nothing reaches a or b
        trap, profile = cycle_trap
        pair = LQDictionary(subject="pair", quanta=trap.quanta[:2])
        assert [q.id for q in pair.quanta] == ["X", "Y"]
        with pytest.raises(Infeasible) as err:
            backward_resolve(profile, pair)
        assert err.value.stage == 0
        assert err.value.uncovered == frozenset({"t1", "t2"})

    def test_cycle_with_way_in_keeps_its_trace(self, cycle_trap, monkeypatch):
        # the selection X/Y cannot prove the targets reachable, so the cone
        # check runs once, finds Z's way in and the trace stands
        trap, profile = cycle_trap
        cones = []
        cone = Scope.cone
        monkeypatch.setattr(Scope, "cone", lambda *args: cones.append(args[1:]) or cone(*args))
        trace = backward_resolve(profile, trap)
        assert trace.solution == ("X", "Y")
        assert [rec.residual for rec in trace.iterations] == [frozenset()]
        assert cones == [(frozenset({"t1", "t2"}), frozenset())]

    @pytest.mark.parametrize("mode", list(CoverMode))
    def test_feasible_acyclic_query_skips_the_cone(self, d1, d1_prime, mode, monkeypatch):
        def refuse(*args):
            raise AssertionError("the selection proves reachability; no cone is needed")

        monkeypatch.setattr(Scope, "cone", refuse)
        config = CoverConfig(mode=mode)
        profile = LearnerProfile(known={"k1"}, target={"k3", "k4"})
        assert backward_resolve(profile, d1, config=config).solution == ("C",)
        profile = LearnerProfile(known={"k1"}, target={"k3"})
        assert backward_resolve(profile, d1_prime, config=config).solution == ("B", "A")

    def test_scope_restricts_candidates(self, d1):
        scoped = LQDictionary(
            subject=d1.subject,
            quanta=d1.quanta,
            clouds=(LQCloud("ab", frozenset({"A", "B"})),),
        )
        trace = backward_resolve(LearnerProfile(known={"k1"}, target={"k3"}), scoped, scope="ab")
        assert set(trace.solution) == {"A", "B"}

    def test_strict_residual_needs_extra_unit(self):
        # A delivers p as a side effect; reuse mode exploits that, strict
        # mode has to bring in C for it.
        dictionary = LQDictionary(
            subject="strict",
            quanta=(
                LearnerQuantum("A", "a", frozenset(), {"t", "p"}),
                LearnerQuantum("B", "b", {"p"}, {"u"}),
                LearnerQuantum("C", "c", frozenset(), {"p"}),
            ),
        )
        profile = LearnerProfile(known=frozenset(), target={"t", "u"})
        reuse = backward_resolve(profile, dictionary)
        assert set(reuse.solution) == {"A", "B"}
        strict = backward_resolve(
            profile, dictionary, config=CoverConfig(reuse_acquired_objectives=False)
        )
        assert set(strict.solution) == {"A", "B", "C"}
        assert [rec.residual for rec in strict.iterations] == [frozenset({"p"}), frozenset()]

    @pytest.mark.parametrize("mode", list(CoverMode))
    def test_acquired_kfs_break_later_ties(self, mode):
        # G delivers k besides the target. In reuse mode k is held from
        # round 1 on: round 2 takes M2 over M1 (one unmet KF against two),
        # and round 3 takes C2 over C1, as k still counts after round 2
        # added m. In strict mode M1 and M2 tie at two unmet KFs and M1
        # wins by id.
        dictionary = LQDictionary(
            subject="held",
            quanta=(
                LearnerQuantum("G", "g", {"m"}, {"g", "k"}),
                LearnerQuantum("M1", "m1", {"n1", "n2"}, {"m"}),
                LearnerQuantum("M2", "m2", {"k", "c"}, {"m"}),
                LearnerQuantum("C1", "c1", {"z"}, {"c"}),
                LearnerQuantum("C2", "c2", {"k"}, {"c"}),
                LearnerQuantum("N", "n", frozenset(), {"n1", "n2"}),
            ),
        )
        profile = LearnerProfile(known=frozenset(), target={"g"})
        reuse = backward_resolve(profile, dictionary, config=CoverConfig(mode=mode))
        assert [set(rec.selected) for rec in reuse.iterations] == [{"G"}, {"M2"}, {"C2"}]
        strict = backward_resolve(
            profile, dictionary, config=CoverConfig(mode=mode, reuse_acquired_objectives=False)
        )
        assert [set(rec.selected) for rec in strict.iterations] == [{"G"}, {"M1"}, {"N"}]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1 (no free riders): greedy takes the free F, and "
                                           "exact mode keeps that pick, as (F, G) sorts before (G,); the "
                                           "search can also take a free rider itself "
                                           "(test_exact_pick_has_no_free_rider)")
    def test_no_free_rider(self):
        # G alone covers both targets at F and G's cost, in half the time
        dictionary = LQDictionary(subject="free-rider", quanta=(
            LearnerQuantum("F", "Free", frozenset(), {"a"}, duration_minutes=60, cost=0),
            LearnerQuantum("G", "Paid", frozenset(), {"a", "b"}, duration_minutes=30, cost=3),
        ))
        profile = LearnerProfile(frozenset(), frozenset({"a", "b"}))
        solutions = {
            mode: backward_resolve(profile, dictionary, config=CoverConfig(MinimalityMetric.COST, mode)).solution
            for mode in CoverMode
        }
        assert solutions == {mode: ("G",) for mode in CoverMode}

    def test_strict_residual_can_dead_end(self):
        # only A supplies p, but A is already selected in round one
        dictionary = LQDictionary(
            subject="dead-end",
            quanta=(
                LearnerQuantum("A", "a", frozenset(), {"t", "p"}),
                LearnerQuantum("B", "b", {"p"}, {"u"}),
            ),
        )
        profile = LearnerProfile(known=frozenset(), target={"t", "u"})
        assert set(backward_resolve(profile, dictionary).solution) == {"A", "B"}
        with pytest.raises(Infeasible) as err:
            backward_resolve(
                profile, dictionary, config=CoverConfig(reuse_acquired_objectives=False)
            )
        assert err.value.stage == 2
        assert err.value.uncovered == frozenset({"p"})

    def test_repeated_id_is_refused(self):
        # A code-built dictionary may repeat an id, which load_dictionary
        # refuses. Planning on it refuses it too, with the same error, and
        # caches nothing: a second call is refused again. Were it planned,
        # the cover would pick the first A by id for a, and ``by_id`` would
        # resolve that id to the second A, which delivers only b.
        dictionary = LQDictionary(
            subject="repeated-id",
            quanta=(
                LearnerQuantum("A", "first A", frozenset(), {"a"}),
                LearnerQuantum("A", "second A", frozenset(), {"b"}),
            ),
            clouds=(LQCloud("c", frozenset({"A"})),),
        )
        profile = LearnerProfile(target={"a"})
        calls = {
            "backward_resolve": lambda: backward_resolve(profile, dictionary),
            "plan_query exact": lambda: plan_query(profile, dictionary, config=EXACT),
            "plan_query greedy": lambda: plan_query(profile, dictionary, config=GREEDY),
            "build_digraph": lambda: build_digraph(["A"], dictionary, profile),
            "prerequisite_gap": lambda: prerequisite_gap(profile, dictionary, "A"),
            "scoped cloud": lambda: dictionary.scoped("c"),
        }
        for name, call in [*calls.items()] * 2:
            with pytest.raises(SchemaError) as err:
                call()
            assert (err.value.where, err.value.reason) == ("A", "LQ id defined more than once"), name
        assert [(f.code, f.subject) for f in validate_dictionary(dictionary)] == [("duplicate-id", "A")]

    def test_ambiguous_cloud_name_is_refused(self):
        # Two clouds named c, which load_dictionary refuses. Planning in c
        # refuses it too, each time; it used to plan over the first c alone
        # (A, cost 5), never seeing the cheaper B of the second.
        dictionary = LQDictionary(
            subject="repeated-cloud",
            quanta=(
                LearnerQuantum("A", "costly", frozenset(), {"t"}, cost=5),
                LearnerQuantum("B", "cheap", frozenset(), {"t"}, cost=1),
            ),
            clouds=(LQCloud("c", frozenset({"A"})), LQCloud("c", frozenset({"B"}))),
        )
        profile = LearnerProfile(target={"t"})
        exact, greedy = (replace(config, metric=MinimalityMetric.COST) for config in (EXACT, GREEDY))
        calls = {
            "backward_resolve": lambda: backward_resolve(profile, dictionary, "c", exact),
            "plan_query exact": lambda: plan_query(profile, dictionary, "c", exact),
            "plan_query greedy": lambda: plan_query(profile, dictionary, "c", greedy),
            "scoped cloud": lambda: dictionary.scoped("c"),
        }
        for name, call in [*calls.items()] * 2:
            with pytest.raises(SchemaError) as err:
                call()
            assert (err.value.where, err.value.reason) == ("c", "cloud defined more than once"), name
        for config in (exact, greedy):
            assert plan_query(profile, dictionary, None, config)[0].solution == ("B",)
        assert [(f.code, f.subject) for f in validate_dictionary(dictionary)] == [("duplicate-cloud-name", "c")]

    @given(quanta_lists(), profiles(), st.sampled_from(["exact", "greedy"]))
    @settings(max_examples=120, deadline=None)
    def test_resolve_invariants_on_random_instances(self, quanta, profile, mode):
        dictionary = LQDictionary(subject="prop", quanta=quanta)
        config = CoverConfig(mode=CoverMode(mode))
        reachable = closure_by_rescan(profile.known, quanta)
        wanted = profile.target - profile.known
        if not wanted <= reachable:
            # whatever the rounds make of it, an unreachable target is stage 0
            with pytest.raises(Infeasible) as unreachable:
                backward_resolve(profile, dictionary, config=config)
            assert unreachable.value.stage == 0
            assert unreachable.value.uncovered == wanted - reachable
            return
        try:
            trace = backward_resolve(profile, dictionary, config=config)
        except Infeasible as err:
            assert err.stage > 0
            assert err.uncovered
            return
        # coverage: known plus all selected objectives reach every target
        acquired = frozenset().union(
            *(dictionary.quantum(i).objectives for i in trace.solution)
        ) if trace.solution else frozenset()
        assert profile.target <= profile.known | acquired
        # residual purity, disjoint selections, cardinality bookkeeping
        seen: set[str] = set()
        for rec in trace.iterations:
            assert not rec.residual & profile.known
            assert not rec.selected & seen
            assert rec.k == len(rec.selected)
            seen |= rec.selected
        assert trace.cardinality == sum(r.k for r in trace.iterations)
        assert trace.cardinality == len(trace.solution)
        assert len(trace.iterations) <= len(quanta)
        # determinism: a second run reproduces the trace exactly
        assert backward_resolve(profile, dictionary, config=config) == trace

    @staticmethod
    def assert_strict_trace_is_layered(trace, dictionary, profile):
        """Strict rounds are layers: what a round requires outside ``known``
        is delivered by the next round's selection, and the last round
        requires only known KFs, so the rounds staged last to first replay
        soundly. A strict trace thus proves its targets reachable."""
        rounds = [quanta_by_id(dictionary, sorted(rec.selected)) for rec in trace.iterations]
        for this, following in zip(rounds, rounds[1:] + [[]]):
            unmet = frozenset().union(*(q.prerequisites for q in this)) - profile.known
            assert unmet <= frozenset().union(*(q.objectives for q in following))
        stages = tuple(tuple(sorted(rec.selected)) for rec in reversed(trace.iterations))
        assert simulate_plan(Plan(stages, 0, 0), dictionary, profile).ok

    @given(quanta_lists(), profiles(), st.sampled_from(list(CoverMode)))
    @settings(max_examples=120, deadline=None)
    def test_strict_trace_is_layered_on_random_instances(self, quanta, profile, mode):
        dictionary = LQDictionary(subject="prop", quanta=quanta)
        config = CoverConfig(mode=mode, reuse_acquired_objectives=False)
        try:
            trace = backward_resolve(profile, dictionary, config=config)
        except Infeasible:
            return
        self.assert_strict_trace_is_layered(trace, dictionary, profile)

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_strict_trace_is_layered_on_generated_instances(self, flavor):
        # each instance is asked for its generated target (which the
        # infeasible flavor cannot reach) and for every fourth attainable KF
        multi_round = 0
        for seed, units in product(range(20), (8, 40, 200)):
            spec = GenSpec(seed=seed, lq_count=units, kf_count=units, flavor=flavor)
            dictionary, generated = generate(spec)
            queries = [generated]
            if attainable := sorted(closure_over(generated.known, dictionary.quanta) - generated.known):
                queries.append(LearnerProfile(generated.known, frozenset(attainable[::4])))
            for profile, mode, metric in product(queries, CoverMode, MinimalityMetric):
                try:
                    trace = backward_resolve(profile, dictionary, config=CoverConfig(metric, mode, False))
                except LQPlanError:
                    continue
                self.assert_strict_trace_is_layered(trace, dictionary, profile)
                multi_round += len(trace.iterations) > 1
        assert multi_round >= 50


class TestGlobalOptimalPlan:
    """Round-by-round resolution against the plan-level optimum of the
    enumeration oracle."""

    def test_frozen_examples(self, d1, d1_prime):
        profile = LearnerProfile(known={"k1"}, target={"k3"})
        metric = MinimalityMetric.COUNT
        assert best_reachable_subset(profile, d1.quanta, metric) == frozenset({"C"})
        assert best_reachable_subset(profile, d1_prime.quanta, metric) == frozenset({"A", "B"})

    def test_round_by_round_can_be_strictly_heavier(self):
        # acceptance criterion 3's instance 79 (8 units, 9 KFs): round 1
        # covers k2 and k4 with q3 and, at an equal key, the smaller id q1,
        # so round 2 adds q2 for q3's k1; q7 alone delivers both k4 and k1
        dictionary, profile = generate(GenSpec(seed=79, lq_count=8, kf_count=9))
        assert set(backward_resolve(profile, dictionary).solution) == {"q1", "q2", "q3"}
        best = best_reachable_subset(profile, dictionary.quanta, MinimalityMetric.COUNT)
        assert best == frozenset({"q3", "q7"})

    def test_dead_end_has_a_plan(self):
        # round-by-round resolution exits 1 here (Infeasible at stage 2),
        # yet {B, C} is a plan that can be followed
        dictionary = make_dead_end()
        profile = LearnerProfile(target={"t"})
        best = best_reachable_subset(profile, dictionary.quanta, MinimalityMetric.COUNT)
        assert best == frozenset({"B", "C"})
        plan = topo_schedule(build_digraph(sorted(best), dictionary, profile), dictionary)
        assert simulate_plan(plan, dictionary, profile).ok

    def test_target_already_known(self, d1):
        profile = LearnerProfile(known={"k1"}, target={"k1"})
        assert best_reachable_subset(profile, d1.quanta, MinimalityMetric.COUNT) == frozenset()
        assert backward_resolve(profile, d1).solution == ()

    def test_infeasible(self, d1):
        profile = LearnerProfile(known=frozenset(), target={"k3"})
        assert best_reachable_subset(profile, d1.quanta, MinimalityMetric.COUNT) is None
        with pytest.raises(Infeasible) as info:
            backward_resolve(profile, d1)
        assert info.value.stage == 0

    @staticmethod
    def check_against_oracle(profile, dictionary, scope, metric):
        # Stage 0 is exactly "no plan exists"; a later stage is a dead end of
        # the rounds while a plan exists. A resolved solution that reaches the
        # target is never lighter than the optimum; one that does not is a
        # cycle that sequencing refuses.
        expected = best_reachable_subset(profile, dictionary.scoped(scope), metric)
        for mode in CoverMode:
            for reuse in (True, False):
                config = CoverConfig(metric=metric, mode=mode, reuse_acquired_objectives=reuse)
                try:
                    trace = backward_resolve(profile, dictionary, scope, config)
                except Infeasible as exc:
                    assert (exc.stage == 0) == (expected is None)
                    continue
                assert expected is not None
                selected = quanta_by_id(dictionary, trace.solution)
                if profile.target <= closure_over(profile.known, selected):
                    optimal = total_weight(quanta_by_id(dictionary, expected), metric)
                    assert total_weight(selected, metric) >= optimal
                else:
                    with pytest.raises(CycleDetected):
                        topo_schedule(
                            build_digraph(trace.solution, dictionary, profile), dictionary
                        )

    @given(quanta_lists(max_quanta=5), profiles(), st.sampled_from(list(MinimalityMetric)))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_oracle(self, quanta, profile, metric):
        dictionary = LQDictionary(subject="prop", quanta=quanta)
        self.check_against_oracle(profile, dictionary, None, metric)

    @pytest.mark.parametrize("metric", list(MinimalityMetric))
    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_matches_enumeration_oracle_on_generated(self, flavor, metric):
        # 6-12 units over few KFs, so several units supply the same KF and
        # zero costs tie weights; the infeasible flavor checks the stage-0 verdict.
        for seed in range(14):
            size = 6 + seed % 7
            spec = GenSpec(seed=seed, lq_count=size, kf_count=2 + size // 2, flavor=flavor)
            dictionary, profile = generate(spec)
            for scope in [None] + [c.name for c in dictionary.clouds]:
                self.check_against_oracle(profile, dictionary, scope, metric)

    @given(quanta_lists(), profiles(), st.sampled_from(list(MinimalityMetric)))
    @settings(max_examples=60, deadline=None)
    def test_iterative_never_beats_global(self, quanta, profile, metric):
        # On a dictionary with mutual dependencies the resolver can return a
        # cover whose members supply each other's prerequisites in a loop.
        # Such a solution never survives sequencing, so the weight comparison
        # only applies when the solution actually reaches the target.
        dictionary = LQDictionary(subject="prop", quanta=quanta)
        config = CoverConfig(metric=metric)
        try:
            trace = backward_resolve(profile, dictionary, config=config)
        except Infeasible:
            return
        selected = quanta_by_id(dictionary, trace.solution)
        reached = closure_over(profile.known, selected)
        if profile.target <= reached:
            iterative = total_weight(selected, metric)
            best = best_reachable_subset(profile, dictionary.quanta, metric)
            optimal = total_weight(quanta_by_id(dictionary, best), metric)
            assert iterative >= optimal
        else:
            with pytest.raises(CycleDetected):
                topo_schedule(build_digraph(trace.solution, dictionary, profile), dictionary)


class TestPrerequisiteGap:
    def test_gap_closable_through_dictionary(self, d1):
        report = prerequisite_gap(LearnerProfile(known={"k1"}), d1, "B")
        assert report.missing == frozenset({"k2"})
        assert report.satisfiable is True

    def test_no_gap(self, d1):
        report = prerequisite_gap(LearnerProfile(known={"k1", "k2"}), d1, "B")
        assert report.missing == frozenset()
        assert report.satisfiable is True

    def test_unsatisfiable_gap(self, d1):
        report = prerequisite_gap(LearnerProfile(known=frozenset()), d1, "A")
        assert report.missing == frozenset({"k1"})
        assert report.satisfiable is False

    def test_unknown_lq(self, d1):
        with pytest.raises(UnknownLQ):
            prerequisite_gap(LearnerProfile(), d1, "ZZ")


def test_closure_over_matches_oracle_on_fixture(d1):
    assert closure_over({"k1"}, d1.quanta) == closure_by_rescan({"k1"}, d1.quanta)
