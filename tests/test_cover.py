from __future__ import annotations

from dataclasses import replace
from itertools import combinations

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
    NoCover,
    backward_resolve,
    minimal_cover,
    prerequisite_gap,
)
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import (
    LearnerProfile,
    LearnerQuantum,
    LQDictionary,
    MinimalityMetric,
    Scope,
    UnknownLQ,
    closure_over,
    total_weight,
)
from lqplan.sequence import CycleDetected, build_digraph, simulate_plan, topo_schedule
from oracles import (
    best_reachable_subset,
    closure_by_rescan,
    greedy_cover,
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
        dictionary, profile = generate(GenSpec(seed=seed, lq_count=300, kf_count=200, max_objectives=4))
        quanta = rng.sample(dictionary.quanta, size)
        targets = frozenset().union(*(q.objectives for q in quanta)) - profile.known
        pool = relevant_pool(targets, quanta)
        full, masks, weights, needs = cover._encode(targets, pool, profile.known, metric)
        whole = cover._exact_cover(full, masks, weights, needs, cover._greedy_cover(full, masks, weights, needs))
        got = minimal_cover(targets, quanta, profile.known, CoverConfig(metric=metric))
        assert got == frozenset(pool[i].id for i in whole)

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
        # included, is no worse than any cover without a droppable member
        covers = list(iter_covers(targets, relevant_pool(targets, quanta)))
        key = selection_key(chosen, known, metric)
        assert key[:2] == min(selection_key(c, known, metric)[:2] for c in covers)
        assert key <= min(selection_key(c, known, metric) for c in covers if is_irredundant(c, targets))

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
        # Generated units share objectives (re-teaching units deliver KFs
        # produced earlier), so picks shrink other units' gains and the
        # lazy greedy has to re-score stale heap entries.
        dictionary, profile = generate(GenSpec(seed=seed, lq_count=300, kf_count=200, max_objectives=4))
        quanta = rng.sample(dictionary.quanta, size)
        targets = frozenset().union(*(q.objectives for q in quanta)) - profile.known
        config = CoverConfig(metric=metric, mode=CoverMode.GREEDY)
        got = minimal_cover(targets, quanta, profile.known, config)
        assert got == greedy_cover(targets, quanta, profile.known, metric)

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
        assert rec.index == 1
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

    def test_target_already_known(self, d1):
        trace = backward_resolve(LearnerProfile(known={"k1"}, target={"k1"}), d1)
        assert trace.solution == ()
        assert trace.iterations == ()
        assert trace.cardinality == 0

    def test_empty_target_rejected(self, d1):
        with pytest.raises(ValueError):
            backward_resolve(LearnerProfile(known={"k1"}, target=frozenset()), d1)

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
        from lqplan.model import LQCloud

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

    @pytest.mark.parametrize("mode", list(CoverMode))
    def test_repeated_id_is_dropped_by_id(self, mode):
        # A hand-built dictionary may repeat an id (load_dictionary rejects
        # it). Picks are reported by id, the id's last unit supplies its
        # prerequisites and objectives, and once an id is selected no unit
        # bearing it enters a later pool: in strict mode round 3 needs p,
        # which the second A would supply, so B and then S come in.
        dictionary = LQDictionary(
            subject="repeated-id",
            quanta=(
                LearnerQuantum("A", "first A", frozenset(), {"t", "u"}),
                LearnerQuantum("B", "b", {"s"}, {"p"}),
                LearnerQuantum("A", "second A", {"r"}, {"p", "q"}),
                LearnerQuantum("R", "r", {"p"}, {"r"}),
                LearnerQuantum("S", "s", frozenset(), {"s"}),
            ),
        )
        profile = LearnerProfile(known=frozenset(), target={"t", "u"})

        def rounds(trace):
            return [(set(r.selected), set(r.prereq_union), set(r.residual)) for r in trace.iterations]

        reuse = backward_resolve(profile, dictionary, config=CoverConfig(mode=mode))
        assert rounds(reuse) == [({"A"}, {"r"}, {"r"}), ({"R"}, {"p"}, set())]
        assert reuse.solution == ("A", "R")
        strict = backward_resolve(
            profile, dictionary, config=CoverConfig(mode=mode, reuse_acquired_objectives=False)
        )
        assert rounds(strict) == [
            ({"A"}, {"r"}, {"r"}), ({"R"}, {"p"}, {"p"}), ({"B"}, {"s"}, {"s"}), ({"S"}, set(), set()),
        ]
        assert strict.solution == ("A", "R", "B", "S")

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


class TestGlobalOptimalPlan:
    """Round-by-round resolution against the plan-level optimum of the
    enumeration oracle."""

    def test_frozen_examples(self, d1, d1_prime):
        profile = LearnerProfile(known={"k1"}, target={"k3"})
        metric = MinimalityMetric.COUNT
        assert best_reachable_subset(profile, d1.quanta, metric) == frozenset({"C"})
        assert best_reachable_subset(profile, d1_prime.quanta, metric) == frozenset({"A", "B"})

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
