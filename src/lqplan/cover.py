"""Minimal-cover selection and iterative backward resolution.

Planning works backwards from the learner's targets: pick a lightest set
of quanta whose objectives cover the targets, then treat the unmet
prerequisites of that pick as the next round's targets, and repeat until
nothing is left. Each round is a weighted set-cover instance, solved
either exactly (branch and bound) or greedily.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from itertools import chain, repeat
from math import lcm
from operator import attrgetter, or_
from typing import Iterable, Iterator

from .model import (
    KFSet,
    LQDictionary,
    LQPlanError,
    LearnerProfile,
    LearnerQuantum,
    MinimalityMetric,
    Scope,
    closure_over,
)

MAX_EXACT_CANDIDATES = 25


class CoverMode(Enum):
    EXACT = "exact"
    GREEDY = "greedy"


@dataclass(frozen=True)
class CoverConfig:
    """Knobs for one planning query.

    ``reuse_acquired_objectives`` controls whether KFs delivered by
    already-selected quanta count as held when computing later residuals;
    a quantum never counts toward its own prerequisites. Switching reuse
    off follows the strictest reading of backward chaining, at the price
    of redundant picks and dead ends where reuse finds a plan: strict mode
    does not count a selected unit's objectives as held, and later rounds
    draw only from unselected units, so a prerequisite whose suppliers are
    all selected already can never be met. Exact mode
    solves a larger pool by its independent components (see
    ``minimal_cover``) and refuses it only when one component holds more
    than ``MAX_EXACT_CANDIDATES`` relevant candidates; greedy mode has no
    cap.
    """

    metric: MinimalityMetric = MinimalityMetric.COUNT
    mode: CoverMode = CoverMode.EXACT
    reuse_acquired_objectives: bool = True


@dataclass(frozen=True)
class IterationRecord:
    """One round of backward resolution.

    ``prereq_union`` is everything the newly selected quanta require;
    ``residual`` is the part of that still unaccounted for, which the next
    round must cover. ``k`` is the size of the selection; a record's
    round number is its position in the trace, from 1.
    """

    selected: frozenset[str]
    prereq_union: KFSet
    residual: KFSet

    @property
    def k(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class SolutionTrace:
    """Full record of a backward resolution run.

    ``solution`` lists the chosen LQ ids in selection order (iteration by
    iteration, alphabetical within one), derived on first read and kept;
    ``cardinality`` is its length.
    """

    iterations: tuple[IterationRecord, ...]

    @cached_property
    def solution(self) -> tuple[str, ...]:
        return tuple(lq_id for rec in self.iterations for lq_id in sorted(rec.selected))

    @property
    def cardinality(self) -> int:
        return len(self.solution)


@dataclass(frozen=True)
class GapReport:
    """Counseling result for one quantum: what is missing and whether the
    dictionary can supply it."""

    lq_id: str
    missing: KFSet
    satisfiable: bool


class EmptyTarget(LQPlanError, ValueError):
    """A planning query named no target KF."""


class NoCover(LQPlanError):
    """No subset of the candidates covers the requested targets."""

    def __init__(self, uncovered: KFSet):
        self.uncovered = frozenset(uncovered)
        super().__init__(f"no candidate covers: {', '.join(sorted(self.uncovered))}")


class ExactTooLarge(LQPlanError):
    """Exact mode was asked to search a pool component beyond its
    configured cap; ``count`` is the size of the largest component."""

    def __init__(self, count: int, bound: int):
        self.count = count
        self.bound = bound
        super().__init__(
            f"exact cover over {count} relevant candidates exceeds the cap of {bound}; "
            "retry in greedy mode"
        )


class Infeasible(LQPlanError):
    """Backward resolution ended without a plan.

    ``stage`` 0 means no plan exists: no sequence of the quanta in scope
    reaches the targets. Stage g >= 1 means round g found no cover for its
    residual among the quanta not yet selected; a plan may still exist.
    """

    def __init__(self, stage: int, uncovered: KFSet):
        self.stage = stage
        self.uncovered = frozenset(uncovered)
        super().__init__(
            f"Infeasible at stage {stage}: uncovered = {', '.join(sorted(self.uncovered))}"
        )


def _encode(
    targets: KFSet, pool: list[LearnerQuantum], metric: MinimalityMetric
) -> tuple[int, list[int], list[int]]:
    """What both solvers read of the pool, as integers: the targets get
    bits 0, 1, ... in sorted order, which fixes the exact search's
    branching order; each member becomes its target mask and its weight."""
    get = {kf: 1 << i for i, kf in enumerate(sorted(targets))}.get
    masks = []
    for q in pool:
        mask = 0
        for kf in q.objectives:
            mask |= get(kf, 0)
        masks.append(mask)
    return (1 << len(targets)) - 1, masks, list(map(metric.weight, pool))


def minimal_cover(
    targets: KFSet,
    candidates: Iterable[LearnerQuantum],
    known: KFSet,
    config: CoverConfig,
) -> frozenset[str]:
    """Pick a set of candidates whose objectives cover ``targets``.

    Only candidates with a nonzero target mask (objectives meeting the
    targets) take part. Greedy mode runs ``_greedy_cover`` on the pool,
    which repeatedly takes the best coverage-per-weight candidate and may
    overshoot the minimum. Exact mode runs ``_exact_cover``, whose
    docstring says which cover it returns, once per part of the pool.

    A pool of at most ``MAX_EXACT_CANDIDATES`` members is one part. A
    larger one is split into its independent components: targets that
    share a member fall in one component. The cap holds per component;
    the largest one over it raises ``ExactTooLarge``. Weights add up
    across components, so the union of their picks is a lightest cover;
    the unmet-prerequisite count and the id tuple of the key are taken
    per component.

    Both solvers read target masks and weights from ``_encode`` and
    identify members by position in the id-sorted pool. Both also read
    each member's unmet-prerequisite set: greedy mode counts it, exact
    mode unions it. A target outside the OR of the target masks raises
    ``NoCover`` before any cap is checked. ``known`` may be any iterable;
    a set is read in place.
    """
    targets = frozenset(targets)
    known = known if isinstance(known, (set, frozenset)) else frozenset(known)
    if targets & known:
        raise ValueError(f"targets overlap the known set: {sorted(targets & known)}")
    if not targets:
        return frozenset()
    pool = sorted(candidates, key=attrgetter("id"))
    full, masks, weights = _encode(targets, pool, config.metric)
    if 0 in masks:
        pool = [q for q, mask in zip(pool, masks) if mask]
        full, masks, weights = _encode(targets, pool, config.metric)
    if reduce(or_, masks, 0) != full:
        raise NoCover(targets.difference(*(q.objectives for q in pool)))
    if config.mode is CoverMode.GREEDY:
        counts = [len(q.prerequisites - known) for q in pool]
        return frozenset(pool[i].id for i in _greedy_cover(full, masks, weights, counts))
    unmet = [q.prerequisites - known for q in pool]
    parts = [(full, range(len(pool)))]
    if len(pool) > MAX_EXACT_CANDIDATES:
        parts = _components(masks)
        largest = max(len(members) for _, members in parts)
        if largest > MAX_EXACT_CANDIDATES:
            raise ExactTooLarge(largest, MAX_EXACT_CANDIDATES)
    picked: list[int] = []
    for part_full, members in parts:
        local = _exact_cover(
            part_full,
            [masks[i] for i in members],
            [weights[i] for i in members],
            [unmet[i] for i in members],
        )
        picked += [members[j] for j in local]
    return frozenset(pool[i].id for i in picked)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` as powers of two, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _components(masks: list[int]) -> list[tuple[int, list[int]]]:
    """The pool's independent parts, by union-find over the target bit
    positions: a member links every target it covers. Each part is its
    target mask and its members in pool order. No member of one part
    covers a target of another, so each part is a set-cover instance of
    its own."""
    parent: dict[int, int] = {}

    def root(position: int) -> int:
        while parent.setdefault(position, position) != position:
            parent[position] = position = parent[parent[position]]  # path halving
        return position

    for mask in masks:
        low, *rest = (root(bit.bit_length()) for bit in _bits(mask))
        for other in rest:
            parent[other] = low
    members: dict[int, list[int]] = {}
    covered: dict[int, int] = {}
    for i, mask in enumerate(masks):
        part = root((mask & -mask).bit_length())
        members.setdefault(part, []).append(i)
        covered[part] = covered.get(part, 0) | mask
    return [(covered[part], members[part]) for part in members]


def _greedy_cover(full: int, masks: list[int], weights: list[int], unmet: list[int]) -> list[int]:
    """Chvátal's rule over target masks, weights and unmet-prerequisite
    counts: take the most targets per unit of weight, then the fewest
    unmet prerequisites, then the lowest pool index (smallest id).

    An entry is ``(-((gain << shift) // weight), unmet, index)``, with
    a zero weight counted as 1 (the exact solver still sums it as 0) and
    ``2 ** shift`` above the square of the largest weight W. Two unequal
    ratios differ by at least 1 / W**2, so the floored key keeps every
    strict order between ratios and equal ratios get equal keys: plain
    tuple order is the rule, exact at any weight. At one weight, distinct
    gains get distinct keys.

    Lazy evaluation after Minoux: the entries are sorted once and keep
    each member's key from when it was last scored. Gains only shrink as
    targets get covered, so a stale entry never ranks below its true
    place. A cursor re-scores the least unread entry; if its key is
    unchanged it is the true best and is taken, otherwise it goes back in
    key order with its new key, or out once it has no gain.
    """
    weights = [weight or 1 for weight in weights]
    shift = 2 * max(weights).bit_length()
    entries = sorted(
        (-((mask.bit_count() << shift) // weight), count, i)
        for i, (mask, weight, count) in enumerate(zip(masks, weights, unmet))
    )
    remaining = full
    chosen: list[int] = []
    cursor = 0
    while remaining:
        key, count, i = entries[cursor]
        cursor += 1
        gain = (masks[i] & remaining).bit_count()
        fresh = -((gain << shift) // weights[i])
        if fresh == key:
            chosen.append(i)
            remaining &= ~masks[i]
        elif gain:
            insort(entries, (fresh, count, i), cursor)
    return chosen


def _exact_cover(full: int, masks: list[int], weights: list[int], needs: list[KFSet]) -> list[int]:
    """Branch and bound over the candidate pool, seeded with its greedy pick.

    Branching is on the open target with the fewest usable candidates
    (the lowest such bit on ties); the i-th option is explored with all
    earlier options banned, which partitions the search space. Unbounded,
    it would reach every cover that has no free-riding member exactly
    once, and some covers with a member made redundant later. A target's
    usable options are one AND of its supplier bitset with the members
    not banned.

    The bound is Beasley's price bound: each open target is charged the
    least ``weight / gain`` over its usable options, where ``gain``
    counts the open targets an option covers. Weights are never
    negative, so any cover of the open targets weighs at least the sum
    of these charges. The charges are integers scaled by lcm(1, ...,
    number of targets), which every gain divides, so the bound is exact.
    A branch is cut when its weight plus the bound exceeds the best
    key's weight, or equals it while the branch's unmet prerequisites,
    which only grow down a branch, already outnumber the best key's. A
    child that closes the last open targets is scored in place, as a
    leaf: it can win only if it weighs no more than the best key.

    A cover's selection key is its total weight, then the number of its
    unmet prerequisite KFs (the size of the union of its ``needs``), then
    its sorted index tuple (its sorted ids, as pools are sorted by id).
    The best key starts as that of ``_greedy_cover``'s pick on this pool,
    whose unmet counts are the sizes of the ``needs``. The search visits
    every cover whose key can still beat the best found so far, not
    every irredundant cover, and returns the least key among the covers
    it visits and the greedy pick, so identical inputs always yield
    identical picks. Its weight and unmet count are the least of any
    cover's, and its key is no greater than that of any cover without a
    free-riding member. It may hold one itself, from the greedy seed or
    from a branch that took a zero-weight unit before a later member
    covered its targets too: the unit stays when its id sorts first.
    """
    supply = {bit: sum(1 << i for i, mask in enumerate(masks) if mask & bit) for bit in _bits(full)}
    scale = lcm(*range(1, len(supply) + 1))
    scaled = [weight * scale for weight in weights]
    incumbent = _greedy_cover(full, masks, weights, list(map(len, needs)))
    unmet = len(frozenset().union(*(needs[i] for i in incumbent)))
    best_key = (sum(weights[i] for i in incumbent), unmet, tuple(sorted(incumbent)))

    def search(remaining: int, allowed: int, chosen: list[int], weight: int, need: KFSet) -> None:
        nonlocal best_key
        excess = (weight - best_key[0]) * scale  # becomes (weight + bound - best) * scale
        branch = 0
        open_bits = remaining
        while open_bits:
            bit = open_bits & -open_bits
            open_bits ^= bit
            # never empty: minimal_cover refused unsupplied targets, and a sibling bans
            # only options of the branch bit, which has the fewest of any open bit
            options = rest = supply[bit] & allowed
            least = None
            while rest:  # highest member first: the least price needs no order
                i = rest.bit_length() - 1
                rest ^= 1 << i
                price = scaled[i] // (masks[i] & remaining).bit_count()
                if least is None or price < least:
                    least = price
            excess += least
            if not branch or options.bit_count() < branch.bit_count():
                branch = options
        if excess > 0 or excess == 0 and len(need) > best_key[1]:
            return
        while branch:  # lowest member first
            i = (branch & -branch).bit_length() - 1
            branch ^= 1 << i
            allowed ^= 1 << i  # bans i here and in every later sibling
            if left := remaining & ~masks[i]:
                search(left, allowed, chosen + [i], weight + weights[i], need | needs[i])
            elif weight + weights[i] <= best_key[0]:  # a cover that can still win
                key = (weight + weights[i], len(need | needs[i]), tuple(sorted(chosen + [i])))
                best_key = min(best_key, key)

    search(full, (1 << len(masks)) - 1, [], 0, frozenset())
    return list(best_key[2])


def _unreachable(candidates: Scope, wanted: KFSet, known: KFSet) -> KFSet:
    """The wanted KFs no sequence of the scope's quanta reaches from ``known``,
    found by a closure over their backward cone only (see ``Scope.cone``)."""
    return wanted - closure_over(known, candidates.cone(wanted, known))


def backward_resolve(
    profile: LearnerProfile,
    dictionary: LQDictionary,
    scope: str | None = None,
    config: CoverConfig = CoverConfig(),
) -> SolutionTrace:
    """Resolve a learner's targets into a set of quanta, backwards.

    Round 1 covers the targets the learner does not hold. Each later
    round covers the previous round's residual prerequisites, drawing only
    on quanta not yet selected, until a residual comes up empty. Closure
    is monotone in the set of quanta, so a selection whose closure holds
    the targets proves them reachable. Only if that proof fails (a round
    raised, or the selection forms a cycle) does the closure run on the
    targets' backward cone, and a target it misses ends in ``Infeasible``
    at stage 0. Otherwise a round without a cover ends in ``Infeasible``
    at its own stage, and ``ExactTooLarge`` passes through. No target at all
    raises ``EmptyTarget``, before the scope is looked up.
    """
    if not profile.target:
        raise EmptyTarget("planning query requires a non-empty target set")
    candidates = dictionary.scoped(scope)
    goal = wanted = profile.target - profile.known
    if not wanted:
        return SolutionTrace(())

    by_id = dictionary.by_id
    suppliers = candidates.suppliers
    held = set(profile.known)  # grows by each round's gains in reuse mode
    selected_ids: set[str] = set()
    iterations: list[IterationRecord] = []
    failure: LQPlanError | None = None
    try:
        while wanted:
            # the round's pool: every quantum delivering a wanted KF, in scope
            # order, less those whose id is already selected
            offered = set(chain.from_iterable(map(suppliers.get, wanted, repeat(()))))
            pool = [candidates[i] for i in sorted(offered) if candidates[i].id not in selected_ids]
            picked = minimal_cover(wanted, pool, held, config)
            units = list(map(by_id.__getitem__, picked))
            prereq_union = frozenset().union(*(q.prerequisites for q in units))
            if config.reuse_acquired_objectives:
                # a unit never counts toward its own prerequisites
                held.update(*(q.objectives - q.prerequisites for q in units))
            residual = prereq_union - held
            iterations.append(IterationRecord(frozenset(picked), prereq_union, residual))
            selected_ids |= picked
            wanted = residual
    except LQPlanError as exc:  # NoCover or ExactTooLarge
        failure = exc
    trace = SolutionTrace(tuple(iterations))
    # in study order, last round first, so closure_over's sweep fires most units as it meets them
    if failure or not goal <= closure_over(profile.known, map(by_id.__getitem__, reversed(trace.solution))):
        if unreachable := _unreachable(candidates, goal, profile.known):
            raise Infeasible(0, unreachable)
    if isinstance(failure, NoCover):
        raise Infeasible(len(iterations) + 1, failure.uncovered) from failure
    if failure:
        raise failure
    return trace


def prerequisite_gap(
    profile: LearnerProfile, dictionary: LQDictionary, lq_id: str
) -> GapReport:
    """What stands between this learner and one specific quantum."""
    quantum = dictionary.quantum(lq_id)
    missing = quantum.prerequisites - profile.known
    satisfiable = not _unreachable(dictionary.scoped(), missing, profile.known)
    return GapReport(lq_id=lq_id, missing=missing, satisfiable=satisfiable)
