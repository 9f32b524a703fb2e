"""Minimal-cover selection and iterative backward resolution.

Planning works backwards from the learner's targets: pick a lightest set
of quanta whose objectives cover the targets, then treat the unmet
prerequisites of that pick as the next round's targets, and repeat until
nothing is left. Each round is a weighted set-cover instance, solved
either exactly (branch and bound) or greedily.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heapreplace
from math import lcm
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
    round must cover. ``index`` starts at 1; ``k`` is the size of the
    selection.
    """

    index: int
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
    iteration, alphabetical within one); ``cardinality`` is its length.
    """

    iterations: tuple[IterationRecord, ...]

    @property
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


def _selection_key(
    chosen: Iterable[int], weights: list[int], needs: list[int]
) -> tuple[int, int, tuple[int, ...]]:
    """The preference order for covers of an encoded pool: lighter total
    weight, then fewer unmet prerequisite KFs, then the smaller sorted
    index tuple (the smaller sorted ids, as pools are sorted by id). Every
    exact selection point in this module uses this chain, so identical
    inputs always yield identical picks."""
    need = 0
    for i in chosen:
        need |= needs[i]
    return sum(weights[i] for i in chosen), need.bit_count(), tuple(sorted(chosen))


def _encode(
    targets: KFSet, pool: list[LearnerQuantum], known: KFSet, metric: MinimalityMetric
) -> tuple[int, list[int], list[int], list[int]]:
    """The pool as integers: each KF in the targets or in a member's unmet
    prerequisites gets one bit (in sorted order), and each member becomes
    its target mask, its weight and its unmet-prerequisite mask."""
    kfs = sorted(targets.union(*(q.prerequisites for q in pool)) - known)
    bit_of = {kf: 1 << i for i, kf in enumerate(kfs)}

    def mask_of(group: KFSet) -> int:
        return sum(bit_of[kf] for kf in group)

    full = mask_of(targets)
    masks = [mask_of(q.objectives & targets) for q in pool]
    weights = [metric.weight(q) for q in pool]
    needs = [mask_of(q.prerequisites - known) for q in pool]
    return full, masks, weights, needs


def minimal_cover(
    targets: KFSet,
    candidates: Iterable[LearnerQuantum],
    known: KFSet,
    config: CoverConfig,
) -> frozenset[str]:
    """Pick a set of candidates whose objectives cover ``targets``.

    Only candidates whose objectives intersect the targets take part.
    Exact mode returns the cover minimising the selection key; greedy mode
    repeatedly takes the best coverage-per-weight candidate and may
    overshoot the minimum. Exact minimality is over covers with no
    free-riding member (dropping a zero-weight unit that contributes no
    coverage is never worse under the key's first two components). The
    exact search skips only covers that cannot win the key, so its bound
    changes how long it takes, never what it picks.

    A pool of more than ``MAX_EXACT_CANDIDATES`` members is split, in
    exact mode, into its independent components: targets that share a
    member fall in one component, and each is searched on its own, seeded
    with the greedy picks that fall in it. The cap holds per component;
    the largest one over it raises ``ExactTooLarge``. Weights add up
    across components, so the union of their picks is a lightest cover;
    the unmet-prerequisite count and the id tuple of the key are taken
    per component. A pool within the cap is one component, searched
    under the whole key.

    Both solvers see the pool as ``_encode`` gives it and identify its
    members by position in the id-sorted pool.
    """
    targets = frozenset(targets)
    known = frozenset(known)
    if targets & known:
        raise ValueError(f"targets overlap the known set: {sorted(targets & known)}")
    if not targets:
        return frozenset()
    pool = sorted((q for q in candidates if q.objectives & targets), key=lambda q: q.id)
    uncovered = targets.difference(*(q.objectives for q in pool))
    if uncovered:
        raise NoCover(uncovered)
    exact = config.mode is CoverMode.EXACT
    full, masks, weights, needs = _encode(targets, pool, known, config.metric)
    parts = [(full, range(len(pool)))]
    if exact and len(pool) > MAX_EXACT_CANDIDATES:
        parts = _components(masks)
        largest = max(len(members) for _, members in parts)
        if largest > MAX_EXACT_CANDIDATES:
            raise ExactTooLarge(largest, MAX_EXACT_CANDIDATES)

    picked = _greedy_cover(full, masks, weights, needs)
    if exact:
        greedy = set(picked)
        picked = []
        for part_full, members in parts:
            local = _exact_cover(
                part_full,
                [masks[i] for i in members],
                [weights[i] for i in members],
                [needs[i] for i in members],
                [j for j, i in enumerate(members) if i in greedy],
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


@dataclass(slots=True)
class _Offer:
    """A pool member's heap entry: its last known gain, its weight (a zero
    weight counts as 1, so the ratio stays defined; the exact solver still
    sums it as 0), its unmet-prerequisite count and its pool index.

    ``a < b`` means ``a`` is the better pick: more targets per unit of
    weight, compared by cross-multiplication so it stays exact integer
    arithmetic at any weight, then fewer unmet prerequisites, then the
    lower index.
    """

    gain: int
    weight: int
    unmet: int
    index: int

    def __lt__(self, other: _Offer) -> bool:
        ours, theirs = self.gain * other.weight, other.gain * self.weight
        if ours != theirs:
            return ours > theirs
        if self.unmet != other.unmet:
            return self.unmet < other.unmet
        return self.index < other.index


def _greedy_cover(full: int, masks: list[int], weights: list[int], needs: list[int]) -> list[int]:
    """Chvátal's rule: take the most targets per unit of weight, then the
    fewest unmet prerequisites, then the lowest pool index (smallest id).

    Lazy evaluation after Minoux: the heap holds each member's gain from
    when it was last scored. Gains only shrink as targets get covered, so
    a stale entry never ranks below its true place. The top entry is
    re-scored; if its gain is unchanged it is the true best and is taken,
    otherwise it goes back with its new gain, or out once it has none.
    """
    heap = [
        _Offer(mask.bit_count(), weight or 1, need.bit_count(), i)
        for i, (mask, weight, need) in enumerate(zip(masks, weights, needs))
    ]
    heapify(heap)
    remaining = full
    chosen: list[int] = []
    while remaining:
        top = heap[0]
        gain = (masks[top.index] & remaining).bit_count()
        if gain == top.gain:
            heappop(heap)
            chosen.append(top.index)
            remaining &= ~masks[top.index]
        elif gain:
            top.gain = gain
            heapreplace(heap, top)
        else:
            heappop(heap)
    return chosen


def _exact_cover(
    full: int, masks: list[int], weights: list[int], needs: list[int], incumbent: list[int]
) -> list[int]:
    """Branch and bound over the candidate pool, seeded with the greedy pick.

    Branching is on the open target with the fewest usable candidates
    (the lowest such bit on ties); the i-th option is explored with all
    earlier options banned, which partitions the search space. Unbounded,
    it would reach every cover that has no free-riding member exactly
    once, and some covers with a member made redundant later.

    The bound is Beasley's price bound: each open target is charged the
    least ``weight / gain`` over its usable options, where ``gain``
    counts the open targets an option covers. Weights are never
    negative, so any cover of the open targets weighs at least the sum
    of these charges. The charges are integers scaled by lcm(1, ...,
    number of targets), which every gain divides, so the bound is exact.
    A branch is cut when its weight plus the bound exceeds the best
    key's weight, or equals it while the branch's unmet prerequisites,
    which only grow down a branch, already outnumber the best key's.

    So the search visits every cover whose ``_selection_key`` can still
    beat the best found so far, not every irredundant cover, and returns
    the least key among those and the incumbent: the pick the unbounded
    search would make.
    """
    target_bits = list(_bits(full))
    suppliers = [[i for i, mask in enumerate(masks) if mask & bit] for bit in target_bits]
    scale = lcm(*range(1, len(target_bits) + 1))
    best_key = _selection_key(incumbent, weights, needs)

    def search(remaining: int, allowed: int, chosen: list[int], weight: int, need: int) -> None:
        nonlocal best_key
        excess = (weight - best_key[0]) * scale  # becomes (weight + bound - best) * scale
        branch_options: list[int] | None = None
        for bit, options in zip(target_bits, suppliers):
            if not remaining & bit:
                continue
            # never empty: minimal_cover refused unsupplied targets, and a sibling bans
            # only options of the branch bit, which has the fewest of any open bit
            options = [i for i in options if allowed >> i & 1]
            excess += min(weights[i] * scale // (masks[i] & remaining).bit_count() for i in options)
            if branch_options is None or len(options) < len(branch_options):
                branch_options = options
        if excess > 0 or excess == 0 and need.bit_count() > best_key[1]:
            return
        if branch_options is None:  # a cover that can still win
            best_key = min(best_key, _selection_key(chosen, weights, needs))
            return
        for i in branch_options:
            allowed &= ~(1 << i)  # bans i here and in every later sibling
            search(remaining & ~masks[i], allowed, chosen + [i], weight + weights[i], need | needs[i])

    search(full, (1 << len(masks)) - 1, [], 0, 0)
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
    on quanta not yet selected. The loop ends when a residual comes up
    empty. A target no sequence of the scope's quanta reaches from the
    known set ends in ``Infeasible`` at stage 0. Closure is monotone in the
    set of quanta, so a selection whose closure holds the targets proves
    them reachable; only when that proof fails (a round raised, or the
    selected quanta form a cycle) does the closure run on the targets'
    backward cone.
    """
    if not profile.target:
        raise ValueError("planning query requires a non-empty target set")
    candidates = dictionary.scoped(scope)
    goal = wanted = profile.target - profile.known
    if not wanted:
        return SolutionTrace(())

    by_id = dictionary.by_id
    suppliers = candidates.suppliers
    acquired: frozenset[str] = frozenset()
    selected_ids: set[str] = set()
    iterations: list[IterationRecord] = []
    index = 0
    try:
        while wanted:
            index += 1
            # the round's pool: every quantum delivering a wanted KF, in scope
            # order, less those whose id is already selected
            offered = {i for kf in wanted for i in suppliers.get(kf, ())}
            pool = [candidates[i] for i in sorted(offered) if candidates[i].id not in selected_ids]
            held = profile.known | acquired if config.reuse_acquired_objectives else profile.known
            try:
                picked = minimal_cover(wanted, pool, held, config)
            except NoCover as exc:
                raise Infeasible(index, exc.uncovered) from exc
            prereq_union = frozenset().union(*(by_id[lq_id].prerequisites for lq_id in picked))
            # a unit never counts toward its own prerequisites
            acquired = acquired.union(*(by_id[i].objectives - by_id[i].prerequisites for i in picked))
            residual = prereq_union - profile.known
            if config.reuse_acquired_objectives:
                residual -= acquired
            iterations.append(IterationRecord(index, frozenset(picked), prereq_union, residual))
            selected_ids |= picked
            wanted = residual
    except LQPlanError:
        if unreachable := _unreachable(candidates, goal, profile.known):
            raise Infeasible(0, unreachable) from None
        raise
    if not goal <= closure_over(profile.known, [by_id[lq_id] for lq_id in selected_ids]):
        if unreachable := _unreachable(candidates, goal, profile.known):
            raise Infeasible(0, unreachable)
    return SolutionTrace(tuple(iterations))


def prerequisite_gap(
    profile: LearnerProfile, dictionary: LQDictionary, lq_id: str
) -> GapReport:
    """What stands between this learner and one specific quantum."""
    quantum = dictionary.quantum(lq_id)
    missing = quantum.prerequisites - profile.known
    satisfiable = not _unreachable(dictionary.scoped(), missing, profile.known)
    return GapReport(lq_id=lq_id, missing=missing, satisfiable=satisfiable)
