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
from typing import Iterable

from .model import (
    KFSet,
    LQDictionary,
    LQPlanError,
    LearnerProfile,
    LearnerQuantum,
    MinimalityMetric,
    closure_over,
    total_weight,  # re-exported: callers import it from here too
)

GLOBAL_SEARCH_BOUND = 20
MAX_EXACT_CANDIDATES = 25


class CoverMode(Enum):
    EXACT = "exact"
    GREEDY = "greedy"


@dataclass(frozen=True)
class CoverConfig:
    """Knobs for one planning query.

    ``reuse_acquired_objectives`` controls whether KFs delivered by
    already-selected quanta count as held when computing later residuals;
    switching it off follows the strictest reading of backward chaining,
    at the price of occasionally redundant picks or dead ends. Exact
    mode refuses a pool of more than ``MAX_EXACT_CANDIDATES`` relevant
    candidates; greedy mode has no cap.
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
    """Exact mode was asked to search a pool beyond its configured cap."""

    def __init__(self, count: int, bound: int):
        self.count = count
        self.bound = bound
        super().__init__(
            f"exact cover over {count} relevant candidates exceeds the cap of {bound}; "
            "retry in greedy mode"
        )


class TooLarge(LQPlanError):
    """Exhaustive whole-plan search was asked for too many candidates."""

    def __init__(self, count: int, bound: int):
        self.count = count
        self.bound = bound
        super().__init__(f"exhaustive plan search over {count} candidates exceeds the cap of {bound}")


class Infeasible(LQPlanError):
    """The dictionary cannot take this learner to these targets.

    ``stage`` 0 means the up-front reachability check failed; stage g >= 1
    means round g of backward resolution found no cover for its residual.
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
    coverage is never worse under the key's first two components).

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
    if exact and len(pool) > MAX_EXACT_CANDIDATES:
        raise ExactTooLarge(len(pool), MAX_EXACT_CANDIDATES)

    full, masks, weights, needs = _encode(targets, pool, known, config.metric)
    picked = _greedy_cover(full, masks, weights, needs)
    if exact:
        picked = _exact_cover(full, masks, weights, needs, picked)
    return frozenset(pool[i].id for i in picked)


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

    Branching is on the uncovered target with the fewest usable
    candidates; the i-th option is explored with all earlier options
    banned, which partitions the search space and visits every cover that
    has no free-riding member exactly once. A branch is cut only when its
    weight lower bound (the dearest of the uncovered targets' cheapest
    options) strictly exceeds the incumbent, so equal-weight covers
    survive for the tie-break comparison at the leaf, where covers are
    ranked by ``_selection_key``.
    """
    target_bits = [1 << b for b in range(full.bit_length()) if full >> b & 1]
    suppliers = [[i for i, mask in enumerate(masks) if mask & bit] for bit in target_bits]

    best_key = _selection_key(incumbent, weights, needs)

    def search(covered: int, allowed: int, chosen: list[int], weight: int) -> None:
        nonlocal best_key
        if covered == full:
            best_key = min(best_key, _selection_key(chosen, weights, needs))
            return
        extra = 0
        branch_options: list[int] | None = None
        for bit, options in zip(target_bits, suppliers):
            if covered & bit:
                continue
            # never empty: minimal_cover refused any target without a
            # supplier, and a sibling bans only options of the branch bit,
            # which has the fewest options of any open bit
            options = [i for i in options if allowed >> i & 1]
            extra = max(extra, min(weights[i] for i in options))
            if branch_options is None or len(options) < len(branch_options):
                branch_options = options
        if weight + extra > best_key[0]:
            return
        for i in branch_options:
            allowed &= ~(1 << i)  # bans i here and in every later sibling
            search(covered | masks[i], allowed, chosen + [i], weight + weights[i])

    search(0, (1 << len(masks)) - 1, [], 0)
    return list(best_key[2])


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
    empty. An up-front reachability check (can the targets be reached from
    the known set at all, taking every quantum in the scope) turns
    obviously hopeless queries into ``Infeasible`` at stage 0 rather than
    letting them fail mid-resolution with a less useful message. It runs
    the closure on the targets' backward cone only, which reaches the same
    targets as the whole scope does.
    """
    if not profile.target:
        raise ValueError("planning query requires a non-empty target set")
    candidates = dictionary.scoped(scope)
    wanted = profile.target - profile.known
    if not wanted:
        return SolutionTrace(())
    attainable = closure_over(profile.known, candidates.cone(wanted, profile.known))
    if not wanted <= attainable:
        raise Infeasible(0, wanted - attainable)

    by_id = dictionary.by_id
    suppliers = candidates.suppliers
    acquired: frozenset[str] = frozenset()
    selected_ids: set[str] = set()
    iterations: list[IterationRecord] = []
    index = 0
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
        acquired = acquired.union(*(by_id[lq_id].objectives for lq_id in picked))
        residual = prereq_union - profile.known
        if config.reuse_acquired_objectives:
            residual -= acquired
        iterations.append(IterationRecord(index, frozenset(picked), prereq_union, residual))
        selected_ids |= picked
        wanted = residual
    return SolutionTrace(tuple(iterations))


def global_optimal_plan(
    profile: LearnerProfile,
    dictionary: LQDictionary,
    scope: str | None = None,
    metric: MinimalityMetric = MinimalityMetric.COUNT,
) -> frozenset[str]:
    """The genuinely lightest subset of quanta that reaches the targets.

    Exhaustive subset enumeration, so only usable on small scopes (at
    most ``GLOBAL_SEARCH_BOUND`` quanta). Exists as a comparison point:
    round-by-round resolution minimises each round in isolation, which
    this function does not, and the gap between the two is observable.

    Subsets are ranked by ``_selection_key``; only a would-be best is
    checked for reachability. The B&B cannot replace the enumeration: it
    visits only irredundant covers of the targets, and the optimum may
    hold units that only supply prerequisites, or zero-weight free riders.
    """
    candidates = sorted(dictionary.scoped(scope), key=lambda q: q.id)
    if len(candidates) > GLOBAL_SEARCH_BOUND:
        raise TooLarge(len(candidates), GLOBAL_SEARCH_BOUND)
    wanted = profile.target - profile.known
    if not wanted:
        return frozenset()

    full, masks, weights, needs = _encode(wanted, candidates, profile.known, metric)
    best_key: tuple[int, int, tuple[int, ...]] | None = None
    n = len(candidates)
    for subset in range(1 << n):
        chosen = [i for i in range(n) if subset >> i & 1]
        covered = 0
        for i in chosen:
            covered |= masks[i]
        if covered != full:
            continue
        key = _selection_key(chosen, weights, needs)
        if best_key is not None and key >= best_key:
            continue
        if profile.target <= closure_over(profile.known, [candidates[i] for i in chosen]):
            best_key = key
    if best_key is None:
        raise Infeasible(0, profile.target - closure_over(profile.known, candidates))
    return frozenset(candidates[i].id for i in best_key[2])


def prerequisite_gap(
    profile: LearnerProfile, dictionary: LQDictionary, lq_id: str
) -> GapReport:
    """What stands between this learner and one specific quantum."""
    quantum = dictionary.quantum(lq_id)
    missing = quantum.prerequisites - profile.known
    cone = dictionary.scoped().cone(missing, profile.known)
    satisfiable = missing <= closure_over(profile.known, cone)
    return GapReport(lq_id=lq_id, missing=missing, satisfiable=satisfiable)
