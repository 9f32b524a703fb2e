"""Independent reference implementations used to check the real ones.

Everything here favors obviousness over speed: closure by repeated full
rescans, covers by exhaustive subset enumeration. None of it imports the
algorithms under test beyond the plain data types.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence

from lqplan.model import KFSet, LearnerProfile, LearnerQuantum, MinimalityMetric


def closure_by_rescan(known: Iterable[str], quanta: Iterable[LearnerQuantum]) -> KFSet:
    """Fixpoint by rescanning every quantum until a full pass adds nothing."""
    quanta = list(quanta)
    held = set(known)
    changed = True
    while changed:
        changed = False
        for q in quanta:
            if q.prerequisites <= held and not q.objectives <= held:
                held |= q.objectives
                changed = True
    return frozenset(held)


def relevant_pool(targets: KFSet, candidates: Iterable[LearnerQuantum]) -> list[LearnerQuantum]:
    return sorted((q for q in candidates if q.objectives & targets), key=lambda q: q.id)


def iter_covers(targets: KFSet, pool: Sequence[LearnerQuantum]):
    """Yield every subset of the pool whose objectives cover the targets."""
    for size in range(len(pool) + 1):
        for subset in combinations(pool, size):
            covered: set[str] = set()
            for q in subset:
                covered |= q.objectives
            if targets <= covered:
                yield subset


def min_cover_weight(
    targets: KFSet, candidates: Iterable[LearnerQuantum], metric: MinimalityMetric
) -> Optional[int]:
    """The lightest achievable cover weight, or None if nothing covers."""
    best: Optional[int] = None
    for subset in iter_covers(targets, relevant_pool(targets, candidates)):
        weight = sum(metric.weight(q) for q in subset)
        if best is None or weight < best:
            best = weight
    return best


def is_irredundant(subset: Sequence[LearnerQuantum], targets: KFSet) -> bool:
    """True if no member of the cover can be dropped with the rest still covering."""
    return all(
        not targets <= frozenset().union(*(other.objectives for other in subset if other is not q))
        for q in subset
    )


def selection_key(subset: Sequence[LearnerQuantum], known: KFSet, metric: MinimalityMetric):
    unmet: set[str] = set()
    for q in subset:
        unmet |= q.prerequisites - known
    return (
        sum(metric.weight(q) for q in subset),
        len(unmet),
        tuple(sorted(q.id for q in subset)),
    )


def best_reachable_subset(
    profile: LearnerProfile,
    quanta: Iterable[LearnerQuantum],
    metric: MinimalityMetric,
) -> Optional[frozenset[str]]:
    """Lightest subset whose closure from the known set reaches the target."""
    quanta = sorted(quanta, key=lambda q: q.id)
    best_key = None
    best: Optional[frozenset[str]] = None
    for size in range(len(quanta) + 1):
        for subset in combinations(quanta, size):
            if not profile.target <= closure_by_rescan(profile.known, subset):
                continue
            key = selection_key(subset, profile.known, metric)
            if best_key is None or key < best_key:
                best_key = key
                best = frozenset(q.id for q in subset)
    return best


def greedy_cover(
    targets: KFSet, candidates: Iterable[LearnerQuantum], known: KFSet, metric: MinimalityMetric
) -> frozenset[str]:
    """Chvátal's greedy by plain set scans over the relevant pool.

    Each pick takes the most uncovered targets per unit of weight (a zero
    weight counts as 1), then the fewest prerequisites outside ``known``,
    then the smallest id. The targets must be coverable.
    """
    pool = relevant_pool(targets, candidates)
    remaining = set(targets)
    chosen: set[str] = set()
    while remaining:
        best = None
        for q in pool:
            if q.id in chosen:
                continue
            gain = len(q.objectives & remaining)
            if gain == 0:
                continue
            weight = metric.weight(q) or 1
            unmet = len(q.prerequisites - known)
            if best is None:
                better = True
            elif gain * best_weight != best_gain * weight:
                better = gain * best_weight > best_gain * weight
            elif unmet != best_unmet:
                better = unmet < best_unmet
            else:
                better = q.id < best.id
            if better:
                best, best_gain, best_weight, best_unmet = q, gain, weight, unmet
        chosen.add(best.id)
        remaining -= best.objectives
    return frozenset(chosen)
