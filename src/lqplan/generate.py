"""Deterministic random instance generator.

Produces dictionary/profile pairs for tests and benchmarks. Feasible
instances are built by layering: a quantum's prerequisites are drawn only
from KFs already attainable when it is created, so reachability of the
targets holds by construction instead of by rejection sampling. The
random source is Python's Mersenne Twister seeded from the request; the
serialized files, not the generator stream, are the interchange format.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .model import LQCloud, LQDictionary, LQPlanError, LearnerProfile, LearnerQuantum

_TOPICS = (
    "foundations",
    "notation",
    "methods",
    "practice drills",
    "worked examples",
    "survey",
    "applications",
    "review",
    "lab session",
    "case studies",
)

_SEED_MAX = 2**64 - 1
# Generation time grows linearly with the unit count; the cap equals the
# largest instance the scale tests plan for (100k units).
_COUNT_MAX = 100_000
_MAX_PREREQS = 3  # the most KFs a generated regular unit requires
_MAX_OBJECTIVES = 2  # the most KFs a generated regular unit delivers


class SpecInvalid(LQPlanError):
    """The generation request violates a GenSpec invariant."""


class Flavor(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class GenSpec:
    seed: int
    lq_count: int
    kf_count: int
    flavor: Flavor = Flavor.FEASIBLE


def _check(spec: GenSpec) -> None:
    for name in ("seed", "lq_count", "kf_count"):
        if not isinstance(value := getattr(spec, name), int) or isinstance(value, bool):
            raise SpecInvalid(f"{name} must be an integer, got {value!r}")
    if not 0 <= spec.seed <= _SEED_MAX:
        raise SpecInvalid(f"seed must be a 64-bit unsigned integer, got {spec.seed!r}")
    if spec.lq_count < 1:
        raise SpecInvalid(f"lq_count must be at least 1, got {spec.lq_count}")
    if spec.kf_count < 2:
        raise SpecInvalid(f"kf_count must be at least 2, got {spec.kf_count}")
    if spec.lq_count > _COUNT_MAX:
        raise SpecInvalid(f"lq_count must be at most {_COUNT_MAX}, got {spec.lq_count}")
    if spec.kf_count > _COUNT_MAX:
        raise SpecInvalid(f"kf_count must be at most {_COUNT_MAX}, got {spec.kf_count}")
    if not isinstance(spec.flavor, Flavor):
        raise SpecInvalid(f"flavor must be a Flavor, got {spec.flavor!r}")


def _unit(n: int, width: int, topic: str, prerequisites, objectives, duration: int, cost: int) -> LearnerQuantum:
    """Unit number ``n``, its id zero-padded to ``width`` digits. Callers draw the topic, duration
    and cost as arguments, which Python evaluates left to right: that order fixes every seed's output."""
    return LearnerQuantum(f"q{str(n).zfill(width)}", f"Unit {n}: {topic}", prerequisites, objectives, duration, cost)


def generate(spec: GenSpec) -> tuple[LQDictionary, LearnerProfile]:
    """Generate one dictionary/profile pair, a pure function of the request."""
    _check(spec)
    rng = random.Random(spec.seed)
    kf_width = len(str(spec.kf_count))
    lq_width = len(str(spec.lq_count))
    kfs = [f"k{str(i).zfill(kf_width)}" for i in range(1, spec.kf_count + 1)]
    rng.shuffle(kfs)

    orphan: str | None = None
    if spec.flavor is Flavor.INFEASIBLE:
        orphan = kfs.pop()

    trap_kfs: list[str] = []
    if spec.flavor is Flavor.ADVERSARIAL and len(kfs) >= 5 and spec.lq_count >= 3:
        # Reserve two KFs for a mutual-dependency pair of units, one per KF,
        # appended at the end; smaller requests degrade to plain feasible generation.
        trap_kfs = [kfs.pop(), kfs.pop()]

    known_count = rng.randint(1, max(1, len(kfs) // 4))
    known = kfs[:known_count]
    unproduced = deque(kfs[known_count:])
    available = list(known)
    produced: list[str] = []

    quanta: list[LearnerQuantum] = []
    regular_count = spec.lq_count - len(trap_kfs)
    for i in range(1, regular_count + 1):
        want = rng.randint(1, _MAX_OBJECTIVES)
        fresh = [unproduced.popleft() for _ in range(min(want, len(unproduced)))]
        if fresh:
            objectives, prereq_pool = fresh, available
        else:
            # Re-teaching unit: its objectives were produced earlier, so
            # drawing prerequisites from anything produced later would put
            # a second supplier above its consumers and could close a
            # dependency cycle. Prerequisites from the known set keep the
            # whole dictionary's digraph acyclic. Produced KFs are never
            # known, so only objectives drawn from the known set (before
            # anything is produced) need filtering out of the pool.
            refresh_pool = produced if produced else available
            objectives = rng.sample(refresh_pool, min(want, len(refresh_pool)))
            prereq_pool = known if produced else [kf for kf in known if kf not in objectives]
        depth = rng.randint(0, min(_MAX_PREREQS, len(prereq_pool)))
        prerequisites = rng.sample(prereq_pool, depth)
        quanta.append(_unit(i, lq_width, rng.choice(_TOPICS), prerequisites, objectives,
                            rng.randrange(10, 125, 5), rng.randint(0, 40)))
        # fresh objectives were never available; re-taught ones always were
        available += fresh
        produced += fresh

    if trap_kfs:
        # Each trap unit requires exactly what the other delivers, plus a
        # tempting real objective, so a cover can be lured into the pair.
        bait = produced if produced else available
        first, second = trap_kfs
        for offset, (needs, makes) in enumerate(((first, second), (second, first))):
            # drawn before the title: the order of draws fixes every seed's output
            objectives = [makes, rng.choice(bait)]
            quanta.append(_unit(regular_count + 1 + offset, lq_width, rng.choice(_TOPICS), [needs], objectives, 0, 0))

    clouds: tuple[LQCloud, ...] = ()
    if spec.lq_count >= 4 and rng.random() < 0.3:
        ids = [q.id for q in quanta]
        size = rng.randint(2, min(5, len(ids)))
        clouds = (LQCloud("focus", frozenset(rng.sample(ids, size))),)

    target_pool = sorted(produced)
    if target_pool:
        target = rng.sample(target_pool, rng.randint(1, min(3, len(target_pool))))
    else:
        target = [rng.choice(known)]
    if orphan is not None:
        target.append(orphan)

    dictionary = LQDictionary(
        subject=f"generated-{spec.seed}",
        quanta=tuple(quanta),
        clouds=clouds,
    )
    profile = LearnerProfile(known=frozenset(known), target=frozenset(target))
    return dictionary, profile
