from __future__ import annotations

import pytest
from hypothesis import strategies as st

from lqplan.model import (
    LearnerProfile,
    LearnerQuantum,
    LQDictionary,
    serialize_dictionary,
    serialize_profile,
)

KF_POOL = tuple(f"k{i}" for i in range(1, 8))


def make_d1() -> LQDictionary:
    """Three quanta over four KFs; C covers the target in one hop."""
    return LQDictionary(
        subject="d1",
        quanta=(
            LearnerQuantum("A", "Groundwork", {"k1"}, {"k2"}, duration_minutes=30, cost=5),
            LearnerQuantum("B", "Middle steps", {"k2"}, {"k3"}, duration_minutes=45, cost=7),
            LearnerQuantum("C", "Direct route", {"k1"}, {"k3", "k4"}, duration_minutes=60, cost=9),
        ),
        clouds=(),
    )


def make_d1_prime() -> LQDictionary:
    """D1 without C, forcing the two-step A-then-B resolution."""
    return LQDictionary(subject="d1-prime", quanta=make_d1().quanta[:2])


def make_xy_pair() -> LQDictionary:
    """Two quanta that each require what the other delivers."""
    return LQDictionary(
        subject="xy",
        quanta=(
            LearnerQuantum("X", "First half", {"b"}, {"a"}),
            LearnerQuantum("Y", "Second half", {"a"}, {"b"}),
        ),
    )


def make_cycle_trap() -> tuple[LQDictionary, LearnerProfile]:
    """A dictionary where resolution succeeds but scheduling cannot.

    Z keeps the closure check happy (everything is reachable through it),
    while the covering step prefers the X/Y pair because each one also
    delivers a target. The resulting digraph has the 2-cycle X/Y.
    """
    dictionary = LQDictionary(
        subject="trap",
        quanta=(
            LearnerQuantum("X", "Tangled one", {"a"}, {"b", "t1"}),
            LearnerQuantum("Y", "Tangled two", {"b"}, {"a", "t2"}),
            LearnerQuantum("Z", "Untangler", frozenset(), {"a"}),
        ),
    )
    profile = LearnerProfile(known=frozenset(), target=frozenset({"t1", "t2"}))
    return dictionary, profile


def make_dead_end() -> LQDictionary:
    """A plan exists ({B, C}) that round-by-round resolution misses.

    Round 1 prefers A (no unmet prerequisite beats one), and round 2 then
    finds no supplier of A's prerequisite ``x``.
    """
    return LQDictionary(
        subject="dead-end",
        quanta=(
            LearnerQuantum("A", "Dead end", {"x"}, {"t"}),
            LearnerQuantum("B", "Detour", {"y"}, {"t"}),
            LearnerQuantum("C", "Supply", frozenset(), {"y"}),
        ),
    )


@pytest.fixture
def d1() -> LQDictionary:
    return make_d1()


@pytest.fixture
def d1_prime() -> LQDictionary:
    return make_d1_prime()


@pytest.fixture
def xy_pair() -> LQDictionary:
    return make_xy_pair()


@pytest.fixture
def cycle_trap() -> tuple[LQDictionary, LearnerProfile]:
    return make_cycle_trap()


@pytest.fixture
def write_dict(tmp_path):
    def _write(dictionary: LQDictionary, name: str = "dict.json"):
        path = tmp_path / name
        path.write_bytes(serialize_dictionary(dictionary))
        return path

    return _write


@pytest.fixture
def write_profile(tmp_path):
    def _write(profile: LearnerProfile, name: str = "profile.json"):
        path = tmp_path / name
        path.write_bytes(serialize_profile(profile))
        return path

    return _write


@st.composite
def quanta_lists(draw, max_quanta: int = 6) -> tuple[LearnerQuantum, ...]:
    count = draw(st.integers(min_value=1, max_value=max_quanta))
    quanta = []
    for i in range(count):
        objectives = draw(
            st.frozensets(st.sampled_from(KF_POOL), min_size=1, max_size=3)
        )
        outside = [kf for kf in KF_POOL if kf not in objectives]
        prerequisites = draw(st.frozensets(st.sampled_from(outside), max_size=3))
        quanta.append(
            LearnerQuantum(
                id=f"q{i}",
                title=f"unit {i}",
                prerequisites=prerequisites,
                objectives=objectives,
                duration_minutes=draw(st.integers(min_value=0, max_value=90)),
                cost=draw(st.integers(min_value=0, max_value=20)),
            )
        )
    return tuple(quanta)


@st.composite
def small_dictionaries(draw, max_quanta: int = 6) -> LQDictionary:
    return LQDictionary(subject="prop", quanta=draw(quanta_lists(max_quanta)))


@st.composite
def profiles(draw) -> LearnerProfile:
    known = draw(st.frozensets(st.sampled_from(KF_POOL), max_size=4))
    target = draw(st.frozensets(st.sampled_from(KF_POOL), min_size=1, max_size=3))
    return LearnerProfile(known=known, target=target)


METRIC_NAMES = ("count", "duration", "cost")
