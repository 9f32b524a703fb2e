"""The one-pass load against the two-pass oracle.

``load_dictionary`` accepts a valid file in bulk, checking each distinct
token once, walks a faulty one entry by entry to name its first fault,
and then runs only the rules that relate entries. ``oracles.load_two_pass``
parses and then runs every validation rule, as the load used to. On any
file both must raise the same exception with the same message, or return
equal dictionaries, and ``validate_dictionary`` must list the same
findings as the oracle's validator, both on the parsed file and on the
same content built in code, where bad tokens get past the parser.
"""

from __future__ import annotations

import json
import sys
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqplan import model
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import (
    LearnerQuantum,
    LQCloud,
    LQDictionary,
    LQPlanError,
    load_dictionary,
    parse_dictionary,
    serialize_dictionary,
    validate_dictionary,
)
from oracles import load_two_pass, parse_two_pass, validate_two_pass
from test_cli_fuzz import mutated_files, rarely

IDS = ("A", "B", "C", "D", "A\n", "a b", "A\udc00")
GOOD_KFS = ("k1", "k2", "k3", "k4", "k5")
BAD_KFS = ("k 1", "k1\n", "", " k2", "\tk3", "k\ud800", 7, 10, None, True, ["k1"], {"k": 1})
# the longest integer the parser accepts (0 where the interpreter sets no digit limit)
LONGEST = 10 ** getattr(sys, "get_int_max_str_digits", int)() - 1


@st.composite
def repeated_bad_kf_files(draw) -> bytes:
    """Units that may share up to two bad KFs, with ids that may repeat,
    objectives that may be empty and clouds that may name undefined ids."""
    pool = GOOD_KFS + tuple(draw(st.lists(st.sampled_from(BAD_KFS), max_size=2, unique_by=repr)))
    ids = st.sampled_from(IDS if rarely(draw) else IDS[:4])
    fewest_objectives = 0 if rarely(draw) else 1
    quanta = [
        {
            "id": lq_id,
            "title": "t",
            "prerequisites": draw(st.lists(st.sampled_from(pool), max_size=3)),
            "objectives": draw(st.lists(st.sampled_from(pool), min_size=fewest_objectives, max_size=3)),
        }
        for lq_id in draw(st.lists(ids, min_size=1, max_size=5, unique=draw(st.booleans())))
    ]
    doc: dict = {"subject": "s", "quanta": quanta}
    if draw(st.booleans()):
        members = st.lists(st.sampled_from(IDS[:4] + ("Z", "Y")), max_size=4)
        cloud_names = ("c1", "c2", "c 3") if rarely(draw) else ("c1", "c2")
        names = draw(st.lists(st.sampled_from(cloud_names), unique=True))
        doc["clouds"] = {name: draw(members) for name in names}
    return json.dumps(doc).encode("utf-8")


def outcome(load, data: bytes):
    try:
        dictionary = load(data)
    except LQPlanError as exc:
        return type(exc), str(exc)
    return dictionary.subject, dictionary.quanta, dictionary.clouds


class CountingPattern:
    """Stands in for the token pattern and counts its matches."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.matches = 0

    def fullmatch(self, text):
        self.matches += 1
        return self.pattern.fullmatch(text)


def token_bound(dictionary) -> int:
    """Ids, plus distinct KFs, plus cloud names and members."""
    kfs = set().union(*(q.prerequisites | q.objectives for q in dictionary.quanta))
    return len(dictionary.quanta) + len(kfs) + sum(1 + len(c.member_ids) for c in dictionary.clouds)


def built_in_code(data: bytes) -> LQDictionary | None:
    """The file's dictionary built without the parser, so that bad tokens
    and counts reach the validator; None if it cannot be built."""
    try:
        doc = json.loads(data)
        dictionary = LQDictionary(
            doc["subject"],
            tuple(
                LearnerQuantum(
                    q["id"], q["title"], q["prerequisites"], q["objectives"],
                    q.get("duration_minutes", 0), q.get("cost", 0),
                )
                for q in doc["quanta"]
            ),
            tuple(LQCloud(name, members) for name, members in doc.get("clouds", {}).items()),
        )
    except (ValueError, TypeError, KeyError, AttributeError):
        return None
    return dictionary


def check_against_oracle(data: bytes) -> None:
    counter = CountingPattern(model._TOKEN_RE)
    with mock.patch.object(model, "_TOKEN_RE", counter):
        actual = outcome(load_dictionary, data)
    assert actual == outcome(load_two_pass, data)
    if not isinstance(actual[0], type):
        assert counter.matches <= token_bound(load_dictionary(data))
    pairs = []
    try:
        pairs.append((parse_dictionary(data), parse_two_pass(data)))
    except LQPlanError:
        pass
    built = built_in_code(data)
    if built is not None:
        pairs.append((built, built))
    for dictionary, oracle_dictionary in pairs:
        for strict in (False, True):
            expected = validate_two_pass(oracle_dictionary, strict=strict)
            assert validate_dictionary(dictionary, strict=strict) == expected


def after_valid(*entries: object, **doc: object) -> bytes:
    """A file of two valid units, U0 and U1, followed by ``entries`` and
    with the top-level keys ``doc``, for faults that a column check must
    find past the first rows."""
    valid = [{"id": f"U{i}", "title": "t", "prerequisites": [], "objectives": ["k1"]} for i in range(2)]
    return json.dumps({"subject": "s", "quanta": valid + list(entries), **doc}).encode("utf-8")


def unit(**fields: object) -> dict:
    return {"id": "Z", "title": "t", "prerequisites": ["k1"], "objectives": ["k2"], **fields}


@given(data=st.one_of(mutated_files(), repeated_bad_kf_files()))
# bad KFs that sort among themselves but not with the unit's good ones
@example(data=b'{"subject": "s", "quanta": [{"id": "A", "title": "t", "prerequisites": [10, "k1"], '
             b'"objectives": [7]}]}')
# faults the bulk accept must not let through: tokens joined by spaces
# before one match would take "k 1"; an unhashable KF cannot join a set
@example(data=after_valid(unit(objectives=["k2", "k 1"])))
@example(data=after_valid(unit(prerequisites=[["k1"]])))
@example(data=after_valid(unit(duration_minutes=True)))
@example(data=after_valid(unit(cost=1.0)))
@example(data=after_valid(unit(cost=-1)))
@example(data=after_valid(unit(title="x\udc00")))
@example(data=after_valid(unit(title=None)))
@example(data=after_valid(7))
@example(data=after_valid({"id": "Z", "prerequisites": [], "objectives": ["k2"]}))
@example(data=after_valid(unit(level=1)))
@example(data=b'{"subject": "s", "quanta": []}')
@example(data=b'{"subject": "s"}')
# cloud faults after valid units, which the same bulk pass must refuse
@example(data=after_valid(clouds={"c1": [["U0"]]}))
@example(data=after_valid(clouds={"c1": ["U0", "a b"]}))
@example(data=after_valid(clouds={"c1": ["U0", 7]}))
@example(data=after_valid(clouds={"c1": "U0"}))
@example(data=after_valid(clouds=[]))
@example(data=after_valid(clouds={"c1": ["U0"], "c 3": ["U1"]}))
# a repeated member is matched once, within the bound
@example(data=after_valid(clouds={"c1": ["U0", "U0"]}))
# every value parses, but both columns sum past the digit limit; built in
# code, a float cost joins no total
@example(data=after_valid(*(unit(id=lq_id, duration_minutes=LONGEST, cost=LONGEST) for lq_id in "YZ")))
@example(data=after_valid(unit(cost=LONGEST), unit(id="Y", cost=1.0)))
@settings(max_examples=300, deadline=None)
def test_load_and_validate_match_two_pass_oracle(data):
    check_against_oracle(data)


def test_generated_dictionaries_match_oracle():
    for flavor, seed, units, kfs in ((Flavor.FEASIBLE, 2026, 2000, 1600), (Flavor.ADVERSARIAL, 13, 60, 50)):
        dictionary, _ = generate(GenSpec(seed=seed, lq_count=units, kf_count=kfs, flavor=flavor))
        check_against_oracle(serialize_dictionary(dictionary))
