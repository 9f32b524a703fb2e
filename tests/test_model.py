from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import KF_POOL, make_d1_prime, profiles, quanta_lists, small_dictionaries
from lqplan.model import (
    LearnerProfile,
    LearnerQuantum,
    LQCloud,
    LQDictionary,
    ParseError,
    SchemaError,
    UnknownCloud,
    UnknownLQ,
    closure_over,
    load_dictionary,
    parse_dictionary,
    parse_profile,
    serialize_dictionary,
    serialize_profile,
    validate_dictionary,
)
from oracles import closure_by_rescan

D1_JSON = b"""
{
  "subject": "discrete-basics",
  "clouds": {"core": ["A", "B"]},
  "quanta": [
    {"id": "A", "title": "Groundwork", "prerequisites": ["k1"], "objectives": ["k2"],
     "duration_minutes": 30, "cost": 5},
    {"id": "B", "title": "Middle steps", "prerequisites": ["k2"], "objectives": ["k3"],
     "duration_minutes": 45, "cost": 7},
    {"id": "C", "title": "Direct route", "prerequisites": ["k1"], "objectives": ["k3", "k4"]}
  ]
}
"""


def test_load_dictionary_happy_path():
    d = load_dictionary(D1_JSON)
    assert d.subject == "discrete-basics"
    assert [q.id for q in d.quanta] == ["A", "B", "C"]
    assert d.quantum("B").prerequisites == frozenset({"k2"})
    assert d.quantum("C").objectives == frozenset({"k3", "k4"})
    # omitted duration/cost default to zero
    assert d.quantum("C").duration_minutes == 0
    assert d.quantum("C").cost == 0
    assert d.cloud("core").member_ids == frozenset({"A", "B"})


def test_load_accepts_str_and_stream(tmp_path):
    from io import BytesIO

    a = load_dictionary(D1_JSON.decode("utf-8"))
    b = load_dictionary(BytesIO(D1_JSON))
    assert a == b
    with pytest.raises(TypeError, match="^cannot read from int$"):
        load_dictionary(123)


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        load_dictionary(b"{not json")
    with pytest.raises(ParseError):
        load_dictionary(b"\xff\xfe\x00broken")


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda doc: doc.update(extra=1), "extra"),
        (lambda doc: doc["quanta"][0].update(level=3), "level"),
        (lambda doc: doc["quanta"][0].update(duration_minutes=-5), "duration_minutes"),
        (lambda doc: doc["quanta"][0].update(duration_minutes="long"), "duration_minutes"),
        (lambda doc: doc["quanta"][0].update(cost=True), "cost"),
        (lambda doc: doc["quanta"][0].update(id="has space"), "id"),
        (lambda doc: doc["quanta"][0].update(prerequisites=["ok", "not ok"]), "prerequisites"),
        (lambda doc: doc["quanta"][0].update(prerequisites="k1"), "prerequisites"),
        (lambda doc: doc["quanta"][0].pop("title"), "title"),
        (lambda doc: doc["quanta"][0].pop("objectives"), "objectives"),
        (lambda doc: doc.update(clouds=[]), "clouds"),
        (lambda doc: doc["clouds"].update(core="A"), "$.clouds.core: expected a list"),
        (lambda doc: doc.update(quanta={}), "quanta"),
        (lambda doc: doc.pop("subject"), "subject"),
    ],
)
def test_structural_schema_errors(mutate, needle):
    doc = json.loads(D1_JSON)
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_dictionary(json.dumps(doc).encode())
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "parse, text, key",
    [
        (parse_dictionary, D1_JSON.replace(b'{"id": "A",', b'{"id": "A", "id": "Z",'), "id"),
        (parse_dictionary, D1_JSON.replace(b'"subject"', b'"subject": "x", "subject"'), "subject"),
        (parse_dictionary, D1_JSON.replace(b'{"core": ["A", "B"]}', b'{"core": ["A"], "core": ["B"]}'), "core"),
        (parse_profile, b'{"known": [], "target": ["k1"], "target": ["k2"]}', "target"),
    ],
)
def test_duplicate_keys_are_parse_errors(parse, text, key):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"duplicate key {key!r}"


def test_load_rejects_semantic_errors():
    doc = json.loads(D1_JSON)
    doc["quanta"].append(dict(doc["quanta"][0]))  # duplicate id A
    with pytest.raises(SchemaError) as err:
        load_dictionary(json.dumps(doc).encode())
    assert "more than once" in str(err.value)

    doc = json.loads(D1_JSON)
    doc["quanta"][1]["objectives"] = []
    with pytest.raises(SchemaError) as err:
        load_dictionary(json.dumps(doc).encode())
    assert "objectives" in str(err.value)

    doc = json.loads(D1_JSON)
    doc["clouds"]["core"].append("ZZZ")
    with pytest.raises(SchemaError) as err:
        load_dictionary(json.dumps(doc).encode())
    assert "ZZZ" in str(err.value)


def test_overlap_is_warning_unless_strict():
    quanta = (LearnerQuantum("A", "t", {"k1"}, {"k1", "k2"}),)
    d = LQDictionary(subject="s", quanta=quanta)
    findings = validate_dictionary(d)
    assert [f.severity for f in findings] == ["warning"]
    assert findings[0].code == "prereq-objective-overlap"
    strict = validate_dictionary(d, strict=True)
    assert [f.severity for f in strict] == ["error"]
    # a warning does not block loading
    doc = {
        "subject": "s",
        "quanta": [
            {"id": "A", "title": "t", "prerequisites": ["k1"], "objectives": ["k1", "k2"]}
        ],
    }
    assert load_dictionary(json.dumps(doc).encode()).quantum("A").objectives == frozenset({"k1", "k2"})


def test_validate_flags_code_built_problems():
    d = LQDictionary(
        subject="s",
        quanta=(
            LearnerQuantum("A", "t", frozenset(), frozenset({"k1"}), duration_minutes=-1),
            LearnerQuantum("A", "t2", frozenset(), frozenset()),
            LearnerQuantum("bad id", "t3", frozenset(), frozenset({"k 2"})),
            LearnerQuantum("B", "t4", frozenset({1, "k1"}), frozenset({1, None, "k3"})),
        ),
        clouds=(LQCloud("c", frozenset({"A", "missing", 1, None})), LQCloud("c", frozenset())),
    )
    findings = validate_dictionary(d)
    assert [f.message for f in findings if f.subject == "B"] == [
        "knowledge factor 1 is not a whitespace-free token",
        "knowledge factor None is not a whitespace-free token",
        "listed as both prerequisite and objective: 1",
    ]
    assert [f.message for f in findings if f.code == "dangling-cloud-member"] == [
        "member 'missing' is not a defined LQ",
        "member 1 is not a defined LQ",
        "member None is not a defined LQ",
    ]
    codes = {f.code for f in findings}
    assert codes == {
        "bad-duration",
        "duplicate-id",
        "empty-objectives",
        "bad-id",
        "bad-kf",
        "dangling-cloud-member",
        "duplicate-cloud-name",
        "prereq-objective-overlap",
    }


def test_validate_reports_unhashable_ids_and_cloud_names():
    d = LQDictionary(
        subject="s",
        quanta=(
            LearnerQuantum(["A"], "t", frozenset(), frozenset({"k1"})),
            LearnerQuantum(["A"], "t", frozenset(), frozenset({"k1"})),
            LearnerQuantum("A", "t", frozenset(), frozenset({"k2"})),
        ),
        clouds=(LQCloud(["c"], frozenset({"A", "B"})), LQCloud(["c"], frozenset())),
    )
    findings = validate_dictionary(d)
    # an unhashable value cannot be looked up, so it is never a duplicate
    assert [(f.code, f.message) for f in findings] == [
        ("bad-id", "id ['A'] is not a whitespace-free token"),
        ("bad-id", "id ['A'] is not a whitespace-free token"),
        ("bad-cloud-name", "cloud name ['c'] is not a whitespace-free token"),
        ("dangling-cloud-member", "member 'B' is not a defined LQ"),
        ("bad-cloud-name", "cloud name ['c'] is not a whitespace-free token"),
    ]
    assert [f.subject for f in findings if f.code.startswith("bad-")] == ["['A']", "['A']", "['c']", "['c']"]


def test_profile_parsing():
    p = parse_profile(b'{"known": ["k1"], "target": ["k3", "k2"]}')
    assert p == LearnerProfile(known={"k1"}, target={"k2", "k3"})
    assert parse_profile(b'{"target": ["k1"]}').known == frozenset()
    with pytest.raises(SchemaError):
        parse_profile(b'{"known": []}')
    with pytest.raises(SchemaError):
        parse_profile(b'{"target": ["k1"], "level": 2}')


def test_scoping_and_lookup_errors():
    d = load_dictionary(D1_JSON)
    assert [q.id for q in d.scoped("core")] == ["A", "B"]
    assert d.scoped(None) == d.quanta
    # compiled once per scope name and cached on the dictionary
    assert d.scoped("core") is d.scoped("core")
    assert d.scoped() is d.scoped(None)
    for _ in range(2):
        with pytest.raises(UnknownCloud):
            d.scoped("nope")
    with pytest.raises(UnknownLQ):
        d.quantum("nope")


def test_serialize_round_trip_d1():
    d = load_dictionary(D1_JSON)
    assert load_dictionary(serialize_dictionary(d)) == d
    p = LearnerProfile(known={"k1"}, target={"k3"})
    assert parse_profile(serialize_profile(p)) == p


@given(small_dictionaries())
@settings(max_examples=60)
def test_serialize_round_trip_random(d):
    assert load_dictionary(serialize_dictionary(d)) == d


def test_closure_frozen_values(d1):
    # hand-checked: k1 unlocks A and C, A's k2 unlocks B
    assert closure_over({"k1"}, d1.scoped()) == frozenset({"k1", "k2", "k3", "k4"})
    assert closure_over(frozenset(), d1.scoped()) == frozenset()
    assert closure_over({"k2"}, d1.scoped()) == frozenset({"k2", "k3"})


def test_closure_scoped(d1):
    scoped = LQDictionary(subject=d1.subject, quanta=d1.quanta, clouds=(LQCloud("ab", frozenset({"A", "B"})),))
    assert closure_over({"k1"}, scoped.scoped("ab")) == frozenset({"k1", "k2", "k3"})


@st.composite
def clouded_dictionaries(draw) -> LQDictionary:
    quanta = draw(quanta_lists())
    ids = [q.id for q in quanta]
    clouds = tuple(
        LQCloud(f"c{i}", draw(st.frozensets(st.sampled_from(ids))))
        for i in range(draw(st.integers(min_value=0, max_value=2)))
    )
    return LQDictionary(subject="prop", quanta=quanta, clouds=clouds)


kf_sets = st.frozensets(st.sampled_from(KF_POOL), max_size=4)


@given(clouded_dictionaries(), st.lists(st.tuples(kf_sets, kf_sets), min_size=1, max_size=3))
@example(make_d1_prime(), [(frozenset({"k1"}), frozenset({"k3"}))])  # k3 needs a chain
@settings(max_examples=100)
def test_closure_matches_rescan_oracle(d, queries):
    for scope in [None, *(c.name for c in d.clouds)]:
        quanta = [q for q in d.quanta if scope is None or q.id in d.cloud(scope).member_ids]
        # later queries run on the supplier map the first one built
        for known, wanted in queries:
            reached = closure_by_rescan(known, quanta)
            assert closure_over(known, d.scoped(scope)) == reached
            # each KF alone too: a lone goal is the likeliest to need a chain
            for goal in [wanted, *map(frozenset, KF_POOL)]:
                cone = d.scoped(scope).cone(goal, known)
                assert goal & closure_over(known, cone) == goal & reached
        assert d.scoped(scope) is d.scoped(scope)


def test_cone_is_goal_directed(d1, cycle_trap):
    scope = d1.scoped()
    assert [q.id for q in scope.cone({"k2"}, frozenset({"k1"}))] == ["A"]
    assert [q.id for q in scope.cone({"k3"}, frozenset({"k1"}))] == ["A", "B", "C"]
    trap, _ = cycle_trap
    assert [q.id for q in trap.scoped().cone({"t1", "t2"}, frozenset())] == ["X", "Y", "Z"]


@given(quanta_lists(), st.frozensets(st.sampled_from(KF_POOL), max_size=4))
@settings(max_examples=60)
def test_closure_is_monotone_and_idempotent(quanta, known):
    d = LQDictionary(subject="prop", quanta=quanta)
    closed = closure_over(known, d.scoped())
    assert known <= closed
    assert closure_over(closed, d.scoped()) == closed
