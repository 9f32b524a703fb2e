from __future__ import annotations

import dataclasses
import gc
import json
import pickle
import random
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import KF_POOL, make_d1_prime, profiles, quanta_lists, small_dictionaries
from lqplan import model
from lqplan.cover import CoverConfig, CoverMode, backward_resolve
from lqplan.generate import Flavor, GenSpec, generate
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
from oracles import closure_by_rescan, load_two_pass

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


def test_deep_nesting_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_dictionary(b"[" * 100_000)
    assert str(err.value) == "input nests too deeply"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="interpreter has no integer digit limit")
def test_integer_past_the_digit_limit_is_parse_error():
    limit = sys.get_int_max_str_digits()
    assert b'"cost": 5}' in D1_JSON
    with pytest.raises(ParseError) as err:
        parse_dictionary(D1_JSON.replace(b'"cost": 5}', b'"cost": ' + b"9" * (limit + 1) + b"}"))
    assert str(err.value) == f"an integer has more than {limit} digits"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no integer digit limit")
def test_without_a_digit_limit_no_total_is_too_long():
    # limit 0 switches the limit off, so str prints any total
    huge = 10**5000
    units = [LearnerQuantum("A", "t", (), {"a"}, cost=huge), LearnerQuantum("B", "t", (), {"b"}, cost=huge)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        dictionary = load_dictionary(serialize_dictionary(LQDictionary("s", units)))
        assert [q.cost for q in dictionary.quanta] == [huge, huge]
        assert "long-total" not in {f.code for f in validate_dictionary(dictionary)}
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda doc: doc.update(extra=1), "$.extra: unknown key"),
        (lambda doc: doc["quanta"][0].update(level=3), "$.quanta[0].level: unknown key"),
        (lambda doc: doc["quanta"][0].update(duration_minutes=-5),
         "$.quanta[0].duration_minutes: must be non-negative, got -5"),
        (lambda doc: doc["quanta"][0].update(duration_minutes="long"),
         "$.quanta[0].duration_minutes: expected an integer, got str"),
        (lambda doc: doc["quanta"][0].update(cost=True), "$.quanta[0].cost: expected an integer, got bool"),
        (lambda doc: doc["quanta"][0].update(cost=1.5), "$.quanta[0].cost: expected an integer, got float"),
        (lambda doc: doc["quanta"][0].update(id="has space"),
         "$.quanta[0].id: 'has space' is not a whitespace-free token"),
        (lambda doc: doc["quanta"][0].update(id=7), "$.quanta[0].id: expected a string, got int"),
        (lambda doc: doc["quanta"][0].pop("id"), "$.quanta[0].id: missing required key"),
        (lambda doc: doc["quanta"][0].update(prerequisites=["ok", "not ok"]),
         "$.quanta[0].prerequisites[1]: 'not ok' is not a whitespace-free token"),
        (lambda doc: doc["quanta"][0].update(prerequisites="k1"),
         "$.quanta[0].prerequisites: expected a list, got str"),
        (lambda doc: doc["quanta"][0].pop("title"), "$.quanta[0].title: missing required key"),
        (lambda doc: doc["quanta"][0].pop("objectives"), "$.quanta[0].objectives: missing required key"),
        (lambda doc: doc["quanta"].__setitem__(0, 5), "$.quanta[0]: expected an object, got int"),
        (lambda doc: doc.update(clouds=[]), "$.clouds: expected an object, got list"),
        (lambda doc: doc["clouds"].update(core="A"), "$.clouds.core: expected a list, got str"),
        (lambda doc: doc["clouds"].update(core=["A", 3]), "$.clouds.core[1]: expected a string, got int"),
        (lambda doc: doc.update(quanta={}), "$.quanta: expected a list, got dict"),
        (lambda doc: doc.pop("quanta"), "$.quanta: missing required key"),
        (lambda doc: doc.pop("subject"), "$.subject: missing required key"),
    ],
)
def test_structural_schema_errors(mutate, expected):
    doc = json.loads(D1_JSON)
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_dictionary(json.dumps(doc).encode())
    assert str(err.value) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        (b'{"known": ["k1"]}', "$.target: missing required key"),
        (b'{"known": "k1", "target": ["k3"]}', "$.known: expected a list, got str"),
    ],
)
def test_structural_profile_errors(text, expected):
    with pytest.raises(SchemaError) as err:
        parse_profile(text)
    assert str(err.value) == expected


@pytest.mark.parametrize("parse", [parse_dictionary, parse_profile])
def test_the_document_root_is_named_dollar(parse):
    with pytest.raises(SchemaError, match=r"^\$: expected an object, got list$"):
        parse(b"[]")
    with pytest.raises(SchemaError, match=r"^\$\.extra: unknown key$"):
        parse(b'{"extra": 1}')


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


LONE = "\udc00"  # what the JSON escape "\udc00" decodes to


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda doc: doc.update(subject="s" + LONE), "$.subject"),
        (lambda doc: doc["quanta"][1].update(id="B" + LONE), "$.quanta[1].id"),
        (lambda doc: doc["quanta"][1].update(title="Middle \ud800steps"), "$.quanta[1].title"),
        (lambda doc: doc["quanta"][2].update(prerequisites=["k1", LONE]), "$.quanta[2].prerequisites[1]"),
        (lambda doc: doc["quanta"][0].update(objectives=["k2" + LONE]), "$.quanta[0].objectives[0]"),
        (lambda doc: doc["clouds"].update({"c" + LONE: []}), "$.clouds.c" + LONE),
        (lambda doc: doc["clouds"]["core"].append(LONE), "$.clouds.core[2]"),
    ],
)
def test_lone_surrogates_are_schema_errors(mutate, where):
    # a lone surrogate cannot be written to a UTF-8 stream, so a plan or
    # finding that printed one would fail half-way through its output
    doc = json.loads(D1_JSON)
    mutate(doc)
    text = json.dumps(doc).encode()
    assert b"\\ud" in text
    for parse in (parse_dictionary, load_dictionary):
        with pytest.raises(SchemaError) as err:
            parse(text)
        assert err.value.where == where
        assert err.value.reason.endswith("holds a lone surrogate, which is not a Unicode character")


def test_lone_surrogate_in_profile_is_schema_error():
    with pytest.raises(SchemaError, match=r"^\$\.target\[0\]: 'k\\udc00' holds a lone surrogate"):
        parse_profile(json.dumps({"target": ["k" + LONE]}).encode())


def test_validate_reports_lone_surrogates():
    d = LQDictionary(
        subject="s",
        quanta=(LearnerQuantum("A" + LONE, "t", frozenset({"k" + LONE}), frozenset({"k1"})),),
        clouds=(LQCloud("c" + LONE, frozenset()),),
    )
    assert [(f.code, f.message) for f in validate_dictionary(d)] == [
        ("bad-id", "id 'A\\udc00' holds a lone surrogate, which is not a Unicode character"),
        ("bad-kf", "knowledge factor 'k\\udc00' holds a lone surrogate, which is not a Unicode character"),
        ("bad-cloud-name", "cloud name 'c\\udc00' holds a lone surrogate, which is not a Unicode character"),
    ]


def test_validate_reports_bad_subject_and_titles():
    # the parser refuses a lone surrogate in a file; built in code, it
    # reaches validate_dictionary, while other non-ASCII text is fine
    d = LQDictionary(
        subject="s" + LONE,
        quanta=(
            LearnerQuantum("B", "x" + LONE, frozenset(), frozenset({"k2"})),
            LearnerQuantum("C", "Café, part 2", frozenset(), frozenset({"k3"})),
        ),
    )
    assert [(f.code, f.subject, f.message) for f in validate_dictionary(d)] == [
        ("bad-subject", "s" + LONE, "subject 's\\udc00' holds a lone surrogate, which is not a Unicode character"),
        ("bad-title", "B", "title 'x\\udc00' holds a lone surrogate, which is not a Unicode character"),
    ]


def test_validate_reports_lone_surrogate_in_subject():
    d = LQDictionary(subject="s" + LONE, quanta=(LearnerQuantum("A", "t", frozenset(), frozenset({"k1"})),))
    assert [(f.code, f.subject, f.message) for f in validate_dictionary(d)] == [
        ("bad-subject", "s" + LONE, "subject 's\\udc00' holds a lone surrogate, which is not a Unicode character"),
    ]


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


@pytest.mark.parametrize(
    "break_rule",
    [
        lambda doc: doc["quanta"].append(dict(doc["quanta"][0])),
        lambda doc: doc["quanta"][1].update(objectives=[]),
        lambda doc: doc["clouds"]["core"].extend(["ZZZ", "YYY"]),
    ],
    ids=["duplicate-id", "empty-objectives", "dangling-cloud-member"],
)
def test_load_raises_the_validators_first_error_only_when_a_rule_breaks(break_rule):
    with mock.patch.object(model, "validate_dictionary", wraps=model.validate_dictionary) as spy:
        load_dictionary(D1_JSON)
        assert spy.call_count == 0
        doc = json.loads(D1_JSON)
        break_rule(doc)
        data = json.dumps(doc).encode()
        with pytest.raises(SchemaError) as err:
            load_dictionary(data)
        assert spy.call_count == 1
    first = next(f for f in validate_dictionary(parse_dictionary(data)) if f.severity == "error")
    assert (err.value.where, err.value.reason) == (first.subject, first.message)


def test_a_valid_file_never_enters_the_row_walk():
    # the row walk reads every entry's counts through _optional_count, and
    # its KF lists and every cloud's members through _tokens; D1_JSON has a cloud
    walk_entered = AssertionError("row walk entered")
    with mock.patch.object(model, "_optional_count", side_effect=walk_entered), \
            mock.patch.object(model, "_tokens", side_effect=walk_entered):
        d = load_dictionary(D1_JSON)
        with pytest.raises(AssertionError, match="row walk entered"):
            load_dictionary(D1_JSON.replace(b'"cost": 7', b'"cost": -7'))
    assert d == load_two_pass(D1_JSON)


def test_only_the_bulk_accept_builds_a_dictionary():
    # if the bulk accept ever refused a file the row walk finds no fault in,
    # the parse fails loudly instead of building the dictionary another way
    with mock.patch.object(model, "_bulk_accept", return_value=None):
        with pytest.raises(AssertionError, match="finds no fault"):
            parse_dictionary(D1_JSON)


@pytest.mark.parametrize("parse", [parse_dictionary, load_dictionary])
@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "data, error",
    [(D1_JSON, None), (b"{not json", ParseError), (D1_JSON.replace(b'"k4"', b'"k 4"'), SchemaError)],
    ids=["valid", "parse-error", "schema-error"],
)
def test_load_pauses_the_collector_and_restores_it(parse, collecting, data, error):
    seen = []
    decode = model._parse_json

    def parse_json(source):
        seen.append(gc.isenabled())
        return decode(source)

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with mock.patch.object(model, "_parse_json", parse_json):
            if error is None:
                parse(data)
            else:
                with pytest.raises(error):
                    parse(data)
        assert seen == [False]
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "spec",
    [None, GenSpec(seed=7, lq_count=1000, kf_count=800),
     *(GenSpec(seed=0, lq_count=300, kf_count=240, flavor=flavor) for flavor in Flavor)],
    ids=["d1", "generated-1k", *(f"{flavor.value}-300" for flavor in Flavor)],
)
def test_units_built_in_bulk_match_the_constructor(spec):
    # _bulk_accept sets each field's column without calling the constructor;
    # rebuilding a unit, or a cloud, through it changes nothing
    data = D1_JSON if spec is None else serialize_dictionary(generate(spec)[0])
    parsed = parse_dictionary(data)
    units = parsed.quanta
    assert len(units) == len(json.loads(data)["quanta"])
    assert parsed.clouds or spec.seed == 7  # seed 0 draws a cloud in every flavor
    for cloud in parsed.clouds:
        assert dataclasses.replace(cloud) == cloud
    for q in units:
        built = LearnerQuantum(
            q.id, q.title, sorted(q.prerequisites), set(q.objectives), q.duration_minutes, q.cost
        )
        assert (q, hash(q), repr(q)) == (built, hash(built), repr(built))
        assert type(q.prerequisites) is frozenset and type(q.objectives) is frozenset
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.title = "changed"
        assert dataclasses.replace(q) == q
        assert pickle.loads(pickle.dumps(q)) == q
        assert not hasattr(q, "__dict__")


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
            LearnerQuantum("B", "t4", frozenset({"k1"}), frozenset({"k1", "k3"}), cost=-2),
        ),
        clouds=(LQCloud("c", frozenset({"A", "missing", "gone"})), LQCloud("c", frozenset())),
    )
    assert [(f.code, f.subject, f.message) for f in validate_dictionary(d)] == [
        ("bad-duration", "A", "duration_minutes must be a non-negative integer, got -1"),
        ("duplicate-id", "A", "LQ id defined more than once"),
        ("empty-objectives", "A", "objectives must be non-empty"),
        ("bad-id", "bad id", "id 'bad id' is not a whitespace-free token"),
        ("bad-kf", "bad id", "knowledge factor 'k 2' is not a whitespace-free token"),
        ("bad-cost", "B", "cost must be a non-negative integer, got -2"),
        ("prereq-objective-overlap", "B", "listed as both prerequisite and objective: k1"),
        ("dangling-cloud-member", "c", "member 'gone' is not a defined LQ"),
        ("dangling-cloud-member", "c", "member 'missing' is not a defined LQ"),
        ("duplicate-cloud-name", "c", "cloud defined more than once"),
    ]


VALID_FIELDS = {
    LearnerQuantum: {"id": "A", "title": "t", "prerequisites": (), "objectives": {"k1"}},
    LQCloud: {"name": "c", "member_ids": {"A"}},
    LQDictionary: {"subject": "s", "quanta": ()},
    LearnerProfile: {},
}
WRONG_TYPES = [  # (class, fields of a wrong type, the field the error names); lists keep ids stable
    (LearnerQuantum, {"id": ["A"]}, "id"),
    (LearnerQuantum, {"id": 7}, "id"),
    (LearnerQuantum, {"title": 7}, "title"),
    (LearnerQuantum, {"title": None}, "title"),
    (LearnerQuantum, {"prerequisites": "k1", "objectives": "k2"}, "prerequisites"),
    (LearnerQuantum, {"objectives": "k2"}, "objectives"),
    (LearnerQuantum, {"prerequisites": ["k1", 1]}, "prerequisites"),
    (LearnerQuantum, {"objectives": ["k3", None]}, "objectives"),
    (LearnerQuantum, {"duration_minutes": 1.5}, "duration_minutes"),
    (LearnerQuantum, {"duration_minutes": True}, "duration_minutes"),
    (LearnerQuantum, {"duration_minutes": "30"}, "duration_minutes"),
    (LearnerQuantum, {"cost": None}, "cost"),
    (LearnerQuantum, {"cost": False}, "cost"),
    (LQCloud, {"name": ["c"]}, "name"),
    (LQCloud, {"name": 7}, "name"),
    (LQCloud, {"member_ids": "AB"}, "member_ids"),
    (LQCloud, {"member_ids": ["A", 1, None]}, "member_ids"),
    (LQDictionary, {"subject": 7}, "subject"),
    (LQDictionary, {"subject": None}, "subject"),
    (LearnerProfile, {"known": "k1", "target": "k2"}, "known"),
    (LearnerProfile, {"target": "k2"}, "target"),
]


@pytest.mark.parametrize(
    "cls, wrong, field", WRONG_TYPES,
    ids=[f"{cls.__name__}-{'-'.join(f'{k}={v!r}' for k, v in wrong.items())}" for cls, wrong, _ in WRONG_TYPES],
)
def test_constructors_refuse_wrong_types(cls, wrong, field):
    # what the parser refuses by type in a file is refused in code at
    # construction, naming the class and the field; a bare string is not
    # split into a set of its characters
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.{field} must be "):
        cls(**{**VALID_FIELDS[cls], **wrong})


def test_constructors_accept_typed_values():
    # isinstance, as validation used: a str or int subclass passes, and
    # values (tokens, signs) are left to validate_dictionary
    class StrSubclass(str):
        pass

    unit = LearnerQuantum(StrSubclass("A"), "t", [StrSubclass("k1")], iter(["bad kf"]), -1, 2**70)
    assert unit.prerequisites == frozenset({"k1"}) and unit.objectives == frozenset({"bad kf"})
    assert LQCloud("c", ["A", "A"]).member_ids == frozenset({"A"})
    profile = LearnerProfile(known=["k1"], target=("k2",))
    assert (profile.known, profile.target) == (frozenset({"k1"}), frozenset({"k2"}))
    d = LQDictionary("s", [unit], [LQCloud("bad name", ())])
    assert [f.code for f in validate_dictionary(d)] == ["bad-kf", "bad-duration", "bad-cloud-name"]


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


@pytest.mark.parametrize("lq_count", [200, 2_000])
@pytest.mark.parametrize("seed", range(3))
def test_closure_matches_rescan_at_generated_known_sets(seed, lq_count):
    """Known sets as large as the benchmark's, where the KF_POOL draws
    above stay small: the generated profile's known set plus 0-50
    attainable KFs, KFs no unit requires and one no unit mentions, over
    the whole scope, a target cone and a resolved selection, with
    ``known`` also passed as a one-shot iterator."""
    d, profile = generate(GenSpec(seed=seed, lq_count=lq_count, kf_count=lq_count * 4 // 5))
    rng = random.Random(seed)
    attainable = sorted(closure_by_rescan(profile.known, d.quanta) - profile.known)
    required = frozenset().union(*(q.prerequisites for q in d.quanta))
    unrequired = sorted(frozenset().union(*(q.objectives for q in d.quanta)) - required)
    scope = d.scoped()
    for extra in (0, 7, 50):
        known = profile.known | {*rng.sample(attainable, extra), *rng.sample(unrequired, 5), "k-absent"}
        target = frozenset(rng.sample(sorted(set(attainable) - known), 6))
        trace = backward_resolve(LearnerProfile(known, target), d, config=CoverConfig(mode=CoverMode.GREEDY))
        selection = [d.by_id[i] for i in trace.solution]
        for quanta in (scope, scope.cone(target, known), selection):
            reached = closure_by_rescan(known, quanta)
            assert closure_over(known, quanta) == reached
            assert closure_over(iter(known), quanta) == reached


def closure_rounds(known, quanta):
    """The quanta that fire, by the rescan round in which they turn ready
    (round 0: ready from ``known``), and the quanta that never fire."""
    held, rounds, waiting = set(known), [], list(quanta)
    while ready := [q for q in waiting if q.prerequisites <= held]:
        rounds.append(ready)
        waiting = [q for q in waiting if not q.prerequisites <= held]
        held.update(*(q.objectives for q in ready))
    return rounds, waiting


def assert_closure_in_any_order(known, quanta):
    """``closure_over`` equals the rescan oracle with both arguments passed
    as one-shot iterators, in three orders of the quanta. The sweep always
    fires round 0 and leaves every quantum that never fires; its waiter
    map holds what the sweep left:
    - firing order: the sweep fires every quantum that fires at all;
    - reversed firing order;
    - deepest round first: the sweep fires round 0 only, and every later
      round fires in the worklist."""
    rounds, never = closure_rounds(known, quanta)
    fired = [q for ready in rounds for q in ready]
    first = len(rounds[0]) if rounds else 0
    reached = closure_by_rescan(known, quanta)
    orders = [
        (fired + never, len(never)),
        ((fired + never)[::-1], None),
        (never + [q for ready in reversed(rounds) for q in ready], len(quanta) - first),
    ]
    for order, left in orders:
        with mock.patch.object(model, "_positions_by_kf", wraps=model._positions_by_kf) as waiters:
            assert closure_over(iter(known), iter(order)) == reached
        kept = len(waiters.call_args.args[0])
        assert len(never) <= kept <= len(quanta) - first
        assert left is None or kept == left


@pytest.mark.parametrize("lq_count", [200, 2_000])
@pytest.mark.parametrize("seed", range(2))
def test_closure_matches_rescan_in_any_order(seed, lq_count):
    """Generated dictionaries, plus a quantum that needs and delivers one
    attainable KF, one that needs only the KF it delivers, and repeats of
    every twentieth quantum."""
    d, profile = generate(GenSpec(seed=seed, lq_count=lq_count, kf_count=lq_count * 4 // 5))
    kf = min(closure_by_rescan(profile.known, d.quanta) - profile.known)
    quanta = [
        *d.quanta,
        LearnerQuantum("self-fed", "needs and delivers one KF", {kf}, {kf, "k-self-fed"}),
        LearnerQuantum("self-starved", "needs only what it delivers", {"k-starved"}, {"k-starved"}),
        *d.quanta[::20],
    ]
    rounds, _ = closure_rounds(profile.known, quanta)
    assert len(rounds) > 2  # so the three orders differ
    assert_closure_in_any_order(profile.known, quanta)


@given(quanta_lists(), kf_sets, st.sampled_from(KF_POOL), st.sampled_from(KF_POOL), st.integers(0, 3))
@settings(max_examples=100)
def test_closure_matches_rescan_in_any_order_on_drawn_quanta(quanta, known, both, delivered, repeats):
    self_fed = LearnerQuantum("self-fed", "lists a KF on both sides", {both}, {both, delivered})
    assert_closure_in_any_order(known, [*quanta, self_fed, *quanta[:repeats]])


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
