"""Domain model for learning-path planning.

The unit of study is a learner quantum (LQ): a small piece of course
material that requires some knowledge factors (KFs) and delivers others.
A dictionary bundles the quanta for one subject, optionally grouped into
named clouds. A learner profile states what the learner already knows and
what they want to reach. Everything downstream (cover selection, ordering,
generation) works on the types defined here.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import IO, Callable, Iterable, Iterator, NoReturn, Union

KFSet = frozenset[str]

_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")  # what a lone JSON "\udXXX" escape decodes to
_TOKEN_RE = re.compile(r"[^\s\ud800-\udfff]+")  # always used with fullmatch

class LQPlanError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(LQPlanError):
    """The input is not syntactically valid JSON (or not decodable text)."""


class SchemaError(LQPlanError):
    """The input parses but violates the dictionary or profile schema."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where
        self.reason = message


class UnknownCloud(LQPlanError):
    """A cloud name was requested that the dictionary does not define."""

    def __init__(self, name: str):
        super().__init__(f"unknown cloud: {name}")
        self.name = name


class UnknownLQ(LQPlanError):
    """An LQ id was referenced that the dictionary does not contain."""

    def __init__(self, lq_id: str):
        super().__init__(f"unknown LQ id: {lq_id}")
        self.lq_id = lq_id


class MinimalityMetric(Enum):
    """What a cover should minimise; ``weight`` is the getter of a
    quantum's weight under it."""

    COUNT = "count"
    DURATION = "duration"
    COST = "cost"

    @property
    def weight(self) -> Callable[["LearnerQuantum"], int]:
        return _WEIGHT_GETTERS[self]


_WEIGHT_GETTERS = {
    MinimalityMetric.COUNT: lambda quantum: 1,
    MinimalityMetric.DURATION: attrgetter("duration_minutes"),
    MinimalityMetric.COST: attrgetter("cost"),
}


def total_weight(quanta: Iterable["LearnerQuantum"], metric: MinimalityMetric) -> int:
    return sum(map(metric.weight, quanta))


def _check_types(owner: object, texts: tuple[str, ...] = (), counts: tuple[str, ...] = (),
                 kf_sets: tuple[str, ...] = (), scan: bool = True) -> None:
    """Raise a ``TypeError`` naming ``owner``'s class and field for a text that is
    not a ``str``, a count that is not an ``int`` or is a ``bool``, or a KF collection
    that is a bare ``str`` or, if ``scan``, holds a non-``str``. Each KF collection
    is stored as a frozenset; values are left to ``validate_dictionary``."""
    def refuse(field: str, expected: str) -> NoReturn:
        raise TypeError(f"{type(owner).__name__}.{field} must be {expected}, got {getattr(owner, field)!r}")

    for field in texts:
        if not isinstance(getattr(owner, field), str):
            refuse(field, "a str")
    for field in counts:
        if not isinstance(value := getattr(owner, field), int) or isinstance(value, bool):
            refuse(field, "an int")
    for field in kf_sets:
        if isinstance(getattr(owner, field), str):
            refuse(field, "a collection of str, not a str")
        object.__setattr__(owner, field, value := frozenset(getattr(owner, field)))
        if scan and not all(isinstance(kf, str) for kf in value):
            refuse(field, "a collection of str")


@dataclass(frozen=True, slots=True)
class LearnerQuantum:
    """One unit of study material.

    ``prerequisites`` are the KFs a learner must hold before taking the
    unit; ``objectives`` are the KFs the unit delivers. Durations are in
    minutes, costs in whole currency units; both default to zero, meaning
    "free" under the corresponding metric.

    Units are slotted: they have no ``__dict__``, so ``vars(unit)``
    raises ``TypeError``; ``dataclasses.asdict`` and ``replace`` work.
    A wrong-typed field raises ``TypeError`` (``_check_types``).
    """

    id: str
    title: str
    prerequisites: KFSet = frozenset()
    objectives: KFSet = frozenset()
    duration_minutes: int = 0
    cost: int = 0

    def __post_init__(self) -> None:
        _check_types(self, texts=("id", "title"), counts=("duration_minutes", "cost"),
                     kf_sets=("prerequisites", "objectives"))


_QUANTUM_KEYS = frozenset(LearnerQuantum.__slots__)  # the keys a dictionary entry may hold


@dataclass(frozen=True)
class LQCloud:
    """A named grouping of LQ ids, used to scope planning queries."""

    name: str
    member_ids: frozenset[str]

    def __post_init__(self) -> None:
        _check_types(self, texts=("name",), kf_sets=("member_ids",))


def _positions_by_kf(groups: Iterable[KFSet]) -> dict[str, list[int]]:
    """Map each KF to the ascending positions of the groups that hold it."""
    positions: dict[str, list[int]] = {}
    for i, group in enumerate(groups):
        for kf in group:
            found = positions.get(kf)
            if found is None:
                positions[kf] = [i]
            else:
                found.append(i)
    return positions


class Scope(tuple):
    """The quanta one query may draw on, compiled for lookups by KF.

    Callers index it and iterate over it as the scope's quanta, so it is a
    tuple of them. Its ``suppliers`` map, built on first use and kept as
    long as the scope, sends a KF to the positions of the quanta delivering it.
    """

    @cached_property
    def suppliers(self) -> dict[str, list[int]]:
        return _positions_by_kf(q.objectives for q in self)

    def cone(self, wanted: Iterable[str], known: KFSet) -> list[LearnerQuantum]:
        """The backward cone of ``wanted``, in scope order: every quantum
        supplying a wanted KF the learner lacks and, transitively, every
        supplier of such a quantum's prerequisites outside ``known``.

        A wanted KF is in the closure over the whole scope exactly when it
        is in the closure over its cone: the cone holds every supplier of
        each KF it needs, so the full closure's firings that lead to a
        wanted KF all happen inside it.
        """
        suppliers = self.suppliers
        needed = set(wanted) - known
        frontier = needed
        taken: set[int] = set()
        while frontier:
            fresh = {i for kf in frontier for i in suppliers.get(kf, ())} - taken
            taken |= fresh
            frontier = set().union(*[self[i].prerequisites for i in fresh]) - known - needed
            needed |= frontier
        return [self[i] for i in sorted(taken)]


@dataclass(frozen=True)
class LQDictionary:
    """All quanta available for one subject, plus optional clouds.

    ``quanta`` keeps file order. It may repeat an id, and ``clouds`` a
    name, for validation to report; ``by_id`` then keeps the id's last
    unit, and ``scoped`` refuses to plan, with the ``SchemaError`` a load
    gives.
    """

    subject: str
    quanta: tuple[LearnerQuantum, ...]
    clouds: tuple[LQCloud, ...] = ()

    def __post_init__(self) -> None:
        _check_types(self, texts=("subject",))
        object.__setattr__(self, "quanta", tuple(self.quanta))
        object.__setattr__(self, "clouds", tuple(self.clouds))

    @cached_property
    def by_id(self) -> dict[str, LearnerQuantum]:
        return {q.id: q for q in self.quanta}

    def quantum(self, lq_id: str) -> LearnerQuantum:
        try:
            return self.by_id[lq_id]
        except KeyError:
            raise UnknownLQ(lq_id) from None

    def cloud(self, name: str) -> LQCloud:
        """The cloud called ``name``; a name two clouds share raises the ``SchemaError`` a load gives."""
        named = [c for c in self.clouds if c.name == name]
        if len(named) != 1:
            raise self._refusal("duplicate-cloud-name", name) if named else UnknownCloud(name)
        return named[0]

    def _refusal(self, code: str, subject: str | None = None) -> SchemaError:
        """The error of validation's first ``code`` finding (on ``subject``, if given)."""
        first = next(f for f in validate_dictionary(self) if f.code == code and subject in (None, f.subject))
        return SchemaError(first.subject, first.message)

    @cached_property
    def _scopes(self) -> dict[str | None, Scope]:
        return {}

    def scoped(self, scope: str | None = None) -> Scope:
        """The candidate quanta for a query: all of them, or one cloud's.

        Compiled once per scope name and cached, so queries on one scope share
        its maps. A repeated id raises first, as in a load: one unit per id.
        So does a cloud name two clouds share (``cloud``): one cloud per name.
        """
        compiled = self._scopes.get(scope)
        if compiled is None:
            if len(self.by_id) < len(self.quanta):
                raise self._refusal("duplicate-id")
            members = None if scope is None else self.cloud(scope).member_ids
            quanta = self.quanta if members is None else [q for q in self.quanta if q.id in members]
            compiled = self._scopes[scope] = Scope(quanta)
        return compiled


@dataclass(frozen=True)
class LearnerProfile:
    """What one learner already knows and what they are aiming for. A bare
    ``str`` for either set raises ``TypeError``; members go unscanned, as every query builds one."""

    known: KFSet = frozenset()
    target: KFSet = frozenset()

    def __post_init__(self) -> None:
        _check_types(self, kf_sets=("known", "target"), scan=False)


@dataclass(frozen=True)
class Finding:
    """One problem discovered by dictionary validation.

    ``severity`` is "error" or "warning"; ``subject`` names the offending
    LQ or cloud; ``code`` is a stable machine-readable tag.
    """

    severity: str
    code: str
    subject: str
    message: str


def _token_fault(value: str) -> str | None:
    """Why ``value`` is refused as an id, KF or cloud name, or None if it is a
    token. A lone surrogate is named first: no UTF-8 output can print it."""
    if _TOKEN_RE.fullmatch(value):
        return None
    if _SURROGATE_RE.search(value):
        return f"{value!r} holds a lone surrogate, which is not a Unicode character"
    return f"{value!r} is not a whitespace-free token"


def _text_fault(value: str) -> str | None:
    """Why ``value`` is refused as a subject or title (a lone surrogate), or None if it is fine."""
    return None if value.isascii() or not _SURROGATE_RE.search(value) else _token_fault(value)


def _past_digit_limit(total: int) -> bool:
    """Whether ``str`` refuses ``total`` under the interpreter's digit limit (none at 0 or if absent)."""
    return 0 < (limit := getattr(sys, "get_int_max_str_digits", int)()) and total >= 10**limit


def validate_dictionary(dictionary: LQDictionary, *, strict: bool = False) -> list[Finding]:
    """Check semantic rules and return findings, worst problems as errors.

    Rules checked, for the subject, then in quanta order, then in cloud order:
      - the subject and titles are free of lone surrogates
      - ids and KFs are non-empty whitespace-free tokens, free of lone surrogates
      - every LQ has at least one objective
      - durations and costs are non-negative, and their column totals ``str`` can print
      - an LQ does not list a KF as both prerequisite and objective
        (a warning normally, an error under ``strict``)
      - LQ ids are unique; cloud names are unique
      - every cloud member resolves to a defined LQ

    The constructors check types, so every value here is typed. A dictionary
    built in code never went through the file parser, so tokens and signs are checked here.
    """
    findings: list[Finding] = []
    if fault := _text_fault(dictionary.subject):
        findings.append(Finding("error", "bad-subject", dictionary.subject, f"subject {fault}"))
    seen_ids: set[str] = set()
    totals = dict.fromkeys(("duration_minutes", "cost"), 0)
    for q in dictionary.quanta:
        if fault := _token_fault(q.id):
            findings.append(Finding("error", "bad-id", q.id, f"id {fault}"))
        if q.id in seen_ids:
            findings.append(Finding("error", "duplicate-id", q.id, "LQ id defined more than once"))
        seen_ids.add(q.id)
        if fault := _text_fault(q.title):
            findings.append(Finding("error", "bad-title", q.id, f"title {fault}"))
        if bad := {kf: fault for kf in q.prerequisites | q.objectives if (fault := _token_fault(kf))}:
            findings.extend(Finding("error", "bad-kf", q.id, f"knowledge factor {bad[kf]}") for kf in sorted(bad))
        if not q.objectives:
            findings.append(Finding("error", "empty-objectives", q.id, "objectives must be non-empty"))
        for attr, code in zip(totals, ("bad-duration", "bad-cost")):
            if (value := getattr(q, attr)) < 0:
                findings.append(
                    Finding("error", code, q.id, f"{attr} must be a non-negative integer, got {value!r}")
                )
            else:
                totals[attr] += value
        overlap = q.prerequisites & q.objectives
        if overlap:
            severity = "error" if strict else "warning"
            findings.append(
                Finding(severity, "prereq-objective-overlap", q.id,
                        f"listed as both prerequisite and objective: {', '.join(sorted(overlap))}")
            )
    for attr, total in totals.items():
        if _past_digit_limit(total):
            findings.append(Finding("error", "long-total", attr, "the sum over all units has too many digits"))
    seen_clouds: set[str] = set()
    for c in dictionary.clouds:
        if fault := _token_fault(c.name):
            findings.append(Finding("error", "bad-cloud-name", c.name, f"cloud name {fault}"))
        if c.name in seen_clouds:
            findings.append(Finding("error", "duplicate-cloud-name", c.name, "cloud defined more than once"))
        seen_clouds.add(c.name)
        findings.extend(
            Finding("error", "dangling-cloud-member", c.name, f"member {member!r} is not a defined LQ")
            for member in sorted(c.member_ids - seen_ids)
        )
    return findings


Source = Union[bytes, bytearray, str, IO[bytes], IO[str]]


def _decode(source: Source) -> str:
    raw = source.read() if hasattr(source, "read") else source
    if isinstance(raw, str):
        return raw
    if not isinstance(raw, (bytes, bytearray)):
        raise TypeError(f"cannot read from {type(source).__name__}")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` object hook: a repeated key is an error, not a
    silent overwrite. Raises ``ParseError`` itself, because a
    ``ValueError`` would be reported as an oversized integer."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return doc


def _parse_json(source: Source) -> object:
    text = _decode(source)
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("input nests too deeply") from exc
    except ValueError as exc:
        # an integer literal longer than the interpreter's digit limit
        raise ParseError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from exc


_NOUNS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
_TOP_LEVEL_KEYS = frozenset(f.name for f in fields(LQDictionary))  # a dictionary file's top-level keys
_PROFILE_KEYS = frozenset(f.name for f in fields(LearnerProfile))  # a profile file's keys


def _typed(value: object, kind: type, where: str):
    """``value``, if its type is exactly ``kind``: JSON's types are, so a bool is no integer."""
    if type(value) is not kind:
        raise SchemaError(where, f"expected {_NOUNS[kind]}, got {type(value).__name__}")
    return value


def _required(doc: dict, where: str, key: str, kind: type):
    if key not in doc:
        raise SchemaError(f"{where}.{key}", "missing required key")
    return _typed(doc[key], kind, f"{where}.{key}")


def _require_object(doc: object, where: str, allowed: frozenset[str]) -> dict:
    for key in _typed(doc, dict, where):
        if key not in allowed:
            raise SchemaError(f"{where}.{key}", "unknown key")
    return doc


def _require_str(doc: dict, where: str, key: str) -> str:
    if fault := _text_fault(value := _required(doc, where, key, str)):
        raise SchemaError(f"{where}.{key}", fault)
    return value


def _require_token(value: object, where: str) -> str:
    if fault := _token_fault(_typed(value, str, where)):
        raise SchemaError(where, fault)
    return value


def _tokens(items: list, where: str) -> frozenset[str]:
    """The items as a set; the first that is not a token raises, with its position in ``where``."""
    for i, item in enumerate(items):
        _require_token(item, f"{where}[{i}]")
    return frozenset(items)


def _token_list(doc: dict, where: str, key: str) -> frozenset[str]:
    return _tokens(_required(doc, where, key, list), f"{where}.{key}")


def _optional_count(doc: dict, where: str, key: str) -> int:
    if (value := _typed(doc.get(key, 0), int, f"{where}.{key}")) < 0:
        raise SchemaError(f"{where}.{key}", f"must be non-negative, got {value}")
    return value


def _bulk_accept(entries: list, clouds: object) -> tuple[list[LearnerQuantum], list[LQCloud]] | None:
    """The quanta and clouds of a file that breaks no rule, or None.

    Each rule is checked over a whole column at once, in C: the types of
    each field, the keys, one ``fullmatch`` per id, per distinct KF, per
    cloud name and per distinct cloud member, one surrogate search over
    all titles and the least count. None means some entry or cloud is
    faulty, and the caller walks the file to name the first fault.

    The units are built by column, without calling the constructor once
    per unit: each field's slot descriptor stores a whole column past the
    frozen ``__setattr__``, the KF lists turned into frozensets as
    ``__post_init__`` would.
    """
    if (
        not set(map(type, entries)) <= {dict}
        or not _QUANTUM_KEYS.issuperset(chain.from_iterable(entries))
        or not isinstance(clouds, dict)
        or not set(map(type, clouds.values())) <= {list}
    ):
        return None
    try:
        ids, titles, prerequisites, objectives = (
            list(map(itemgetter(key), entries)) for key in ("id", "title", "prerequisites", "objectives")
        )
        kfs = set(chain.from_iterable(chain(prerequisites, objectives)))
        members = set(chain.from_iterable(clouds.values()))
    except (KeyError, TypeError):  # a missing key, a KF "list" not iterable, an unhashable KF or member
        return None
    durations = [entry.get("duration_minutes", 0) for entry in entries]
    costs = [entry.get("cost", 0) for entry in entries]
    if (
        set(map(type, chain(prerequisites, objectives))) <= {list}
        and set(map(type, chain(ids, titles, kfs, members))) <= {str}
        and set(map(type, chain(durations, costs))) <= {int}
        and min(chain(durations, costs), default=0) >= 0
        and not _SURROGATE_RE.search("".join(titles))
        and all(map(_TOKEN_RE.fullmatch, chain(ids, kfs, clouds, members)))
    ):
        quanta = list(map(object.__new__, repeat(LearnerQuantum, len(entries))))
        columns = (ids, titles, map(frozenset, prerequisites), map(frozenset, objectives), durations, costs)
        for name, column in zip(LearnerQuantum.__slots__, columns):  # the fields, in constructor order
            deque(map(getattr(LearnerQuantum, name).__set__, quanta, column), 0)
        return quanta, list(map(LQCloud, clouds, clouds.values()))
    return None


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, if it was
    running, and restore it even when the block raises.

    ``gc.freeze`` is not used, because it would also move the caller's
    objects out of reach of collection.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def parse_dictionary(source: Source) -> LQDictionary:
    """Parse dictionary JSON, checking structure only.

    Shape, types, tokens and unknown keys are enforced here. A valid file
    is accepted in bulk, one check per field over all units and clouds
    (``_bulk_accept``), and only that accept builds a dictionary. When one
    of its checks fails, the units and clouds are walked one by one only
    to raise on the first fault with its JSON path; a walk that finds no
    fault is a bug. Cross-entity rules (duplicate ids, dangling cloud
    members, ...) are left to ``load_dictionary`` and
    ``validate_dictionary``, so a validation front end can list them all.

    The cyclic garbage collector is paused while the file is decoded and
    checked (``_collector_paused``): the parse builds tens of thousands of
    objects and no reference cycle among them, so a collection in the
    middle would walk them and free nothing. The passes the pause skips
    come due as soon as it ends, over the new dictionary, so the CLI
    pauses the collector for its whole command as well.
    """
    with _collector_paused():
        doc = _require_object(_parse_json(source), "$", _TOP_LEVEL_KEYS)
        subject = _require_str(doc, "$", "subject")
        raw_quanta, raw_clouds = _required(doc, "$", "quanta", list), doc.get("clouds", {})
        accepted = _bulk_accept(raw_quanta, raw_clouds)
        if accepted is not None:
            return LQDictionary(subject, *accepted)
        for i, item in enumerate(raw_quanta):
            where = f"$.quanta[{i}]"
            entry = _require_object(item, where, _QUANTUM_KEYS)
            _require_token(_required(entry, where, "id", str), f"{where}.id")
            _require_str(entry, where, "title")
            _token_list(entry, where, "prerequisites")
            _token_list(entry, where, "objectives")
            _optional_count(entry, where, "duration_minutes")
            _optional_count(entry, where, "cost")
        for name, members in _typed(raw_clouds, dict, "$.clouds").items():
            where = f"$.clouds.{name}"
            _require_token(name, where)
            _tokens(_typed(members, list, where), where)
        raise AssertionError("the bulk accept refused a file the fault walk finds no fault in")


def load_dictionary(source: Source) -> LQDictionary:
    """Parse and fully validate a dictionary, raising on the first error.

    The parser enforces every rule on a single value, with the collector
    paused. A quick pass (over ``by_id``, which queries read next anyway,
    and one sum of both weight columns) looks for a break of the rules
    relating entries; only then does ``validate_dictionary`` run.

    Warnings (for example prerequisite/objective overlap) do not block
    loading; use ``validate_dictionary`` directly to inspect them.
    """
    dictionary = parse_dictionary(source)
    ids = dictionary.by_id.keys()
    if (
        len(ids) < len(dictionary.quanta)
        or not all(q.objectives for q in dictionary.quanta)
        or not all(c.member_ids <= ids for c in dictionary.clouds)
        or _past_digit_limit(sum(q.duration_minutes + q.cost for q in dictionary.quanta))
    ):
        for finding in validate_dictionary(dictionary):
            if finding.severity == "error":
                raise SchemaError(finding.subject, finding.message)
    return dictionary


def parse_profile(source: Source) -> LearnerProfile:
    """Parse learner-profile JSON with ``known`` and ``target`` KF lists."""
    doc = _require_object(_parse_json(source), "$", _PROFILE_KEYS)
    known = _token_list(doc, "$", "known") if "known" in doc else frozenset()
    return LearnerProfile(known=known, target=_token_list(doc, "$", "target"))


def serialize_dictionary(dictionary: LQDictionary) -> bytes:
    """Render a dictionary as canonical JSON (stable key and list order)."""
    doc: dict = {"subject": dictionary.subject}
    if dictionary.clouds:
        doc["clouds"] = {c.name: sorted(c.member_ids) for c in dictionary.clouds}
    doc["quanta"] = [
        {
            "id": q.id,
            "title": q.title,
            "prerequisites": sorted(q.prerequisites),
            "objectives": sorted(q.objectives),
            "duration_minutes": q.duration_minutes,
            "cost": q.cost,
        }
        for q in dictionary.quanta
    ]
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def serialize_profile(profile: LearnerProfile) -> bytes:
    doc = {"known": sorted(profile.known), "target": sorted(profile.target)}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def closure_over(known: Iterable[str], quanta: Iterable[LearnerQuantum]) -> KFSet:
    """Every KF reachable from ``known`` by repeatedly taking ready quanta.

    A quantum is ready once all its prerequisites are held; taking it adds
    its objectives. This least fixpoint is the same for any order of
    ``quanta``. One sweep in that order takes each quantum ready when
    reached. The rest count the prerequisites they still miss, on a
    waiter map built for this call: every newly gained KF lowers the
    counts of the quanta waiting on it, and one fires when its count
    hits zero.
    """
    held: set[str] = set(known)
    scope: list[LearnerQuantum] = []
    for q in quanta:
        if q.prerequisites <= held:
            held |= q.objectives
        else:
            scope.append(q)
    unmet = [q.prerequisites - held for q in scope]
    waiting_on = _positions_by_kf(unmet)
    missing = list(map(len, unmet))
    ready = [i for i, count in enumerate(missing) if not count]
    while ready:
        fresh = set().union(*[scope[i].objectives for i in ready]) - held
        held |= fresh
        ready = []
        for kf in fresh:
            for waiter in waiting_on.get(kf, ()):
                missing[waiter] -= 1
                if not missing[waiter]:
                    ready.append(waiter)
    return frozenset(held)
