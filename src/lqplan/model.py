"""Domain model for learning-path planning.

The unit of study is a learner quantum (LQ): a small piece of course
material that requires some knowledge factors (KFs) and delivers others.
A dictionary bundles the quanta for one subject, optionally grouped into
named clouds. A learner profile states what the learner already knows and
what they want to reach. Everything downstream (cover selection, ordering,
generation) works on the types defined here.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import IO, Iterable, Sequence, Union

KFSet = frozenset[str]

_TOKEN_RE = re.compile(r"\S+")  # always used with fullmatch

_TOP_LEVEL_KEYS = frozenset({"subject", "clouds", "quanta"})
_QUANTUM_KEYS = frozenset(
    {"id", "title", "prerequisites", "objectives", "duration_minutes", "cost"}
)
_PROFILE_KEYS = frozenset({"known", "target"})


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
    """What a cover should minimise."""

    COUNT = "count"
    DURATION = "duration"
    COST = "cost"

    def weight(self, quantum: "LearnerQuantum") -> int:
        if self is MinimalityMetric.COUNT:
            return 1
        if self is MinimalityMetric.DURATION:
            return quantum.duration_minutes
        return quantum.cost


def total_weight(quanta: Iterable["LearnerQuantum"], metric: MinimalityMetric) -> int:
    return sum(metric.weight(q) for q in quanta)


@dataclass(frozen=True)
class LearnerQuantum:
    """One unit of study material.

    ``prerequisites`` are the KFs a learner must hold before taking the
    unit; ``objectives`` are the KFs the unit delivers. Durations are in
    minutes, costs in whole currency units; both default to zero, meaning
    "free" under the corresponding metric.
    """

    id: str
    title: str
    prerequisites: KFSet = frozenset()
    objectives: KFSet = frozenset()
    duration_minutes: int = 0
    cost: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "prerequisites", frozenset(self.prerequisites))
        object.__setattr__(self, "objectives", frozenset(self.objectives))


@dataclass(frozen=True)
class LQCloud:
    """A named grouping of LQ ids, used to scope planning queries."""

    name: str
    member_ids: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "member_ids", frozenset(self.member_ids))


def _positions_by_kf(groups: Iterable[KFSet]) -> dict[str, Sequence[int]]:
    """Map each KF to the ascending positions of the groups that hold it.

    A KF held at one position maps to a one-item ``range`` instead of a
    list. Ranges are not tracked by the cycle collector, and these maps
    are built right after a dictionary is loaded: there, thousands of new
    tracked lists set off a full collection over the whole dictionary.
    """
    positions: dict[str, Sequence[int]] = {}
    for i, group in enumerate(groups):
        for kf in group:
            found = positions.get(kf)
            if found is None:
                positions[kf] = range(i, i + 1)
            elif type(found) is range:
                positions[kf] = [found[0], i]
            else:
                found.append(i)
    return positions


class Scope(tuple):
    """The quanta one query may draw on, compiled for lookups by KF.

    A ``Scope`` is a tuple of quanta, so it can stand wherever the plain
    tuple did. Its ``suppliers`` map, built on first use and kept as long
    as the scope, sends a KF to the positions of the quanta delivering it.
    """

    @cached_property
    def suppliers(self) -> dict[str, Sequence[int]]:
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

    ``quanta`` keeps file order (and may transiently hold duplicate ids so
    that validation can report them); ``by_id`` is a lookup cache where the
    last occurrence of an id wins.
    """

    subject: str
    quanta: tuple[LearnerQuantum, ...]
    clouds: tuple[LQCloud, ...] = ()

    def __post_init__(self) -> None:
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
        for c in self.clouds:
            if c.name == name:
                return c
        raise UnknownCloud(name)

    @cached_property
    def _scopes(self) -> dict[str | None, Scope]:
        return {}

    def scoped(self, scope: str | None = None) -> Scope:
        """The candidate quanta for a query: all of them, or one cloud's.

        The result is compiled once per scope name and cached on the
        dictionary, so every query on the same scope shares its maps.
        """
        compiled = self._scopes.get(scope)
        if compiled is None:
            if scope is None:
                compiled = Scope(self.quanta)
            else:
                members = self.cloud(scope).member_ids
                compiled = Scope(q for q in self.quanta if q.id in members)
            self._scopes[scope] = compiled
        return compiled


@dataclass(frozen=True)
class LearnerProfile:
    """What one learner already knows and what they are aiming for."""

    known: KFSet = frozenset()
    target: KFSet = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "known", frozenset(self.known))
        object.__setattr__(self, "target", frozenset(self.target))


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


def _sorted_tokens(values: Iterable[object]) -> list:
    """Sorted as usual. A code-built set that mixes strings with other
    values cannot be, so it lists the strings first, then the rest by repr."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=lambda v: (False, v) if isinstance(v, str) else (True, repr(v)))


def _is_token(value: object) -> bool:
    return isinstance(value, str) and _TOKEN_RE.fullmatch(value) is not None


def _bad_token(code: str, subject: object, value: object, what: str) -> Finding:
    return Finding("error", code, subject, f"{what} {value!r} is not a whitespace-free token")


def _named(value: object) -> str:
    """A bad id or cloud name as the subject of its own finding."""
    return value if isinstance(value, str) else repr(value)


def _is_repeat(seen: set, value: object) -> bool:
    """Whether ``value`` is already in ``seen``, which it then joins. An
    unhashable value, reported as a bad token already, is never a repeat."""
    try:
        repeat = value in seen
    except TypeError:
        return False
    seen.add(value)
    return repeat


# the cross-entity errors, which validate_dictionary and load_dictionary share
_DUPLICATE_ID = "LQ id defined more than once"
_NO_OBJECTIVES = "objectives must be non-empty"


def _dangling(member: object) -> str:
    return f"member {member!r} is not a defined LQ"


def validate_dictionary(dictionary: LQDictionary, *, strict: bool = False) -> list[Finding]:
    """Check semantic rules and return findings, worst problems as errors.

    Rules checked, in quanta order then cloud order:
      - ids and KFs are non-empty whitespace-free tokens
      - every LQ has at least one objective
      - durations and costs are non-negative integers
      - an LQ does not list a KF as both prerequisite and objective
        (a warning normally, an error under ``strict``)
      - LQ ids are unique; cloud names are unique
      - every cloud member resolves to a defined LQ

    A dictionary built in code never went through the file parser, so type
    and token checks are repeated here rather than trusted. Each distinct
    KF is matched once per call, and a unit's KFs are sorted only to list
    the ones that fail.
    """
    findings: list[Finding] = []
    tokens: set[str] = set()  # KFs already found to be tokens
    seen_ids: set = set()
    for q in dictionary.quanta:
        if not _is_token(q.id):
            findings.append(_bad_token("bad-id", _named(q.id), q.id, "id"))
        if _is_repeat(seen_ids, q.id):
            findings.append(Finding("error", "duplicate-id", q.id, _DUPLICATE_ID))
        kfs = q.prerequisites | q.objectives
        if not kfs <= tokens:
            bad = {kf for kf in kfs - tokens if not _is_token(kf)}
            tokens.update(kfs - bad)
            if bad:  # in the order of all the unit's KFs: a mixed-type set sorts by repr
                findings.extend(
                    _bad_token("bad-kf", q.id, kf, "knowledge factor")
                    for kf in _sorted_tokens(kfs)
                    if kf in bad
                )
        if not q.objectives:
            findings.append(Finding("error", "empty-objectives", q.id, _NO_OBJECTIVES))
        for attr, code in (("duration_minutes", "bad-duration"), ("cost", "bad-cost")):
            value = getattr(q, attr)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                findings.append(
                    Finding("error", code, q.id, f"{attr} must be a non-negative integer, got {value!r}")
                )
        overlap = q.prerequisites & q.objectives
        if overlap:
            severity = "error" if strict else "warning"
            listed = ", ".join(map(str, _sorted_tokens(overlap)))
            findings.append(
                Finding(severity, "prereq-objective-overlap", q.id,
                        f"listed as both prerequisite and objective: {listed}")
            )
    seen_clouds: set = set()
    for c in dictionary.clouds:
        if not _is_token(c.name):
            findings.append(_bad_token("bad-cloud-name", _named(c.name), c.name, "cloud name"))
        if _is_repeat(seen_clouds, c.name):
            findings.append(Finding("error", "duplicate-cloud-name", c.name, "cloud defined more than once"))
        for member in _sorted_tokens(c.member_ids):
            if member not in seen_ids:
                findings.append(Finding("error", "dangling-cloud-member", c.name, _dangling(member)))
    return findings


Source = Union[bytes, bytearray, str, IO[bytes], IO[str]]


def _decode(source: Source) -> str:
    if isinstance(source, (bytes, bytearray)):
        raw: Union[bytes, str] = bytes(source)
    elif isinstance(source, str):
        raw = source
    elif hasattr(source, "read"):
        raw = source.read()
    else:
        raise TypeError(f"cannot read from {type(source).__name__}")
    if isinstance(raw, (bytes, bytearray)):
        try:
            return bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    return raw


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


def _require_object(doc: object, where: str, allowed: frozenset[str]) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(where, f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{where}.{key}" if where else key, "unknown key")
    return doc


def _require_str(doc: dict, where: str, key: str) -> str:
    if key not in doc:
        raise SchemaError(f"{where}.{key}", "missing required key")
    value = doc[key]
    if not isinstance(value, str):
        raise SchemaError(f"{where}.{key}", f"expected a string, got {type(value).__name__}")
    return value


def _require_token(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(where, f"expected a string, got {type(value).__name__}")
    if not _TOKEN_RE.fullmatch(value):
        raise SchemaError(where, f"{value!r} is not a whitespace-free token")
    return value


def _tokens(items: list, where: str, tokens: set[str]) -> frozenset[str]:
    """The items as a set, each required to be a token. ``tokens`` holds the
    strings this parse has accepted so far: they are not checked again, and
    newly accepted ones join them. The first bad item, in list order, raises."""
    for i, item in enumerate(items):
        if not (isinstance(item, str) and item in tokens):
            tokens.add(_require_token(item, f"{where}[{i}]"))
    return frozenset(items)


def _token_list(doc: dict, where: str, key: str, tokens: set[str]) -> frozenset[str]:
    if key not in doc:
        raise SchemaError(f"{where}.{key}", "missing required key")
    value = doc[key]
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{key}", f"expected a list, got {type(value).__name__}")
    return _tokens(value, f"{where}.{key}", tokens)


def _optional_count(doc: dict, where: str, key: str) -> int:
    if key not in doc:
        return 0
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}.{key}", f"expected an integer, got {type(value).__name__}")
    if value < 0:
        raise SchemaError(f"{where}.{key}", f"must be non-negative, got {value}")
    return value


def parse_dictionary(source: Source) -> LQDictionary:
    """Parse dictionary JSON, checking structure only.

    Shape, types, tokens and unknown keys are enforced here, each distinct
    token string matched once; cross-entity rules (duplicate ids, dangling
    cloud members, ...) are left to ``load_dictionary`` and
    ``validate_dictionary``, so a validation front end can list them all.
    """
    tokens: set[str] = set()
    doc = _require_object(_parse_json(source), "", _TOP_LEVEL_KEYS)
    subject = _require_str(doc, "$", "subject")
    if "quanta" not in doc:
        raise SchemaError("$.quanta", "missing required key")
    raw_quanta = doc["quanta"]
    if not isinstance(raw_quanta, list):
        raise SchemaError("$.quanta", f"expected a list, got {type(raw_quanta).__name__}")
    quanta = []
    for i, item in enumerate(raw_quanta):
        where = f"$.quanta[{i}]"
        entry = _require_object(item, where, _QUANTUM_KEYS)
        quanta.append(
            LearnerQuantum(
                id=_require_token(_require_str(entry, where, "id"), f"{where}.id"),
                title=_require_str(entry, where, "title"),
                prerequisites=_token_list(entry, where, "prerequisites", tokens),
                objectives=_token_list(entry, where, "objectives", tokens),
                duration_minutes=_optional_count(entry, where, "duration_minutes"),
                cost=_optional_count(entry, where, "cost"),
            )
        )
    clouds = []
    raw_clouds = doc.get("clouds", {})
    if not isinstance(raw_clouds, dict):
        raise SchemaError("$.clouds", f"expected an object, got {type(raw_clouds).__name__}")
    for name, members in raw_clouds.items():
        where = f"$.clouds.{name}"
        _require_token(name, where)
        if not isinstance(members, list):
            raise SchemaError(where, f"expected a list, got {type(members).__name__}")
        clouds.append(LQCloud(name, _tokens(members, where, tokens)))
    return LQDictionary(subject=subject, quanta=tuple(quanta), clouds=tuple(clouds))


def load_dictionary(source: Source) -> LQDictionary:
    """Parse and fully validate a dictionary, raising on the first error.

    The parser enforces every rule on a single value, and a file cannot
    name a cloud twice, so only the rules relating entries are left: in
    quanta order, unique ids and non-empty objectives; then, cloud by
    cloud in sorted member order, defined members. The error raised is
    the first one ``validate_dictionary`` would report, word for word.

    Warnings (for example prerequisite/objective overlap) do not block
    loading; use ``validate_dictionary`` directly to inspect them.
    """
    dictionary = parse_dictionary(source)
    ids: set[str] = set()
    for q in dictionary.quanta:
        if q.id in ids:
            raise SchemaError(q.id, _DUPLICATE_ID)
        ids.add(q.id)
        if not q.objectives:
            raise SchemaError(q.id, _NO_OBJECTIVES)
    for c in dictionary.clouds:
        if not c.member_ids <= ids:
            raise SchemaError(c.name, _dangling(min(c.member_ids - ids)))
    return dictionary


def parse_profile(source: Source) -> LearnerProfile:
    """Parse learner-profile JSON with ``known`` and ``target`` KF lists."""
    doc = _require_object(_parse_json(source), "", _PROFILE_KEYS)
    tokens: set[str] = set()
    known = _token_list(doc, "$", "known", tokens) if "known" in doc else frozenset()
    return LearnerProfile(known=known, target=_token_list(doc, "$", "target", tokens))


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
    its objectives. This is a least fixpoint, computed with a worklist on
    a waiter map built for this call: each quantum counts the
    prerequisites it still misses, every newly held KF (the known ones
    first) lowers the counts of the quanta waiting on it, and a quantum
    fires exactly once, when its count hits zero.
    """
    scope = list(quanta)
    waiting_on = _positions_by_kf(q.prerequisites for q in scope)
    missing = [len(q.prerequisites) for q in scope]
    held: set[str] = set(known)
    fresh: set[str] = held  # held KFs whose waiters have not been told yet
    ready = [i for i, count in enumerate(missing) if not count]
    while True:
        for kf in fresh:
            for waiter in waiting_on.get(kf, ()):
                missing[waiter] -= 1
                if not missing[waiter]:
                    ready.append(waiter)
        if not ready:
            return frozenset(held)
        fresh = set().union(*[scope[i].objectives for i in ready]) - held
        held |= fresh
        ready = []
