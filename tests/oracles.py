"""Independent reference implementations used to check the real ones.

Everything here favors obviousness over speed: closure by repeated full
rescans, covers by exhaustive subset enumeration, target masks by set
intersection, digraph edges by checking every pair of units, the exact
branch and bound with its first, weaker bound, a dictionary load that
parses and then runs every validation rule. None of it imports the
algorithms under test beyond the plain data types and the JSON decoding.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from lqplan.model import (
    Finding,
    KFSet,
    LearnerProfile,
    LearnerQuantum,
    LQCloud,
    LQDictionary,
    MinimalityMetric,
    SchemaError,
    _parse_json,
)


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


def harmonic(d: int) -> Fraction:
    """H(d), Chvátal's factor: a greedy cover weighs at most H(d) times the
    least, d being the most targets one unit covers."""
    return sum(Fraction(1, i) for i in range(1, d + 1))


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
    """The plan-level reference: the best subset of the quanta whose closure
    from the known set reaches the target, or None if no subset does.

    Every subset is tried. The best ranks first by total weight, then by
    fewer unmet prerequisites outside ``known``, then by the smaller sorted
    ids (``selection_key``).
    """
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


def encode_by_intersection(
    targets: KFSet, pool: Sequence[LearnerQuantum], metric: MinimalityMetric
) -> tuple[int, list[int], list[int]]:
    """The pool as the solvers read it, from each member's intersection
    with the targets: target i in sorted order is bit i, a member's mask
    sums the bits of the targets it delivers, and its weight is its
    duration, cost or 1."""
    order = sorted(targets)
    masks = [sum(1 << order.index(kf) for kf in targets & q.objectives) for q in pool]
    columns = {MinimalityMetric.COUNT: lambda q: 1, MinimalityMetric.DURATION: lambda q: q.duration_minutes,
               MinimalityMetric.COST: lambda q: q.cost}
    return (1 << len(order)) - 1, masks, [columns[metric](q) for q in pool]


def digraph_by_pairs(solution: Iterable[str], dictionary: LQDictionary, profile: LearnerProfile) -> dict:
    """The prerequisite digraph's fields by checking every ordered pair of
    the selection's units (each id's unit is ``by_id``'s): an edge P -> Q
    for P != Q when P delivers a prerequisite of Q outside the known set.
    A zero-prerequisite node needs nothing outside it; a finish node
    delivers a target and is the source of no edge."""
    units = [dictionary.by_id[lq_id] for lq_id in set(solution)]
    edges = frozenset(
        (p.id, q.id) for p in units for q in units if p.id != q.id and p.objectives & (q.prerequisites - profile.known)
    )
    return {
        "nodes": frozenset(q.id for q in units),
        "edges": edges,
        "zero_prereq": frozenset(q.id for q in units if q.prerequisites <= profile.known),
        "finish": frozenset(q.id for q in units if q.objectives & profile.target and all(p != q.id for p, _ in edges)),
    }


# -- exact cover before the price bound --------------------------------------
#
# The branch and bound as it stood with its first bound (the dearest of the
# open targets' cheapest options), copied verbatim with the selection key
# it ranks leaves by. It visits every cover without a free-riding member,
# so any stronger bound must still return its pick, call for call.

def _selection_key(
    chosen: Iterable[int], weights: list[int], needs: list[KFSet]
) -> tuple[int, int, tuple[int, ...]]:
    """The preference order for covers of an encoded pool: lighter total
    weight, then fewer unmet prerequisite KFs, then the smaller sorted
    index tuple (the smaller sorted ids, as pools are sorted by id). Every
    exact selection point in this module uses this chain, so identical
    inputs always yield identical picks."""
    need = frozenset().union(*(needs[i] for i in chosen))
    return sum(weights[i] for i in chosen), len(need), tuple(sorted(chosen))


def exact_cover_reference(
    full: int, masks: list[int], weights: list[int], needs: list[KFSet], incumbent: list[int]
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


# -- two-pass dictionary load ------------------------------------------------
#
# The parser and validator as they stood before the one-pass load: the
# parser checks every token of every list, the validator checks every
# token again and sorts every unit's KFs, and a load raises the
# validator's first error. The changes: the token pattern matches the
# whole string (``^\S+$`` also accepted a trailing newline), no string
# read may hold a lone surrogate, which no UTF-8 output can print, and the
# validator checks the subject and titles of a dictionary built in code.

_TOKEN_RE = re.compile(r"\S+")
_TOP_LEVEL_KEYS = frozenset({"subject", "clouds", "quanta"})
_QUANTUM_KEYS = frozenset(
    {"id", "title", "prerequisites", "objectives", "duration_minutes", "cost"}
)


def _sorted_tokens(values: Iterable[object]) -> list:
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=lambda v: (False, v) if isinstance(v, str) else (True, repr(v)))


def _has_surrogate(value: str) -> bool:
    return any("\ud800" <= ch <= "\udfff" for ch in value)


def _token_fault(value: object) -> Optional[str]:
    """Why ``value`` is not a token, or None if it is one."""
    if isinstance(value, str) and _has_surrogate(value):
        return f"{value!r} holds a lone surrogate, which is not a Unicode character"
    if not isinstance(value, str) or not _TOKEN_RE.fullmatch(value):
        return f"{value!r} is not a whitespace-free token"
    return None


def _check_token(findings: list[Finding], code: str, subject: str, value: str, what: str) -> None:
    fault = _token_fault(value)
    if fault:
        findings.append(Finding("error", code, subject, f"{what} {fault}"))


def _check_text(findings: list[Finding], code: str, subject: str, value: object, what: str) -> None:
    if not isinstance(value, str):
        findings.append(Finding("error", code, subject, f"{what} {value!r} is not a string"))
    elif _has_surrogate(value):
        findings.append(Finding("error", code, subject, f"{what} {_token_fault(value)}"))


def validate_two_pass(dictionary: LQDictionary, *, strict: bool = False) -> list[Finding]:
    findings: list[Finding] = []
    subject = dictionary.subject
    _check_text(findings, "bad-subject", subject if isinstance(subject, str) else repr(subject), subject, "subject")
    seen_ids: set[str] = set()
    totals = {"duration_minutes": 0, "cost": 0}
    for q in dictionary.quanta:
        _check_token(findings, "bad-id", q.id if isinstance(q.id, str) else repr(q.id), q.id, "id")
        if q.id in seen_ids:
            findings.append(Finding("error", "duplicate-id", q.id, "LQ id defined more than once"))
        seen_ids.add(q.id)
        _check_text(findings, "bad-title", q.id, q.title, "title")
        for kf in _sorted_tokens(q.prerequisites | q.objectives):
            _check_token(findings, "bad-kf", q.id, kf, "knowledge factor")
        if not q.objectives:
            findings.append(Finding("error", "empty-objectives", q.id, "objectives must be non-empty"))
        for attr, code in (("duration_minutes", "bad-duration"), ("cost", "bad-cost")):
            value = getattr(q, attr)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                findings.append(
                    Finding("error", code, q.id, f"{attr} must be a non-negative integer, got {value!r}")
                )
            else:
                totals[attr] += value
        overlap = q.prerequisites & q.objectives
        if overlap:
            severity = "error" if strict else "warning"
            listed = ", ".join(map(str, _sorted_tokens(overlap)))
            findings.append(
                Finding(severity, "prereq-objective-overlap", q.id,
                        f"listed as both prerequisite and objective: {listed}")
            )
    for attr, total in totals.items():
        try:
            str(total)  # the plan's totals are printed
        except ValueError:
            findings.append(Finding("error", "long-total", attr, "the sum over all units has too many digits"))
    seen_clouds: set[str] = set()
    for c in dictionary.clouds:
        _check_token(findings, "bad-cloud-name", c.name, c.name, "cloud name")
        if c.name in seen_clouds:
            findings.append(Finding("error", "duplicate-cloud-name", c.name, "cloud defined more than once"))
        seen_clouds.add(c.name)
        for member in _sorted_tokens(c.member_ids):
            if member not in dictionary.by_id:
                findings.append(
                    Finding("error", "dangling-cloud-member", c.name, f"member {member!r} is not a defined LQ")
                )
    return findings


def _require_object(doc: object, where: str, allowed: frozenset[str]) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(where, f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{where}.{key}", "unknown key")
    return doc


def _require_str(doc: dict, where: str, key: str) -> str:
    if key not in doc:
        raise SchemaError(f"{where}.{key}", "missing required key")
    value = doc[key]
    if not isinstance(value, str):
        raise SchemaError(f"{where}.{key}", f"expected a string, got {type(value).__name__}")
    if _has_surrogate(value):
        raise SchemaError(f"{where}.{key}", _token_fault(value))
    return value


def _require_token(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(where, f"expected a string, got {type(value).__name__}")
    fault = _token_fault(value)
    if fault:
        raise SchemaError(where, fault)
    return value


def _token_list(doc: dict, where: str, key: str) -> frozenset[str]:
    if key not in doc:
        raise SchemaError(f"{where}.{key}", "missing required key")
    value = doc[key]
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{key}", f"expected a list, got {type(value).__name__}")
    return frozenset(_require_token(item, f"{where}.{key}[{i}]") for i, item in enumerate(value))


def _optional_count(doc: dict, where: str, key: str) -> int:
    if key not in doc:
        return 0
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}.{key}", f"expected an integer, got {type(value).__name__}")
    if value < 0:
        raise SchemaError(f"{where}.{key}", f"must be non-negative, got {value}")
    return value


def parse_two_pass(source) -> LQDictionary:
    doc = _require_object(_parse_json(source), "$", _TOP_LEVEL_KEYS)
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
                prerequisites=_token_list(entry, where, "prerequisites"),
                objectives=_token_list(entry, where, "objectives"),
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
        clouds.append(
            LQCloud(name, frozenset(_require_token(m, f"{where}[{i}]") for i, m in enumerate(members)))
        )
    return LQDictionary(subject=subject, quanta=tuple(quanta), clouds=tuple(clouds))


def load_two_pass(source) -> LQDictionary:
    """Parse, then run every validation rule and raise the first error."""
    dictionary = parse_two_pass(source)
    for finding in validate_two_pass(dictionary):
        if finding.severity == "error":
            raise SchemaError(finding.subject, finding.message)
    return dictionary
