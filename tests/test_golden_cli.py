"""Golden CLI corpus: the exact bytes of about 390 in-process CLI runs.

Each case maps a path-free name to the SHA-256 of its exit code, stdout
and stderr, so any change in what the CLI prints or returns shows up as a
named mismatch. Cases cover ``plan`` on the shared fixtures and on
generated dictionaries of 40 to 2,000 units: exact and greedy, every
metric, with and without ``--strict-residual`` in JSON, plus text, DOT,
``graph``, ``counsel`` and ``validate``. Exits 1 (infeasible), 3 (cycle)
and 4 (an exact-mode pool component over its cap) are entries like any
other.

After an intended output change, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints the added, removed and changed names before it writes, and
record them in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from conftest import make_cycle_trap, make_d1, make_d1_prime, make_dead_end, make_xy_pair
from lqplan import cli
from lqplan.cover import CoverConfig, CoverMode, backward_resolve
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import (
    LearnerProfile,
    LearnerQuantum,
    LQCloud,
    LQDictionary,
    LQPlanError,
    MinimalityMetric,
    closure_over,
    serialize_dictionary,
    validate_dictionary,
)
from lqplan.sequence import build_digraph, simulate_plan, topo_schedule

GOLDEN = Path(__file__).with_name("golden_cli.json")

# (flavor, seed, units, KFs); the broad profile asks for every eighth
# attainable KF so that plans chain through many rounds
GENERATED = (
    (Flavor.FEASIBLE, 1, 40, 36),
    (Flavor.FEASIBLE, 3, 200, 170),
    (Flavor.FEASIBLE, 2026, 2000, 1600),
    (Flavor.ADVERSARIAL, 13, 60, 50),
    (Flavor.INFEASIBLE, 5, 60, 50),
)


def _csv(kfs) -> str:
    return ",".join(sorted(kfs))


def corpus_inputs() -> list[tuple[str, LQDictionary, list[tuple[str, str, str, str | None]]]]:
    """Every corpus dictionary with its queries: (name, known, target, cloud)."""
    d1 = make_d1()
    d1_clouds = LQDictionary(subject="d1-clouds", quanta=d1.quanta, clouds=(LQCloud("ab", {"A", "B"}),))
    # a unit teaching its own prerequisite only fails ``validate --strict``;
    # a repeated id fails every load
    overlap = LQDictionary(subject="overlap", quanta=d1.quanta + (LearnerQuantum("D", "Refresher", {"k2"}, {"k2", "k5"}),))
    duplicate = LQDictionary(subject="duplicate", quanta=d1.quanta + d1.quanta[:1])
    trap, trap_profile = make_cycle_trap()
    # 26 units delivering one target: a single pool component over the
    # exact-mode cap
    wide = LQDictionary(
        subject="wide", quanta=tuple(LearnerQuantum(f"w{i:02d}", "Wide", (), {"t"}) for i in range(26))
    )
    inputs = [
        ("d1", d1, [("k1-k3", "k1", "k3", None), ("k1-k3k4", "k1", "k3,k4", None), ("none-k3", "", "k3", None)]),
        ("d1-clouds", d1_clouds, [("ab-k1-k3", "k1", "k3", "ab")]),
        ("d1-prime", make_d1_prime(), [("k1-k3", "k1", "k3", None)]),
        ("xy", make_xy_pair(), [("none-ab", "", "a,b", None)]),
        ("overlap", overlap, [("k1-k5", "k1", "k5", None)]),
        ("duplicate", duplicate, [("k1-k3", "k1", "k3", None)]),
        ("trap", trap, [("none-t1t2", _csv(trap_profile.known), _csv(trap_profile.target), None)]),
        ("wide", wide, [("none-t", "", "t", None)]),
        ("dead-end", make_dead_end(), [("none-t", "", "t", None)]),
    ]
    for flavor, seed, units, kfs in GENERATED:
        dictionary, profile = generate(GenSpec(seed=seed, lq_count=units, kf_count=kfs, flavor=flavor))
        known = _csv(profile.known)
        queries = [("gen", known, _csv(profile.target), None)]
        attainable = sorted(closure_over(profile.known, dictionary.quanta) - profile.known)
        if flavor is Flavor.FEASIBLE:
            queries.append(("broad", known, _csv(attainable[::8]), None))
        for cloud in dictionary.clouds:
            queries.append((f"cloud-{cloud.name}", known, _csv(profile.target), cloud.name))
        inputs.append((f"{flavor.value}-{units}", dictionary, queries))
    return inputs


def corpus_cases(dict_dir: Path) -> dict[str, list[str]]:
    """Case name to argv, with the corpus dictionaries written to ``dict_dir``."""
    cases: dict[str, list[str]] = {}
    for dict_name, dictionary, queries in corpus_inputs():
        path = dict_dir / f"{dict_name}.json"
        path.write_bytes(serialize_dictionary(dictionary))
        cases[f"validate {dict_name}"] = ["validate", str(path)]
        cases[f"validate {dict_name} strict"] = ["validate", str(path), "--strict"]
        first, last = dictionary.quanta[0].id, dictionary.quanta[-1].id
        cases[f"counsel {dict_name} {first} text"] = ["counsel", "--dict", str(path), "--lq", first]
        cases[f"counsel {dict_name} {last} json"] = [
            "counsel", "--dict", str(path), "--known", queries[0][1], "--lq", last, "--format", "json",
        ]
        for query_name, known, target, cloud in queries:
            base = ["plan", "--dict", str(path), "--known", known, "--target", target]
            if cloud is not None:
                base += ["--cloud", cloud]
            prefix = f"{dict_name}/{query_name}"
            for mode in ("exact", "greedy"):
                for metric in ("count", "duration", "cost"):
                    for strict in (False, True):
                        argv = base + ["--mode", mode, "--metric", metric, "--format", "json"]
                        if strict:
                            argv.append("--strict-residual")
                        residual = "strict" if strict else "reuse"
                        cases[f"plan {prefix} {mode} {metric} {residual} json"] = argv
            cases[f"plan {prefix} text"] = base
            cases[f"plan {prefix} dot"] = base + ["--format", "dot"]
            if cloud is None:
                cases[f"graph {prefix}"] = ["graph", "--dict", str(path), "--known", known, "--target", target]
    # a token with a trailing newline is no token: every load refuses it
    a, b, c = make_d1().quanta
    for dict_name, quanta in (
        ("newline-id", (replace(a, id="A\n"), b, c)),
        ("newline-kf", (a, b, replace(c, prerequisites={"k1\n"}))),
    ):
        path = dict_dir / f"{dict_name}.json"
        path.write_bytes(serialize_dictionary(LQDictionary(subject=dict_name, quanta=quanta)))
        cases[f"validate {dict_name}"] = ["validate", str(path)]
        cases[f"plan {dict_name}/k1-k3 text"] = ["plan", "--dict", str(path), "--known", "k1", "--target", "k3"]
    return cases


def run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(list(result)).encode("utf-8")).hexdigest()


def corpus_diff(golden: dict[str, str], actual: dict[str, str]) -> tuple[list[str], list[str], list[str]]:
    """The names only ``golden`` has, the names only ``actual`` has, and the
    shared names whose hashes differ, each list sorted."""
    missing = sorted(set(golden) - set(actual))
    extra = sorted(set(actual) - set(golden))
    changed = sorted(name for name in set(golden) & set(actual) if golden[name] != actual[name])
    return missing, extra, changed


def write_golden(path: Path, hashes: dict[str, str]) -> None:
    """Print the names added, removed and changed against ``path``, then
    write ``hashes`` there, sorted by name."""
    removed, added, changed = corpus_diff(json.loads(path.read_text()), hashes)
    for label, names in (("added", added), ("removed", removed), ("changed", changed)):
        for name in names:
            print(f"{label}: {name}", file=sys.stderr)
    path.write_text(json.dumps(dict(sorted(hashes.items())), indent=1) + "\n")
    print(f"wrote {len(hashes)} cases to {path}", file=sys.stderr)


def run_corpus(dict_dir: Path) -> dict[str, tuple[int, str, str]]:
    return {name: run_case(argv) for name, argv in corpus_cases(dict_dir).items()}


@pytest.fixture(scope="module")
def corpus_results(tmp_path_factory) -> dict[str, tuple[int, str, str]]:
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_corpus_matches_golden(corpus_results):
    golden = json.loads(GOLDEN.read_text())
    actual = {name: digest(result) for name, result in corpus_results.items()}
    missing, extra, changed = corpus_diff(golden, actual)
    assert not (missing or extra or changed), (
        f"missing: {missing}\nextra: {extra}\nchanged: {changed}"
    )


def test_corpus_reaches_every_exit_code(corpus_results):
    codes = {code for code, _, _ in corpus_results.values()}
    assert codes == {0, 1, 2, 3, 4}


def test_graph_is_plan_dot_with_defaults(corpus_results):
    graph_cases = [name for name in corpus_results if name.startswith("graph ")]
    assert len(graph_cases) > 10
    for name in graph_cases:
        plan_name = "plan " + name[len("graph "):] + " dot"
        assert corpus_results[name] == corpus_results[plan_name], name


def test_golden_plans_can_be_followed():
    """Every plan the corpus stages, under every option set, passes the
    forward simulation: a unit is never staged before what it needs."""
    for dict_name, dictionary, queries in corpus_inputs():
        if any(f.severity == "error" for f in validate_dictionary(dictionary)):
            continue  # every load refuses it
        for query_name, known, target, cloud in queries:
            profile = LearnerProfile(frozenset(filter(None, known.split(","))), frozenset(target.split(",")))
            for mode, metric, reuse in product(CoverMode, MinimalityMetric, (True, False)):
                config = CoverConfig(metric, mode, reuse)
                try:
                    trace = backward_resolve(profile, dictionary, cloud, config)
                    plan = topo_schedule(build_digraph(trace.solution, dictionary, profile), dictionary)
                except LQPlanError:
                    continue
                verdict = simulate_plan(plan, dictionary, profile)
                assert verdict.ok, (dict_name, query_name, config, verdict)


def test_graph_on_cycle_exits_3(corpus_results):
    code, out, err = corpus_results["graph trap/none-t1t2"]
    assert code == 3
    assert out == ""
    assert err == "lqplan: prerequisite cycle: X -> Y -> X\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_corpus(Path(tmp))
    write_golden(GOLDEN, {name: digest(result) for name, result in results.items()})
