"""Golden hashes and time gates at scale: generated dictionaries of 1k to 100k units.

Each golden case hashes the exit code, stdout and stderr of one in-process
``plan --format json`` run, the way ``test_golden_cli.py`` does. The
dictionaries come from the generator with seed 2026, four KFs per five
units: the feasible flavor at 1k, 2k and 5k units in tier-1 and at 10k,
20k, 50k and 100k under the ``scale`` marker, and the adversarial and
infeasible flavors at 5k. Every dictionary is asked for its generated
target; a feasible one also for a broad target, every eighth attainable
KF. Each query runs in exact and greedy mode, under every metric, with
and without ``--strict-residual``.

The gates time the greedy path in memory (resolve, digraph, staging and
simulation, no file load) on the broad target and require a sound plan
within five times the median measured when the gate was set.

Tier-1 runs everything not marked ``scale``; ``pytest -m scale`` runs the
rest. After an intended output change, rewrite the corpus (every size,
about two and a half minutes) with

    PYTHONPATH=src python tests/test_golden_scale.py

and record every changed entry in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

from lqplan.cover import CoverConfig, CoverMode, backward_resolve
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import LearnerProfile, LQDictionary, closure_over, serialize_dictionary
from lqplan.sequence import build_digraph, simulate_plan, topo_schedule
from test_golden_cli import _csv, digest, run_case

GOLDEN = Path(__file__).with_name("golden_scale.json")
SEED = 2026
TIER1_UNITS = (1_000, 2_000, 5_000)
SCALE_UNITS = (10_000, 20_000, 50_000, 100_000)
CORPUS = (
    [(Flavor.FEASIBLE, units) for units in TIER1_UNITS]
    + [(Flavor.ADVERSARIAL, 5_000), (Flavor.INFEASIBLE, 5_000)]
    + [(Flavor.FEASIBLE, units) for units in SCALE_UNITS]
)

# Median seconds of the in-memory greedy path on the broad target, each run
# on a freshly generated dictionary as in the gate (so the scope's supplier
# map is built inside the timing): 11 runs per size on a 2-vCPU VM with
# CPython 3.11.7.
GATE_MEDIAN_S = {20_000: 0.13, 50_000: 0.53, 100_000: 1.38}
GATE_HEADROOM = 5


def instance(flavor: Flavor, units: int) -> tuple[LQDictionary, LearnerProfile]:
    return generate(GenSpec(seed=SEED, lq_count=units, kf_count=units * 4 // 5, flavor=flavor))


def broad_profile(dictionary: LQDictionary, profile: LearnerProfile) -> LearnerProfile:
    """The generated known set with every eighth attainable KF as target."""
    attainable = sorted(closure_over(profile.known, dictionary.quanta) - profile.known)
    return LearnerProfile(known=profile.known, target=frozenset(attainable[::8]))


def corpus_cases(flavor: Flavor, units: int, dict_dir: Path) -> dict[str, list[str]]:
    """Case name to argv for one corpus dictionary, written to ``dict_dir``."""
    dictionary, profile = instance(flavor, units)
    dict_name = f"{flavor.value}-{units}"
    path = dict_dir / f"{dict_name}.json"
    path.write_bytes(serialize_dictionary(dictionary))
    queries = [("gen", profile)]
    if flavor is Flavor.FEASIBLE:
        queries.append(("broad", broad_profile(dictionary, profile)))
    cases: dict[str, list[str]] = {}
    for query_name, query in queries:
        base = ["plan", "--dict", str(path), "--known", _csv(query.known), "--target", _csv(query.target)]
        for mode in ("exact", "greedy"):
            for metric in ("count", "duration", "cost"):
                for strict in (False, True):
                    argv = base + ["--mode", mode, "--metric", metric, "--format", "json"]
                    if strict:
                        argv.append("--strict-residual")
                    residual = "strict" if strict else "reuse"
                    cases[f"plan {dict_name}/{query_name} {mode} {metric} {residual} json"] = argv
    return cases


def run_corpus(flavor: Flavor, units: int, dict_dir: Path) -> dict[str, str]:
    return {name: digest(run_case(argv)) for name, argv in corpus_cases(flavor, units, dict_dir).items()}


def _marked(flavor: Flavor, units: int):
    marks = [pytest.mark.scale] if units in SCALE_UNITS else []
    return pytest.param(flavor, units, marks=marks, id=f"{flavor.value}-{units}")


@pytest.mark.parametrize("flavor, units", [_marked(flavor, units) for flavor, units in CORPUS])
def test_corpus_matches_golden(flavor, units, tmp_path):
    prefix = f"plan {flavor.value}-{units}/"
    golden = {name: h for name, h in json.loads(GOLDEN.read_text()).items() if name.startswith(prefix)}
    actual = run_corpus(flavor, units, tmp_path)
    missing = sorted(set(golden) - set(actual))
    extra = sorted(set(actual) - set(golden))
    changed = sorted(name for name in set(golden) & set(actual) if golden[name] != actual[name])
    assert not (missing or extra or changed), (
        f"missing: {missing}\nextra: {extra}\nchanged: {changed}"
    )


@pytest.mark.parametrize(
    "units",
    [pytest.param(units, marks=[pytest.mark.scale] if units > 20_000 else []) for units in GATE_MEDIAN_S],
)
def test_greedy_path_gate(units):
    dictionary, generated = instance(Flavor.FEASIBLE, units)
    profile = broad_profile(dictionary, generated)
    start = time.perf_counter()
    trace = backward_resolve(profile, dictionary, config=CoverConfig(mode=CoverMode.GREEDY))
    graph = build_digraph(trace.solution, dictionary, profile)
    plan = topo_schedule(graph, dictionary)
    verdict = simulate_plan(plan, dictionary, profile)
    elapsed = time.perf_counter() - start
    assert verdict.ok
    bound = GATE_HEADROOM * GATE_MEDIAN_S[units]
    assert elapsed < bound, f"greedy path on {units} units took {elapsed:.3f}s, gate {bound:.3f}s"


if __name__ == "__main__":
    hashes: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for flavor, units in CORPUS:
            hashes.update(run_corpus(flavor, units, Path(tmp)))
    GOLDEN.write_text(json.dumps(dict(sorted(hashes.items())), indent=1) + "\n")
    print(f"wrote {len(hashes)} cases to {GOLDEN}", file=sys.stderr)
