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
within five times the median measured when the gate was set; the exact
path, which solves each round's independent components, is gated the
same way at 20k and 50k units under ``scale``. One more
gate times the dearest way to fail: a broad greedy query on a 50k
adversarial dictionary that also asks for a KF only the trap pair
supplies, which resolves in full before its stage-0 ``Infeasible``.

Tier-1 runs everything not marked ``scale``; ``pytest -m scale`` runs the
rest. After an intended output change, rewrite the corpus (every size,
about two and a half minutes) with

    PYTHONPATH=src python tests/test_golden_scale.py

which prints the added, removed and changed names before it writes, and
record them in CHANGES.md.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest

from lqplan.cover import CoverConfig, CoverMode, Infeasible, backward_resolve
from lqplan.generate import Flavor, GenSpec, generate
from lqplan.model import LearnerProfile, LQDictionary, closure_over, serialize_dictionary
from lqplan.sequence import build_digraph, simulate_plan, topo_schedule
from test_golden_cli import _csv, corpus_diff, digest, run_case, write_golden

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
# The same for the exact path, which splits each round's pool into its
# independent components (11 runs per size, same VM; the greedy medians
# measured alongside were 0.17 and 0.48 s).
EXACT_GATE_MEDIAN_S = {20_000: 0.26, 50_000: 0.69}
GATE_HEADROOM = 5
# Median seconds of the stage-0-unreachable greedy resolve on 50k
# adversarial units, measured the same way (22 runs).
TRAP_GATE_MEDIAN_S = 0.45


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
    missing, extra, changed = corpus_diff(golden, actual)
    assert not (missing or extra or changed), (
        f"missing: {missing}\nextra: {extra}\nchanged: {changed}"
    )


def broad_path_seconds(units: int, mode: CoverMode) -> float:
    """Seconds of the in-memory path on the broad target of a freshly
    generated feasible dictionary; the staged plan must simulate."""
    dictionary, generated = instance(Flavor.FEASIBLE, units)
    profile = broad_profile(dictionary, generated)
    start = time.perf_counter()
    trace = backward_resolve(profile, dictionary, config=CoverConfig(mode=mode))
    graph = build_digraph(trace.solution, dictionary, profile)
    plan = topo_schedule(graph, dictionary)
    verdict = simulate_plan(plan, dictionary, profile)
    elapsed = time.perf_counter() - start
    assert verdict.ok
    return elapsed


@pytest.mark.parametrize(
    "units",
    [pytest.param(units, marks=[pytest.mark.scale] if units > 20_000 else []) for units in GATE_MEDIAN_S],
)
def test_greedy_path_gate(units):
    elapsed = broad_path_seconds(units, CoverMode.GREEDY)
    bound = GATE_HEADROOM * GATE_MEDIAN_S[units]
    assert elapsed < bound, f"greedy path on {units} units took {elapsed:.3f}s, gate {bound:.3f}s"


@pytest.mark.scale
@pytest.mark.parametrize("units", list(EXACT_GATE_MEDIAN_S))
def test_exact_path_gate(units):
    elapsed = broad_path_seconds(units, CoverMode.EXACT)
    bound = GATE_HEADROOM * EXACT_GATE_MEDIAN_S[units]
    assert elapsed < bound, f"exact path on {units} units took {elapsed:.3f}s, gate {bound:.3f}s"


@pytest.mark.scale
def test_unreachable_broad_query_gate():
    dictionary, generated = instance(Flavor.ADVERSARIAL, 50_000)
    profile = broad_profile(dictionary, generated)
    # the last unit is one of the trap pair; the KF it makes is the one
    # nothing outside the pair supplies
    [trap_kf] = dictionary.quanta[-1].objectives - closure_over(profile.known, dictionary.quanta)
    profile = LearnerProfile(known=profile.known, target=profile.target | {trap_kf})
    start = time.perf_counter()
    with pytest.raises(Infeasible) as err:
        backward_resolve(profile, dictionary, config=CoverConfig(mode=CoverMode.GREEDY))
    elapsed = time.perf_counter() - start
    assert (err.value.stage, err.value.uncovered) == (0, frozenset({trap_kf}))
    bound = GATE_HEADROOM * TRAP_GATE_MEDIAN_S
    assert elapsed < bound, f"unreachable broad query on 50000 units took {elapsed:.3f}s, gate {bound:.3f}s"


if __name__ == "__main__":
    hashes: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for flavor, units in CORPUS:
            hashes.update(run_corpus(flavor, units, Path(tmp)))
    write_golden(GOLDEN, hashes)
