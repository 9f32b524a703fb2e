"""An optimum that owes nothing to lqplan's own search: every greedy round's
pool of broad queries on generated dictionaries, solved as a 0-1 integer
program by ``scipy.optimize.milp`` (the HiGHS solver, Huangfu & Hall 2018).

Exact mode's weight must equal the optimum; greedy's must stay within
Chvátal's bound, H(d) times the optimum, d being the most targets one
unit of the pool covers.
"""

from __future__ import annotations

import pytest

optimize = pytest.importorskip("scipy.optimize")

from lqplan import cover  # noqa: E402
from lqplan.cover import CoverConfig, CoverMode, backward_resolve, minimal_cover  # noqa: E402
from lqplan.generate import Flavor, GenSpec, generate  # noqa: E402
from lqplan.model import LearnerProfile, LQPlanError, MinimalityMetric, closure_over, total_weight  # noqa: E402
from oracles import harmonic, relevant_pool  # noqa: E402

SPECS = [GenSpec(seed, 2000, 1600, flavor) for seed in range(5) for flavor in Flavor]  # 59 pools, about 2 s
TARGET_STRIDE = 8  # every 8th attainable KF is a target
TARGET_MAX = 150


def greedy_rounds(spec: GenSpec, monkeypatch) -> list[tuple[frozenset, list, frozenset]]:
    """``(targets, pool, known)`` of each round of a greedy broad query on ``spec``'s dictionary."""
    dictionary, profile = generate(spec)
    attainable = sorted(closure_over(profile.known, dictionary.quanta) - profile.known)
    target = frozenset(attainable[::TARGET_STRIDE][:TARGET_MAX])
    rounds = []

    def recording(targets, candidates, known, config):
        rounds.append((frozenset(targets), relevant_pool(frozenset(targets), candidates), frozenset(known)))
        return minimal_cover(targets, candidates, known, config)

    monkeypatch.setattr(cover, "minimal_cover", recording)  # backward_resolve looks it up per round
    try:
        backward_resolve(LearnerProfile(profile.known, target), dictionary, config=CoverConfig(mode=CoverMode.GREEDY))
    except LQPlanError:
        pass  # the rounds before a failed one are pools all the same
    monkeypatch.undo()
    return rounds


def milp_optimum(targets: frozenset, pool: list, metric: MinimalityMetric) -> int:
    """The least cover weight: binary x over the pool, one row ``sum x >= 1`` per target."""
    rows = [[1 if kf in q.objectives else 0 for q in pool] for kf in sorted(targets)]
    weights = [metric.weight(q) for q in pool]
    result = optimize.milp(
        weights,
        constraints=optimize.LinearConstraint(rows, lb=1),
        integrality=[1] * len(pool),
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert result.status == 0, result.message
    optimum = round(result.fun)
    assert abs(result.fun - optimum) < 1e-6
    return optimum


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.flavor.value}-s{s.seed}")
def test_round_weights_against_the_milp_optimum(spec, monkeypatch):
    rounds = greedy_rounds(spec, monkeypatch)
    assert rounds
    for targets, pool, known in rounds:
        d = max(len(q.objectives & targets) for q in pool)
        for metric in MinimalityMetric:
            optimum = milp_optimum(targets, pool, metric)
            weight = {}
            for mode in CoverMode:
                picked = minimal_cover(targets, pool, known, CoverConfig(metric, mode))
                weight[mode] = total_weight([q for q in pool if q.id in picked], metric)
            assert weight[CoverMode.EXACT] == optimum
            if all(map(metric.weight, pool)):  # zero weights wait for ROADMAP item 1
                assert weight[CoverMode.GREEDY] <= harmonic(d) * optimum
