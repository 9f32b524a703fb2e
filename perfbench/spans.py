"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces module-level names in lqplan with wrappers that
record a span per call. ``backward_resolve`` looks ``minimal_cover`` and
``closure_over`` up in ``lqplan.cover`` at call time, and ``load_dictionary``
looks up ``parse_dictionary`` and ``validate_dictionary`` in ``lqplan.model``,
so every round and every load is seen. The CLI imported its collaborators by
name, so its own bindings are replaced too, which lets ``cli.main`` run in
process under the same spans.

Counters are computed outside the spans: the time a wrapper spends counting
is added to ``excluded`` and the span clock subtracts it, so no span,
parent or child, includes bookkeeping.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import lqplan.cli as cli
import lqplan.cover as cover
import lqplan.model as model
import lqplan.sequence as sequence
from lqplan import ExactTooLarge, Infeasible


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.stack: list[int] = []
        self.excluded = 0.0
        self.op = ""
        self.counters: Counter = Counter()
        self.pool_max = 0
        self._saved: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return perf_counter() - self.excluded

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.now(), None, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.now()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end(index)
                if on_error is not None:
                    self._uncounted(on_error, exc)
                raise
            self.end(index)
            if after is not None:
                self._uncounted(after, result)
            return result

        return traced

    def _uncounted(self, fn, *args) -> None:
        start = perf_counter()
        fn(*args)
        self.excluded += perf_counter() - start

    def add(self, key: str, value: int) -> None:
        """Bump a counter without charging the time to any open span."""
        self._uncounted(self.counters.update, {key: value})

    def _minimal_cover(self, fn):
        inner = self._wrap("cover.minimal_cover", fn, on_error=self._cover_error)

        @functools.wraps(fn)
        def traced(targets, candidates, known, config):
            start = perf_counter()
            candidates = list(candidates)
            wanted = frozenset(targets)
            pool = sum(1 for q in candidates if q.objectives & wanted)
            self.counters["cover.rounds"] += 1
            self.counters["cover.candidates_sum"] += len(candidates)
            self.counters["cover.pool_sum"] += pool
            self.pool_max = max(self.pool_max, pool)
            self.excluded += perf_counter() - start
            picked = inner(targets, candidates, known, config)
            self.add("cover.picked_sum", len(picked))
            return picked

        return traced

    def _cover_error(self, exc: Exception) -> None:
        if isinstance(exc, ExactTooLarge):
            self.counters["cover.refused"] += 1

    def _resolve_error(self, exc: Exception) -> None:
        if isinstance(exc, Infeasible):
            self.counters["cover.infeasible"] += 1

    def _count(self, key: str, measure):
        return lambda result: self.counters.update({key: measure(result)})  # runs uncounted in _wrap

    def install(self) -> None:
        """Replace the traced names; ``uninstall`` puts the originals back."""
        load = self._wrap("model.load", model.load_dictionary)
        parse = self._wrap("model.parse", model.parse_dictionary)
        validate = self._wrap("model.validate", model.validate_dictionary)
        closure = self._wrap("model.closure", cover.closure_over, after=self._count("model.closure_calls", lambda r: 1))
        resolve = self._wrap("cover.resolve", cover.backward_resolve, on_error=self._resolve_error)
        gap = self._wrap("cover.gap", cover.prerequisite_gap)
        digraph = self._wrap(
            "sequence.digraph", sequence.build_digraph, after=self._count("sequence.edges_sum", lambda g: len(g.edges))
        )
        schedule = self._wrap(
            "sequence.schedule", sequence.topo_schedule, after=self._count("sequence.stages_sum", lambda p: len(p.stages))
        )
        simulate = self._wrap("sequence.simulate", sequence.simulate_plan)
        patches = [
            (model, "load_dictionary", load),
            (model, "parse_dictionary", parse),
            (model, "validate_dictionary", validate),
            (cover, "closure_over", closure),
            (cover, "minimal_cover", self._minimal_cover(cover.minimal_cover)),
            (cover, "backward_resolve", resolve),
            (sequence, "build_digraph", digraph),
            (sequence, "topo_schedule", schedule),
            (sequence, "simulate_plan", simulate),
            (cli, "load_dictionary", load),
            (cli, "parse_dictionary", parse),
            (cli, "validate_dictionary", validate),
            (cli, "backward_resolve", resolve),
            (cli, "prerequisite_gap", gap),
            (cli, "build_digraph", digraph),
            (cli, "topo_schedule", schedule),
        ]
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- derived figures ----------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _name, start, end, _parent, _op in self.spans]
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, ops=None) -> dict[str, float]:
        """Per-layer times in seconds, summed over spans of the given op ids
        (all spans when ``ops`` is None)."""
        total: Counter = Counter()
        own_total: Counter = Counter()
        longest: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _parent, op = span
            if ops is not None and op not in ops:
                continue
            total[name] += end - start
            own_total[name] += own
            longest[name] = max(longest[name], end - start)
        return {
            "model.parse_s": total["model.parse"],
            "model.validate_s": total["model.validate"],
            "model.closure_s": total["model.closure"],
            "cover.cover_s": total["cover.minimal_cover"],
            "cover.cover_ms_max": longest["cover.minimal_cover"] * 1000,
            "cover.resolve_s": total["cover.resolve"],
            "cover.resolve_self_s": own_total["cover.resolve"],
            "sequence.digraph_s": total["sequence.digraph"],
            "sequence.schedule_s": total["sequence.schedule"],
            "sequence.simulate_s": total["sequence.simulate"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": own_total["cli.main"],
            "bench.op_s": total["bench.op"],
        }

    def counter_metrics(self) -> dict[str, float]:
        c = self.counters
        names = (
            "model.closure_calls", "cover.rounds", "cover.pool_sum", "cover.candidates_sum",
            "cover.picked_sum", "cover.refused", "cover.infeasible", "sequence.edges_sum",
            "sequence.stages_sum", "cli.stdout_bytes",
        )
        out = {name: c[name] for name in names}
        out["cover.pool_max"] = self.pool_max
        out["cover.picked_per_pool"] = c["cover.picked_sum"] / c["cover.pool_sum"] if c["cover.pool_sum"] else 0.0
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "self": own}
            for (n, s, e, p, op), own in zip(self.spans, self.self_times())
        ]
