"""Command-line front end: validate, plan, counsel, graph, gen."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

# backward_resolve, build_digraph, topo_schedule: unused, patched by perfbench/spans.py (ROADMAP item 3)
from .cover import (
    CoverConfig,
    CoverMode,
    EmptyTarget,
    ExactTooLarge,
    Infeasible,
    SolutionTrace,
    backward_resolve,
    prerequisite_gap,
)
from .generate import Flavor, GenSpec, SpecInvalid, generate
from .model import (
    LearnerProfile,
    LQDictionary,
    MinimalityMetric,
    ParseError,
    SchemaError,
    UnknownCloud,
    UnknownLQ,
    _collector_paused,
    _token_fault,
    load_dictionary,
    parse_dictionary,
    serialize_dictionary,
    serialize_profile,
    validate_dictionary,
)
from .sequence import (
    CycleDetected,
    Plan,
    PrereqDigraph,
    build_digraph,
    digraph_to_dot,
    plan_query,
    topo_schedule,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2
EXIT_CYCLE = 3
EXIT_USAGE = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


class _Unreadable(Exception):
    """An input file could not be read; any other ``OSError`` is a failed write."""


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _Unreadable(exc) from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own
    # error so usage problems land on exit code 4 instead.
    def error(self, message):
        raise _UsageError(message)


def _parse_kfs(text: str) -> frozenset[str]:
    tokens = [piece.strip() for piece in text.split(",") if piece.strip()]
    for token in tokens:
        if fault := _token_fault(token):
            raise _UsageError(f"knowledge factor {fault}")
    return frozenset(tokens)


def _cmd_validate(args: argparse.Namespace) -> int:
    dictionary = parse_dictionary(_read(args.dict_file))
    findings = validate_dictionary(dictionary, strict=args.strict)
    for f in findings:
        print(f"{f.severity}: {f.code}: {f.subject}: {f.message}")
    if any(f.severity == "error" for f in findings):
        return EXIT_INVALID
    print(f"OK: {len(dictionary.quanta)} quanta, {len(dictionary.clouds)} clouds")
    return EXIT_OK


def _plan_doc(
    config: CoverConfig,
    dictionary: LQDictionary,
    profile: LearnerProfile,
    trace: SolutionTrace,
    graph: PrereqDigraph,
    plan: Plan,
) -> dict:
    return {
        "subject": dictionary.subject,
        "known": sorted(profile.known),
        "target": sorted(profile.target),
        "metric": config.metric.value,
        "mode": config.mode.value,
        "reuse_acquired_objectives": config.reuse_acquired_objectives,
        "trace": {
            "iterations": [
                {
                    "index": index,
                    "selected": sorted(rec.selected),
                    "k": rec.k,
                    "prereq_union": sorted(rec.prereq_union),
                    "residual": sorted(rec.residual),
                }
                for index, rec in enumerate(trace.iterations, start=1)
            ],
            "solution": list(trace.solution),
            "cardinality": trace.cardinality,
        },
        "digraph": {
            "nodes": sorted(graph.nodes),
            "edges": [list(edge) for edge in sorted(graph.edges)],
            "zero_prereq": sorted(graph.zero_prereq),
            "finish": sorted(graph.finish),
        },
        "plan": {
            "stages": [list(stage) for stage in plan.stages],
            "total_duration_minutes": plan.total_duration_minutes,
            "total_cost": plan.total_cost,
            "lq_count": plan.lq_count,
        },
    }


def _cmd_plan(args: argparse.Namespace) -> int:
    dictionary = load_dictionary(_read(args.dict))
    profile = LearnerProfile(known=_parse_kfs(args.known), target=_parse_kfs(args.target))
    config = CoverConfig(
        metric=MinimalityMetric(args.metric),
        mode=CoverMode(args.mode),
        reuse_acquired_objectives=not args.strict_residual,
    )
    trace, graph, plan = plan_query(profile, dictionary, args.cloud, config)
    if args.format == "json":
        print(json.dumps(_plan_doc(config, dictionary, profile, trace, graph, plan), indent=2))
    elif args.format == "dot":
        sys.stdout.write(digraph_to_dot(graph, dictionary))
    else:
        print(f"plan for {dictionary.subject}: quanta={plan.lq_count} stages={len(plan.stages)}")
        for index, rec in enumerate(trace.iterations, start=1):
            print(
                f"  iteration {index}: selected={','.join(sorted(rec.selected))}"
                f" prereq_union={','.join(sorted(rec.prereq_union)) or '-'}"
                f" residual={','.join(sorted(rec.residual)) or '-'}"
            )
        for i, stage in enumerate(plan.stages, start=1):
            print(f"  stage {i}: {', '.join(stage)}")
        print(f"totals: duration_minutes={plan.total_duration_minutes} cost={plan.total_cost}")
    return EXIT_OK


def _cmd_counsel(args: argparse.Namespace) -> int:
    dictionary = load_dictionary(_read(args.dict))
    profile = LearnerProfile(known=_parse_kfs(args.known), target=frozenset())
    report = prerequisite_gap(profile, dictionary, args.lq)
    if args.format == "json":
        doc = {
            "lq": report.lq_id,
            "missing": sorted(report.missing),
            "satisfiable": report.satisfiable,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"lq: {report.lq_id}")
        print(f"missing: {','.join(sorted(report.missing)) or '-'}")
        print(f"satisfiable: {'yes' if report.satisfiable else 'no'}")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(
        seed=args.seed,
        lq_count=args.lqs,
        kf_count=args.kfs,
        flavor=Flavor(args.flavor),
    )
    dictionary, profile = generate(spec)
    dict_path = Path(args.out + ".dict.json")
    profile_path = Path(args.out + ".profile.json")
    dict_path.write_bytes(serialize_dictionary(dictionary))
    profile_path.write_bytes(serialize_profile(profile))
    print(dict_path)
    print(profile_path)
    return EXIT_OK


@functools.cache  # parsing leaves the tree as it was; handlers look their collaborators up per call
def _build_parser() -> _Parser:
    parser = _Parser(prog="lqplan", description="Learning-path planning over a quanta dictionary")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_validate = sub.add_parser("validate", help="check a dictionary file and list findings")
    p_validate.add_argument("dict_file", metavar="dict-file")
    p_validate.add_argument("--strict", action="store_true", help="treat overlap warnings as errors")
    p_validate.set_defaults(handler=_cmd_validate)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--dict", required=True, help="dictionary file (JSON)")
    source.add_argument("--known", default="", help="comma-separated KFs already held")
    goal = argparse.ArgumentParser(add_help=False)
    goal.add_argument("--target", required=True, help="comma-separated KFs to reach")

    p_plan = sub.add_parser("plan", help="resolve targets into a staged study plan", parents=[source, goal])
    p_plan.add_argument("--cloud", default=None, help="restrict candidates to one cloud")
    config = CoverConfig()
    p_plan.add_argument("--metric", choices=[m.value for m in MinimalityMetric], default=config.metric.value)
    p_plan.add_argument("--mode", choices=[m.value for m in CoverMode], default=config.mode.value)
    p_plan.add_argument(
        "--strict-residual",
        action="store_true",
        help="do not count objectives of already-selected quanta toward later residuals",
    )
    p_plan.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_plan.set_defaults(handler=_cmd_plan)

    p_counsel = sub.add_parser("counsel", help="report the prerequisite gap for one quantum", parents=[source])
    p_counsel.add_argument("--lq", required=True)
    p_counsel.add_argument("--format", choices=["text", "json"], default="text")
    p_counsel.set_defaults(handler=_cmd_counsel)

    p_graph = sub.add_parser("graph", parents=[source, goal],
                             help="plan with defaults and emit the prerequisite digraph")
    p_graph.add_argument("--format", choices=["dot"], default="dot")
    plan_defaults = {key: p_plan.get_default(key) for key in ("cloud", "metric", "mode", "strict_residual")}
    p_graph.set_defaults(handler=_cmd_plan, **plan_defaults)

    p_gen = sub.add_parser("gen", help="generate a dictionary/profile fixture pair")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--lqs", type=int, required=True)
    p_gen.add_argument("--kfs", type=int, required=True)
    p_gen.add_argument("--flavor", choices=[f.value for f in Flavor], default=GenSpec.flavor.value)
    p_gen.add_argument("--out", required=True, help="output path prefix")
    p_gen.set_defaults(handler=_cmd_gen)

    return parser


# (error kinds, stderr prefix, exit code), first match wins; exit 1 means infeasible and nothing else
_VERDICTS = (
    ((_UsageError, EmptyTarget), "usage error: ", EXIT_USAGE),
    ((ParseError, SchemaError), "invalid input: ", EXIT_INVALID),
    (Infeasible, "", EXIT_INFEASIBLE),
    (CycleDetected, "", EXIT_CYCLE),
    ((ExactTooLarge, SpecInvalid, UnknownCloud, UnknownLQ), "error: ", EXIT_USAGE),
    (_Unreadable, "cannot read input: ", EXIT_INVALID),
    # a closed pipe, or a stdout that cannot encode a path
    ((OSError, UnicodeEncodeError), "cannot write output: ", EXIT_INVALID),
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    with _collector_paused():  # one command makes no garbage cycle worth a pass over its dictionary
        try:
            args = parser.parse_args(argv)
            return args.handler(args)
        except Exception as exc:
            # the first row that matches; a bug matches none, as it is no verdict on the input
            prefix, code = next(((prefix, code) for kinds, prefix, code in _VERDICTS if isinstance(exc, kinds)),
                                (f"internal error: {type(exc).__name__}: ", EXIT_INTERNAL))
            print(f"lqplan: {prefix}{exc}", file=sys.stderr)
            return code
