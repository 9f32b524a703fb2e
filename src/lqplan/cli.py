"""Command-line front end: validate, plan, counsel, graph, gen."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cover import (
    CoverConfig,
    CoverMode,
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
    _is_token,
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own
    # error so usage problems land on exit code 4 instead.
    def error(self, message):
        raise _UsageError(message)


def _parse_kfs(text: str) -> frozenset[str]:
    tokens = [piece.strip() for piece in text.split(",") if piece.strip()]
    for token in tokens:
        if not _is_token(token):
            raise _UsageError(f"knowledge factor {token!r} contains whitespace")
    return frozenset(tokens)


def _cmd_validate(args: argparse.Namespace) -> int:
    dictionary = parse_dictionary(Path(args.dict_file).read_bytes())
    findings = validate_dictionary(dictionary, strict=args.strict)
    for f in findings:
        print(f"{f.severity}: {f.code}: {f.subject}: {f.message}")
    if any(f.severity == "error" for f in findings):
        return EXIT_INVALID
    print(f"OK: {len(dictionary.quanta)} quanta, {len(dictionary.clouds)} clouds")
    return EXIT_OK


def _plan_doc(
    args: argparse.Namespace,
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
        "metric": args.metric,
        "mode": args.mode,
        "reuse_acquired_objectives": not args.strict_residual,
        "trace": {
            "iterations": [
                {
                    "index": rec.index,
                    "selected": sorted(rec.selected),
                    "k": rec.k,
                    "prereq_union": sorted(rec.prereq_union),
                    "residual": sorted(rec.residual),
                }
                for rec in trace.iterations
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
    dictionary = load_dictionary(Path(args.dict).read_bytes())
    profile = LearnerProfile(known=_parse_kfs(args.known), target=_parse_kfs(args.target))
    if not profile.target:
        raise _UsageError("planning query requires a non-empty target set")
    config = CoverConfig(
        metric=MinimalityMetric(args.metric),
        mode=CoverMode(args.mode),
        reuse_acquired_objectives=not args.strict_residual,
    )
    trace = backward_resolve(profile, dictionary, scope=args.cloud, config=config)
    graph = build_digraph(trace.solution, dictionary, profile)
    plan = topo_schedule(graph, dictionary)
    if args.format == "json":
        print(json.dumps(_plan_doc(args, dictionary, profile, trace, graph, plan), indent=2))
    elif args.format == "dot":
        sys.stdout.write(digraph_to_dot(graph, dictionary))
    else:
        print(f"plan for {dictionary.subject}: quanta={plan.lq_count} stages={len(plan.stages)}")
        for rec in trace.iterations:
            print(
                f"  iteration {rec.index}: selected={','.join(sorted(rec.selected))}"
                f" prereq_union={','.join(sorted(rec.prereq_union)) or '-'}"
                f" residual={','.join(sorted(rec.residual)) or '-'}"
            )
        for i, stage in enumerate(plan.stages, start=1):
            print(f"  stage {i}: {', '.join(stage)}")
        print(f"totals: duration_minutes={plan.total_duration_minutes} cost={plan.total_cost}")
    return EXIT_OK


def _cmd_counsel(args: argparse.Namespace) -> int:
    dictionary = load_dictionary(Path(args.dict).read_bytes())
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="lqplan", description="Learning-path planning over a quanta dictionary")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_validate = sub.add_parser("validate", help="check a dictionary file and list findings")
    p_validate.add_argument("dict_file", metavar="dict-file")
    p_validate.add_argument("--strict", action="store_true", help="treat overlap warnings as errors")
    p_validate.set_defaults(handler=_cmd_validate)

    p_plan = sub.add_parser("plan", help="resolve targets into a staged study plan")
    p_plan.add_argument("--dict", required=True)
    p_plan.add_argument("--known", default="", help="comma-separated KFs already held")
    p_plan.add_argument("--target", required=True, help="comma-separated KFs to reach")
    p_plan.add_argument("--cloud", default=None, help="restrict candidates to one cloud")
    p_plan.add_argument("--metric", choices=["count", "duration", "cost"], default="count")
    p_plan.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p_plan.add_argument(
        "--strict-residual",
        action="store_true",
        help="do not count objectives of already-selected quanta toward later residuals",
    )
    p_plan.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_plan.set_defaults(handler=_cmd_plan)

    p_counsel = sub.add_parser("counsel", help="report the prerequisite gap for one quantum")
    p_counsel.add_argument("--dict", required=True)
    p_counsel.add_argument("--known", default="")
    p_counsel.add_argument("--lq", required=True)
    p_counsel.add_argument("--format", choices=["text", "json"], default="text")
    p_counsel.set_defaults(handler=_cmd_counsel)

    p_graph = sub.add_parser("graph", help="plan with defaults and emit the prerequisite digraph")
    p_graph.add_argument("--dict", required=True)
    p_graph.add_argument("--known", default="")
    p_graph.add_argument("--target", required=True)
    p_graph.add_argument("--format", choices=["dot"], default="dot")
    plan_defaults = {key: p_plan.get_default(key) for key in ("cloud", "metric", "mode", "strict_residual")}
    p_graph.set_defaults(handler=_cmd_plan, **plan_defaults)

    p_gen = sub.add_parser("gen", help="generate a dictionary/profile fixture pair")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--lqs", type=int, required=True)
    p_gen.add_argument("--kfs", type=int, required=True)
    p_gen.add_argument("--flavor", choices=["feasible", "infeasible", "adversarial"], default="feasible")
    p_gen.add_argument("--out", required=True, help="output path prefix")
    p_gen.set_defaults(handler=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"lqplan: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SchemaError) as exc:
        print(f"lqplan: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Infeasible as exc:
        print(f"lqplan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CycleDetected as exc:
        print(f"lqplan: {exc}", file=sys.stderr)
        return EXIT_CYCLE
    except (ExactTooLarge, SpecInvalid, UnknownCloud, UnknownLQ) as exc:
        print(f"lqplan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"lqplan: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # a bug, not a verdict on the input: keep it off exits 1-4
        print(f"lqplan: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
