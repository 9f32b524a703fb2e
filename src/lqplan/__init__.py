"""Learning-path planning: minimal study-unit selection plus staged ordering."""

from .cover import (
    CoverConfig,
    CoverMode,
    EmptyTarget,
    ExactTooLarge,
    GapReport,
    Infeasible,
    IterationRecord,
    NoCover,
    SolutionTrace,
    backward_resolve,
    minimal_cover,
    prerequisite_gap,
)
from .generate import Flavor, GenSpec, SpecInvalid, generate
from .model import (
    Finding,
    KFSet,
    LQCloud,
    LQDictionary,
    LQPlanError,
    LearnerProfile,
    LearnerQuantum,
    MinimalityMetric,
    ParseError,
    SchemaError,
    UnknownCloud,
    UnknownLQ,
    closure_over,
    load_dictionary,
    parse_dictionary,
    parse_profile,
    serialize_dictionary,
    serialize_profile,
    total_weight,
    validate_dictionary,
)
from .sequence import (
    CycleDetected,
    Plan,
    PrereqDigraph,
    SimulationVerdict,
    build_digraph,
    digraph_to_dot,
    plan_query,
    simulate_plan,
    topo_schedule,
)

__all__ = sorted(  # help(lqplan) lists only these: the public names imported above, no submodule
    name for name, value in globals().items() if not name.startswith("_") and type(value) is not type(cover)
)

__version__ = "0.1.0"
