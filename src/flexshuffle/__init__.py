"""Flexible function assignment over random data placements.

Build problem instances (random placements plus two-input workloads),
compute how many broadcast transmissions finish the workload under
flexible assignment (uncoded raw, uncoded intermediate, or GF(2)-coded),
and reproduce the percolation/outage behaviour with seeded Monte Carlo.
"""

from .analysis import (
    FixedUncodedExpectation,
    MeanEstimate,
    ProportionEstimate,
    SweepPoint,
    TailCheck,
    UncoveredStats,
    azuma_bound,
    expected_fixed_uncoded,
    expected_nowhere_covered,
    fixed_assignment_threshold,
    mc_fixed_no_shuffle,
    mc_fixed_uncoded,
    mc_no_shuffle,
    mc_outage,
    mc_uncovered,
    missing_message_prob,
    no_shuffle_failure_bound,
    no_shuffle_threshold,
    outage_threshold,
    sweep,
    sweep_to_csv,
    wilson_interval,
)
from .coding import (
    CodedPlan,
    FittingMatrix,
    MinrankResult,
    SolveReport,
    best_coded_plan,
    build_fitting_matrix,
    minrank_gf2,
    solve,
)
from .coverage import (
    Assignment,
    CoverageGraph,
    build_coverage_graph,
    uncovered_count,
)
from .engine import (
    MessagePayload,
    Transcript,
    Transmission,
    common_friends,
    decode_payload,
    demo_payloads,
    encode_payload,
    run_demo,
    run_plan,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    DecodeFailure,
    FlexShuffleError,
    Infeasible,
    InvariantViolation,
    Outage,
    ParseError,
)
from .instance import (
    FunctionSet,
    Instance,
    Placement,
    demo_instance,
    derive_seeds,
    generate_functions,
    generate_placement,
    load_instance,
    random_instance,
    save_instance,
)
from .shuffle import (
    IntermediatePlan,
    UncodedPlan,
    greedy_raw_broadcasts,
    min_intermediate_broadcasts,
    min_raw_broadcasts,
    missing_messages,
)

__version__ = "0.1.0"
