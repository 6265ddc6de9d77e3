"""Cover pebbling toolkit: cover numbers, solvability certificates, random
configurations, threshold experiments, and the exact-cover hardness gadget."""

from .graphs import (
    UNREACHABLE,
    Configuration,
    Graph,
    build_graph,
    complete_graph,
    complete_multipartite,
    configuration_from_dict,
    configuration_to_dict,
    cube_graph,
    cycle_graph,
    generate_family,
    gnp_random_graph,
    graph_from_dict,
    graph_to_dict,
    path_graph,
    random_tree,
)
from .reduction import (
    EquivalenceReport,
    ReductionOutput,
    X4CInstance,
    build_reduction,
    cover_witness_certificate,
    exact_cover_bruteforce,
    instance_from_dict,
    instance_to_dict,
    reduction_equivalence_check,
)
from .sampling import (
    RandomModel,
    SeededStream,
    be_expected_odd_stacks_approx,
    be_expected_odd_stacks_exact,
    be_odd_stack_pmf,
    be_threshold_constant,
    mb_expected_odd_stacks,
    mb_threshold_constant,
    mb_variance_odd_stacks,
    sample_be_polya,
    sample_be_stars_and_bars,
    sample_mb,
)
from .solvability import (
    DEFAULT_NODE_BUDGET,
    SOLVABLE,
    UNDECIDED,
    UNSOLVABLE,
    MoveCertificate,
    OddStackSummary,
    SolveResult,
    apply_moves,
    certificate_from_dict,
    certificate_to_dict,
    complete_graph_solvable,
    execute_certificate,
    odd_stack_summary,
    solve,
    solve_bruteforce,
    verify_certificate,
)
from .stacking import StackingResult, cover_pebbling_number, stacking_weight, stacking_weights
from .thresholds import SweepRecord, ThresholdCurve, curve_to_csv, sweep

__version__ = "0.1.0"
