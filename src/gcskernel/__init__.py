"""Geometric constraint solving kernel.

Characterizes 2D/3D constraint systems as under-, well-, or over-constrained
through both structural (graph counting, bipartite matching,
Dulmage-Mendelsohn) and numerical (witness-configuration Jacobian rank)
criteria, detects ill-constrained parts, decomposes well-constrained systems
into clusters, and solves them numerically.
"""

from .compiler import (
    AnchorError,
    CompileError,
    ResidualSystem,
    add_anchors,
    assignment_from_params,
    compile_model,
    dump_equations,
    eval_jacobian,
    eval_residuals,
    full_cross,
    induced,
    linear_system,
    params_from_assignment,
)
from .decompose import (
    AlignmentError,
    ClusterNode,
    ClusterTree,
    DecompositionError,
    RecombinePlan,
    bottom_up,
    bottom_up_at,
    solve_tree,
    top_down,
)
from .detect import (
    CapExceeded,
    DependencyGroup,
    WellPart,
    greedy_dependency_groups,
    greedy_well_parts,
    is_well_part,
    oracle_max_well_part,
    oracle_min_dependent_sets,
    well_parts,
)
from .model import (
    Constraint,
    Entity,
    Model,
    Violation,
    doc_of,
    dof_of,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
    validate,
)
from .numeric import (
    SolveResult,
    cokernel_groups,
    newton_solve,
    optimize_solve,
    rank_of,
    solve,
)
from .structural import (
    ConstraintGraph,
    CountingVerdict,
    DMPartition,
    EquationGraph,
    SolvePlan,
    build_graphs,
    counting_state,
    dm_decompose,
    max_matching,
    scc_plan,
)
from .witness import (
    SchemeRow,
    WcmReport,
    WitnessConfiguration,
    WitnessError,
    characterize,
    characterize_at,
    compute_dor,
    generate_witness,
    motion_basis,
    representation_sensitivity,
)

__version__ = "0.1.0"
