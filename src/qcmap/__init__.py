"""Initialization-time Q/C map analysis for neural-network graphs.

Computes local and global Q/C maps over architecture graphs, solves for
activation-function transformations (TAT for leaky ReLUs and smooth
activations, DKS, EOC), validates the infinite-width predictions with
finite-width Monte-Carlo runs, and checks the infinite-depth ODE limit.
"""

__version__ = "0.1.0"

from .activations import (
    Identity,
    LReLU,
    ReLU,
    SoftPlus,
    Tanh,
    TransformedActivation,
    TReLU,
    eval_activation,
    parse_activation,
    simulate_relu_via_lrelu,
)
from .errors import (
    BracketError,
    DomainError,
    GraphValidationError,
    QcmapError,
    SolverFailure,
    UnattainableTargetError,
    UnsupportedDerivativeError,
)
from .finite_width import (
    EmpiricalTrace,
    InitScheme,
    SimConfig,
    compare_to_theory,
    make_input_pair,
    propagate_pair,
    run_simulation,
    sample_weight_matrix,
    theory_trace,
)
from .kernel_maps import (
    CStats,
    KernelMap,
    LocalMapParams,
    QuadratureRule,
    cstats,
    default_rule,
    global_c,
    kernel_map,
    local_c,
    local_c_derivative,
    local_q,
    lrelu_c_map,
    lrelu_c_map_derivative,
)
from .netgraph import (
    NetworkGraph,
    Node,
    SubnetworkRef,
    build_rescaled_resnet,
    build_vanilla,
    enumerate_maximal_subnetworks,
    eval_M,
    eval_U,
    eval_U_with_derivative,
    load_graph_json,
    validate_graph,
)
from .ode_limit import find_T, integrate_psi, ode_rhs, psi
from .solvers import (
    DksSolution,
    EocSolution,
    TatLreluSolution,
    TatSmoothSolution,
    bisect,
    eoc_lrelu,
    solve_dks,
    solve_eoc_smooth,
    solve_nonlinear_system,
    solve_tat_lrelu,
    solve_tat_smooth,
    verify_convergence,
)
