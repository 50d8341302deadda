"""Neural field dynamics with Hebbian plasticity.

Simulation of the plastic-kernel field equation, empirical verification of
its well-posedness estimates, stationary-state solvers, and the learned
kernel / gain field / stationary Schrodinger pipeline.
"""

from .discretization import (
    DiscreteOperator,
    FieldState,
    Grid,
    Quadrature,
    apply_f_values,
    apply_j_values,
    build_operator,
    kernel_matrix,
    make_quadrature,
)
from .model import (
    FiringRate,
    LearningKernel,
    ModelSpec,
    SynapticKernel,
    TheoryConstants,
    compute_constants,
    contraction_factor,
    max_segment_length,
)
from .solver import (
    BoundReport,
    SolverConfig,
    Trajectory,
    monitor_bounds,
    picard_segment,
    solve_global,
)
from .stationary import (
    StationaryResult,
    equicontinuity_probe,
    find_stationary_fp,
    stationary_via_flow,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DiscreteOperator",
    "FieldState",
    "FiringRate",
    "Grid",
    "LearningKernel",
    "ModelSpec",
    "Quadrature",
    "SolverConfig",
    "StationaryResult",
    "SynapticKernel",
    "TheoryConstants",
    "Trajectory",
    "apply_f_values",
    "apply_j_values",
    "build_operator",
    "compute_constants",
    "contraction_factor",
    "equicontinuity_probe",
    "find_stationary_fp",
    "kernel_matrix",
    "make_quadrature",
    "max_segment_length",
    "monitor_bounds",
    "picard_segment",
    "solve_global",
    "stationary_via_flow",
    "__version__",
]
