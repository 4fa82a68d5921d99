"""Numerical laboratory for CHSH Bell-inequality violation with two-qubit states.

Quantum predictions for entangled states, local hidden-variable Monte Carlo
baselines, a simulated two-channel-polarizer coincidence experiment, and
parametric scans of the violation regions.
"""

__version__ = "0.1.0"

from .algebra import (
    IDENTITY2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SchmidtForm,
    TwoQubitState,
    UnitVector3,
    canonical_coefficients,
    canonical_state,
    concurrence,
    correlation_tensor,
    make_unit_vector,
    pauli_dot,
    schmidt_decompose,
    tensor_observable,
)
from .chsh import (
    JointProbabilities,
    MeasurementSettings,
    chsh_combination,
    chsh_value,
    chsh_value_symmetric,
    correlation_closed,
    correlation_matrix,
    gisin_settings,
    joint_probabilities,
    max_violation,
)
from .lhv import (
    BUILTIN_MODELS,
    AveragedLinearModel,
    Bell1964Result,
    BellSignModel,
    ChshEstimate,
    CorrelationEstimate,
    PreconditionError,
    bell1964_check,
    chsh_lhv,
    estimate_correlation,
)
from .agr import (
    CoincidenceCounts,
    ExperimentConfig,
    ExperimentReport,
    InsufficientDataError,
    SEstimate,
    estimate_E,
    estimate_S,
    misalignment_for_damping,
    run_experiment,
    simulate_run,
)
from .regions import (
    Plane,
    ViolationGrid,
    scan_region,
    write_grid_csv,
    write_grid_json,
)
