"""Optimal trace-preserving CP maps for prescribed pure-state transformations:
the channel of best mean fidelity over a state family, by fixed-point iteration
on its process matrix.  README describes the models, the library and the CLI.
"""

from .analysis import (
    McEstimate,
    PptReport,
    ScanRow,
    alpha_scan,
    mc_fidelity,
    ppt_check,
    state_fidelity_curve,
)
from .channels import (
    ChoiOperator,
    ChoiReport,
    DensityMatrix,
    KrausSet,
    apply,
    apply_matrix,
    choi_from_kraus,
    density_from_state,
    dilation,
    fidelity,
    identity_choi,
    kraus_from_choi,
    kraus_trace_deviation,
    maxmix_choi,
    require_valid_choi,
    validate_choi,
)
from .errors import (
    AllZeroError,
    ChoiOptError,
    DimensionMismatchError,
    InvalidChoiError,
    InvalidDensityError,
    InvalidSpecError,
    NegativeEigenvalueError,
    NonSquareError,
    NormViolationError,
    NotHermitianError,
    OutOfRangeError,
    SingularLambdaError,
    TraceConditionError,
)
from .linalg import (
    EigenDecomposition,
    herm_eig,
    hermitian_part,
    kron,
    partial_trace,
    partial_transpose,
    psd_sqrt,
    reg_inverse,
)
from .models import (
    ALPHA_THRESHOLD,
    ENTANGLER_A_FIDELITY,
    ENTANGLER_A_MIN_FIDELITY,
    KnownOptimum,
    ModelSpec,
    ShifterOptimum,
    analytic_r,
    bloch_state,
    damping_channel,
    damping_fidelity,
    entangler_a_isometry,
    entangler_a_state_fidelity,
    entangler_b_output_state,
    known_optimum,
    model_family,
    orthogonal_state,
    parse_model,
    shifter_closed_forms,
    symmetric_state,
)
from .solver import SolverOptions, SolverResult, initial_choi, iterate_once, random_choi, solve
from .targets import (
    StateFamily,
    TargetOperator,
    build_r_montecarlo,
    build_r_quadrature,
    fidelity_bound,
)

__version__ = "0.1.0"
