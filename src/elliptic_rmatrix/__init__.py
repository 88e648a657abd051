"""Elliptic R-matrix toolkit.

Builds the Z_N-symmetric elliptic R-matrix family and its trigonometric
limits, checks the standard identity suite (Yang-Baxter, unitarity,
regularity, crossing, periodicity properties, kernel and spectrum facts,
gauge/twist equivalences, the p -> 0 limit) numerically, and evaluates the
quantum determinant in the fundamental evaluation representation.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    DomainError,
    EllipticRMatrixError,
    KindError,
    PoleError,
    SizeError,
    TruncationError,
)
from .special_functions import (
    ABS_FLOOR,
    MAX_TERMS,
    GammaBases,
    elliptic_gamma_ratio,
    negated_log,
    pochhammer_inf,
    principal_log,
    theta,
    theta_array,
)
from .tensor_algebra import (
    SpectralReport,
    TensorOperator,
    antisymmetrizer,
    charge_sectors,
    embed,
    matrix_dump_rows,
    partial_transpose,
    permutation_op,
    permutation_sign,
    spectral,
)
from .rmatrix_builders import (
    ModelParams,
    RKind,
    build_f,
    build_g,
    build_g_half,
    build_h,
    build_r,
    build_v,
    eta,
    kappa_inv,
    rho,
    tau,
    u_scalar,
)
from .property_suite import (
    CHECKS,
    Check,
    PropertyReport,
    check_antisymmetry,
    check_crossing,
    check_crossing_unitarity,
    check_evaluated_ll,
    check_gauge_relation,
    check_h_invariance,
    check_kernel_structure,
    check_nsigma,
    check_p_to_zero,
    check_quasi_periodicity,
    check_regularity,
    check_spectrum_nonelliptic,
    check_transpose_symmetry,
    check_twist_relation,
    check_unitarity,
    check_ybe,
    effective_pass,
    error_report,
    run_suite,
    tolerance_for,
)
from .qdet_engine import (
    centrality_witness,
    inverse_product_residual,
    qdet_closed_form,
    qdet_product,
    qdet_sum_formula,
    verify_qdet,
    z_spread,
)

__version__ = "0.1.0"
