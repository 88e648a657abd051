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
    SingularError,
    SizeError,
    TruncationError,
)
from .special_functions import (
    DEFAULT_POLICY,
    LOG_ONE,
    LogComplex,
    TruncationPolicy,
    elliptic_gamma_ratio,
    pochhammer_inf,
    theta,
    theta_array,
    theta_shift_residual,
)
from .tensor_algebra import (
    SpectralReport,
    TensorOperator,
    antisymmetrizer,
    charge_sectors,
    embed,
    identity_operator,
    matrix_dump_rows,
    partial_transpose,
    permutation_op,
    permutation_sign,
    spectral,
)
from .rmatrix_builders import (
    ModelParams,
    RKind,
    alpha_exponent,
    build_f,
    build_g,
    build_g_half,
    build_h,
    build_r,
    build_v,
    eta,
    kappa_inv,
    rho,
    s_coeff,
    s_theta_ratio,
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
    QdetResult,
    centrality_witness,
    closed_form_q_spread,
    inverse_product_residual,
    qdet_closed_form,
    qdet_product,
    qdet_sum_formula,
    verify_qdet,
)

__version__ = "0.1.0"
