"""Identity residuals that only the tests evaluate, shared by several test modules.

Each reads the package's public functions and reduces one identity to a
residual; no command of the package runs them.
"""

import cmath
from dataclasses import replace

from elliptic_rmatrix import ModelParams, qdet_closed_form, theta


def theta_shift_residual(log_z: complex, log_a: complex, n: int) -> float:
    """Largest relative violation of the theta shift/inversion identities.

    Checks, for Theta with base a at the point z:

    * Theta_a(a z) = Theta_a(z^{-1}),
    * Theta_a(a^n z) = (-1)^n z^{-n} a^{-n(n-1)/2} Theta_a(z),
    * Theta_{a^2}(a z) = Theta_{a^2}(a z^{-1})  (even-base reflection).

    Each residual is scaled by the largest magnitude taking part in its
    identity (the shift prefactor can dwarf |Theta_a(z)| for small |a|, so
    scaling by |Theta_a(z)| alone would amplify float noise).  A self-test
    of the implementation, not an independent oracle.
    """
    t_z = theta(log_z, log_a)

    lhs1 = theta(log_a + log_z, log_a)
    rhs1 = theta(-log_z, log_a)
    r1 = abs(lhs1 - rhs1) / max(abs(t_z), abs(lhs1), abs(rhs1), 1e-300)

    # (-1)^n z^{-n} a^{-n(n-1)/2}, assembled on the log scale; n(n-1) is even
    lhs2 = theta(float(n) * log_a + log_z, log_a)
    rhs2 = (-1.0) ** n * cmath.exp(
        float(-n) * log_z + float(-n * (n - 1) // 2) * log_a
    ) * t_z
    r2 = abs(lhs2 - rhs2) / max(abs(t_z), abs(lhs2), abs(rhs2), 1e-300)

    log_a2 = 2.0 * log_a
    lhs3 = theta(log_a + log_z, log_a2)
    rhs3 = theta(log_a - log_z, log_a2)
    r3 = abs(lhs3 - rhs3) / max(abs(lhs3), abs(rhs3), 1e-300)

    return max(r1, r2, r3)


def closed_form_q_spread(params: ModelParams, log_z: complex, other_log_q: complex) -> float:
    """|m(z; q) - m(z; q')| at fixed (p, z): the determinant ignores q."""
    here = qdet_closed_form(params, log_z)
    there = qdet_closed_form(replace(params, log_q=other_log_q), log_z)
    mean_here = sum(here) / len(here)
    mean_there = sum(there) / len(there)
    return abs(mean_here - mean_there)
