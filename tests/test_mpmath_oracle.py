"""kappa and the hat scalar against an independent 50-digit oracle.

The oracle forms the double-base Pochhammer symbols of kappa as explicit
lattice products in mpmath, from the definitions alone; it shares no code
with the package.
"""

import cmath
import math

import mpmath
import pytest

from elliptic_rmatrix import ModelParams, kappa_inv, principal_log
from elliptic_rmatrix.rmatrix_builders import _hat_scalar_kappa

# lattice factors |x p^i Q^j| below this are dropped: far below float64 rounding
LOG_EPS = -25 * math.log(10)

# (N, q, p, z): generic points, |p| up to 0.9
POINTS = [
    (2, 0.45 + 0.3j, 0.3 - 0.2j, 1.3 + 0.4j),
    (3, 0.5 * cmath.exp(1.0j), 0.9 * cmath.exp(0.5j), 0.8 - 0.5j),
    (4, 0.62 - 0.1j, 0.05 + 0.6j, -1.1 + 0.9j),
    (5, 0.7j, -0.75 + 0.1j, 0.6 + 0.3j),
]


def factors(x, b) -> int:
    """How many factors of (x; b) have |x b^i| above the cut."""
    return max(0, math.ceil((LOG_EPS - math.log(abs(x))) / math.log(abs(b))))


def poch1(x, b):
    """(x; b)_inf."""
    out, t = mpmath.mpc(1), x
    for _ in range(factors(x, b)):
        out *= 1 - t
        t *= b
    return out


def poch2(x, p, big_q):
    """(x; p, Q)_inf = prod_{i, j >= 0} (1 - x p^i Q^j)."""
    out, row = mpmath.mpc(1), x
    for _ in range(factors(x, p)):
        out *= poch1(row, big_q)
        row *= p
    return out


class Oracle:
    """1/kappa(z^2) and tau_N(q^{1/2}/z)/kappa(z^2) at 50 digits, Q = q^{2N}.

    1/kappa(x) = quad(x) / quad(1/x), quad(w) = (Q/w)(q^2 w)(p/w)(p q^{2N-2} w),
    every factor a Pochhammer symbol with bases (p, Q), at x = z^2.
    tau_N(y) = y^{2/N-2} Theta_Q(q y^2) / Theta_Q(q y^{-2}) with
    Theta_Q(y) = (y; Q)(Q/y; Q)(Q; Q).  In their product tau's numerator
    Theta_Q(q^2 / x) and the factor (q^2/x; p, Q) = (q^2/x; Q)(p q^2/x; p, Q)
    of quad(1/x) share (q^2/x; Q), which vanishes at z = q; the hat scalar
    is formed with it cancelled.
    """

    def __init__(self, n, q, p, z):
        self.n, self.quads = n, {}
        self.q, self.p, self.z = mpmath.mpc(q), mpmath.mpc(p), mpmath.mpc(z)
        self.big_q = self.q ** (2 * n)
        self.x = self.z**2

    def poch2(self, w):
        return poch2(w, self.p, self.big_q)

    def quad(self, w):
        n, q, p, big_q = self.n, self.q, self.p, self.big_q
        if w not in self.quads:
            self.quads[w] = (self.poch2(big_q / w) * self.poch2(q**2 * w)
                             * self.poch2(p / w) * self.poch2(p * q ** (2 * n - 2) * w))
        return self.quads[w]

    def kappa_inv(self):
        return self.quad(self.x) / self.quad(1 / self.x)

    def hat_scalar(self):
        n, q, p, z, x, big_q = self.n, self.q, self.p, self.z, self.x, self.big_q
        pref = mpmath.exp((mpmath.log(q) / 2 - mpmath.log(z)) * mpmath.mpf(2 - 2 * n) / n)
        tau_num = poch1(q ** (2 * n - 2) * x, big_q) * poch1(big_q, big_q)  # without (q^2/x; Q)
        tau_den = poch1(x, big_q) * poch1(big_q / x, big_q) * poch1(big_q, big_q)
        kappa_den = (self.poch2(big_q * x) * self.poch2(p * q**2 / x)  # without (q^2/x; Q)
                     * self.poch2(p * x) * self.poch2(p * q ** (2 * n - 2) / x))
        return pref * tau_num * self.quad(x) / (tau_den * kappa_den)


# measured: at most 4.4e-15 relative over these points
def rel(got: complex, want) -> float:
    return float(abs(mpmath.mpc(got) - want) / abs(want))


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


@pytest.mark.parametrize("n, q, p, z", POINTS)
def test_kappa_inv_and_hat_scalar_at_generic_points(n, q, p, z):
    params = ModelParams(n, principal_log(q), principal_log(p))
    oracle = Oracle(n, q, p, z)
    log_z = principal_log(z)
    assert rel(kappa_inv(params, 2 * log_z), oracle.kappa_inv()) < 2e-14
    assert rel(_hat_scalar_kappa(params, log_z), oracle.hat_scalar()) < 2e-14


@pytest.mark.parametrize("n, q, p, z", POINTS)
def test_kappa_inv_at_one_and_hat_scalar_at_q(n, q, p, z):
    params = ModelParams(n, principal_log(q), principal_log(p))
    assert rel(kappa_inv(params, 0j), Oracle(n, q, p, 1).kappa_inv()) == 0
    hat_at_q = _hat_scalar_kappa(params, params.log_q)
    assert rel(hat_at_q, Oracle(n, q, p, q).hat_scalar()) < 2e-14


# tier-1's gamma-bound case and the q-shifted points its forward factors take,
# j = 0, 1, 2: no lattice point is near, so the values must be finite and right.
# The hat scalar reaches 6.3e41, 4.4e23 and 1.7e5 there and 1/kappa 3.7e41, and
# the roundoff of exp(log series) grows with the log: measured 6.7e-14,
# 2.2e-14 and 1.3e-14, and 5.8e-14, so these points get a bound of 1e-13.
GAMMA_BOUND = (3, 0.3 + 0.1j, 0.9j, 0.0449 * cmath.exp(0.3j))
LARGE_VALUE_BOUND = 1e-13


@pytest.mark.parametrize("j", [0, 1, 2])
def test_hat_scalar_at_the_gamma_bound_case(j):
    n, q, p, z = GAMMA_BOUND
    params = ModelParams(n, principal_log(q), principal_log(p))
    w = z * q**-j
    got = _hat_scalar_kappa(params, principal_log(w))
    assert rel(got, Oracle(n, q, p, w).hat_scalar()) < LARGE_VALUE_BOUND


def test_kappa_inv_at_the_gamma_bound_case():
    n, q, p, z = GAMMA_BOUND
    params = ModelParams(n, principal_log(q), principal_log(p))
    got = kappa_inv(params, 2 * principal_log(z))
    assert rel(got, Oracle(n, q, p, z).kappa_inv()) < LARGE_VALUE_BOUND
