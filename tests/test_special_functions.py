"""Log-scale arithmetic, Pochhammer symbols, theta and elliptic gamma functions."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elliptic_rmatrix import (
    DEFAULT_POLICY,
    DomainError,
    LogComplex,
    LOG_ONE,
    TruncationError,
    TruncationPolicy,
    elliptic_gamma_ratio,
    pochhammer_inf,
    theta,
    theta_array,
    theta_shift_residual,
)

# fixed-point oracles, frozen from a direct partial-product evaluation
POCH_HALF_BASE_03 = 0.3980822043018776
THETA_2_BASE_009 = -0.6906413144877037


def lc(w: complex) -> LogComplex:
    return LogComplex.from_complex(w)


def elliptic_gamma(x, p, big_q, policy=DEFAULT_POLICY) -> complex:
    """Gamma(x; p, Q) alone: the quotient with an empty denominator."""
    zeros, poles = elliptic_gamma_ratio((x,), (), p, big_q, policy)
    return zeros / poles


class TestLogComplex:
    def test_round_trip(self):
        w = 1.3 - 0.7j
        assert lc(w).to_complex() == pytest.approx(w, rel=1e-15)

    def test_multiplication_adds_logs(self):
        a, b = lc(0.4 + 0.2j), lc(2.0 - 1.0j)
        assert (a * b).to_complex() == pytest.approx((0.4 + 0.2j) * (2.0 - 1.0j), rel=1e-14)

    def test_integer_power_is_exact_on_log_scale(self):
        # (z^8)^(1/8) must return the original log, not a wrapped branch
        z = lc(0.9 * cmath.exp(0.4j))
        assert ((z**8) ** Fraction(1, 8)).value == pytest.approx(z.value, rel=1e-15)

    def test_fractional_power_matches_principal_for_small_args(self):
        z = lc(1.2 + 0.1j)
        got = (z ** Fraction(2, 3)).to_complex()
        assert got == pytest.approx((1.2 + 0.1j) ** (2.0 / 3.0), rel=1e-13)

    def test_inv_negates_log(self):
        z = lc(0.5 + 0.25j)
        assert z.inv().value == -z.value
        assert (z * z.inv()).to_complex() == pytest.approx(1.0, rel=1e-15)

    def test_negated_uses_upper_branch(self):
        z = lc(2.0 + 1.0j)
        flipped = z.negated()
        assert flipped.to_complex() == pytest.approx(-(2.0 + 1.0j), rel=1e-14)
        assert flipped.value.imag == pytest.approx(z.value.imag + math.pi)

    def test_log_one(self):
        assert LOG_ONE.to_complex() == 1.0 + 0j

    def test_magnitude(self):
        assert lc(-3.0).magnitude() == pytest.approx(3.0)


class TestPochhammer:
    def test_frozen_oracle_single_base(self):
        got = pochhammer_inf(lc(0.5), (lc(0.3),))
        assert got.real == pytest.approx(POCH_HALF_BASE_03, rel=1e-14)
        assert abs(got.imag) < 1e-15

    def test_against_direct_partial_product(self):
        # (z; b)_inf via 200 explicit factors, real parameters
        z, b = 0.37, 0.52
        expected = 1.0
        for k in range(200):
            expected *= 1.0 - z * b**k
        got = pochhammer_inf(lc(z), (lc(b),))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_gamma_is_a_quotient_of_iterated_single_base_products(self):
        # (x; p, Q) = prod_j (x p^j; Q), so Gamma(x) = (pQ/x; p, Q) / (x; p, Q)
        x, p, big_q = 0.2 + 0.1j, 0.3, 0.4

        def double(w):
            out = 1.0 + 0j
            j = 0
            while abs(w) * p**j > 1e-18:
                out *= pochhammer_inf(lc(w * p**j), (lc(big_q),))
                j += 1
            return out

        got = elliptic_gamma(lc(x), lc(p), lc(big_q))
        assert got == pytest.approx(double(p * big_q / x) / double(x), rel=1e-13)

    def test_zero_argument_flag(self):
        assert pochhammer_inf(None, (lc(0.5),)) == 1.0 + 0j

    def test_base_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            pochhammer_inf(lc(0.5), (lc(1.05),))

    def test_more_than_one_base_rejected(self):
        # two-base products are elliptic gamma functions
        with pytest.raises(DomainError):
            pochhammer_inf(lc(0.5), (lc(0.2), lc(0.3)))

    def test_truncation_budget_enforced(self):
        tight = TruncationPolicy(abs_floor=1e-17, max_terms=5)
        with pytest.raises(TruncationError):
            pochhammer_inf(lc(0.5), (lc(0.9),), tight)


class TestTheta:
    def test_frozen_oracle(self):
        got = theta(lc(2.0), lc(0.09))
        assert got.real == pytest.approx(THETA_2_BASE_009, rel=1e-14)
        assert abs(got.imag) < 1e-15

    def test_vanishes_at_one(self):
        # Theta_p(1) = (1; p)... = 0 exactly via the leading factor
        assert theta(LOG_ONE, lc(0.3)) == 0

    def test_vanishes_at_base_powers(self):
        p = lc(0.23 + 0.11j)
        for k in (1, 2, -1):
            assert abs(theta(p**k, p)) < 1e-14

    def test_shift_identities_50_draws(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            mod_a = rng.uniform(0.05, 0.6)
            mod_z = rng.uniform(0.5, 2.0)
            a = lc(mod_a * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            z = lc(mod_z * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            n = int(rng.integers(1, 4))
            worst = max(worst, theta_shift_residual(z, a, n))
        assert worst < 1e-12

    def test_inversion_symmetry(self):
        z, p = lc(1.4 - 0.6j), lc(0.17 + 0.05j)
        lhs = theta(p * z, p)
        rhs = theta(z.inv(), p)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        mod_z=st.floats(0.5, 2.0),
        arg_z=st.floats(-3.1, 3.1),
        mod_p=st.floats(0.05, 0.5),
        arg_p=st.floats(-3.1, 3.1),
    )
    def test_shift_residual_property(self, mod_z, arg_z, mod_p, arg_p):
        z = lc(mod_z * cmath.exp(1j * arg_z))
        p = lc(mod_p * cmath.exp(1j * arg_p))
        # at theta zeros (z on the p-power lattice) every participant
        # vanishes and the relative residual is 0/0; skip those draws
        assume(abs(theta(z, p)) > 1e-3)
        assert theta_shift_residual(z, p, 2) < 1e-12


def theta_array_panel():
    """(log args, log base) per (N, |p|): points in the annuli |b|^{k+1} < |x| < |b|^k,
    k = -2..2, and points 1e-9 from the lattice zeros b^k, base b = p^N."""
    rng = np.random.default_rng(18)
    for n in range(2, 7):
        for mod_p in (0.05, 0.2, 0.5, 0.7, 0.9):
            base = LogComplex(complex(n * math.log(mod_p), n * rng.uniform(-math.pi, math.pi)))
            lb = base.value
            args = [k * lb + complex(math.log(rng.uniform(abs(cmath.exp(lb)), 1.0)),
                                     rng.uniform(-math.pi, math.pi))
                    for k in range(-2, 3) for _ in range(4)]
            args += [k * lb + 1e-9 * cmath.exp(1j * phase) for k in range(-2, 3) for phase in (0.3, 2.0)]
            yield np.array(args), base


class TestThetaArray:
    def test_matches_scalar_theta_entrywise(self):
        # both multiply the same factors, with numpy's complex products against
        # Python's: 3.4e-15 apart at most on this panel, at |p| = 0.9 where the
        # products run to hundreds of factors; at generic points of this panel
        # both lie within 3.9e-15 of a 40-digit mpmath value
        worst = 0.0
        for args, base in theta_array_panel():
            got = theta_array(args, base)
            ref = np.array([theta(LogComplex(u), base) for u in args])
            worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
        assert worst <= 5e-15

    def test_keeps_the_argument_shape(self):
        args = np.array([[0.1 + 0.2j, -0.3j], [0.5 - 1.0j, 0.2 + 2.0j]])
        got = theta_array(args, lc(0.3 + 0.1j))
        assert got.shape == (2, 2)
        assert got[1, 0] == theta_array(args[1, :1], lc(0.3 + 0.1j))[0]

    def test_vanishes_at_one_exactly(self):
        assert theta_array(np.array([0j, 0.4 + 0.1j]), lc(0.3))[0] == 0

    def test_truncation_at_the_scalar_max_terms(self):
        # (x; b) at x = 1/b, |b| = 0.9, keeps 373 factors: max_terms 373 raises, 374 runs
        base, args = lc(0.9), np.array([0.1 + 0.2j, -math.log(0.9) + 0j])
        for max_terms in range(368, 378):
            policy = TruncationPolicy(max_terms=max_terms)
            if max_terms <= 373:
                for path in (lambda: theta(LogComplex(complex(args[1])), base, policy),
                             lambda: theta_array(args, base, policy)):
                    with pytest.raises(TruncationError, match=f"after {max_terms} terms"):
                        path()
            else:
                expected = [theta(LogComplex(complex(u)), base, policy) for u in args]
                assert np.allclose(theta_array(args, base, policy), expected, rtol=1e-13)

    def test_rejects_a_base_outside_the_disc(self):
        with pytest.raises(DomainError):
            theta_array(np.array([0.1j]), lc(1.2))


def theta_q(x: LogComplex, base: LogComplex) -> complex:
    """theta_b(x) = (x; b)(b/x; b), the factor of Gamma's functional equations."""
    return pochhammer_inf(x, (base,)) * pochhammer_inf(base / x, (base,))


def lattice_margin(x: LogComplex, p: LogComplex, big_q: LogComplex) -> float:
    """Smallest |1 - w p^i Q^j|, i, j >= 0, for w = x (poles of Gamma) and w = pQ/x
    (zeros).  Gamma's condition number at x grows like its inverse."""
    pc, qc = p.to_complex(), big_q.to_complex()
    margin = 1.0
    for w in (x.to_complex(), (p * big_q / x).to_complex()):
        row = w
        while abs(row) >= 0.5:  # |1 - t| >= 1/2 below
            t = row
            while abs(t) >= 0.5:
                margin = min(margin, abs(1.0 - t))
                t *= qc
            row *= pc
    return margin


class TestEllipticGamma:
    gamma_draws = dict(
        mod_x=st.floats(0.2, 5.0),
        arg_x=st.floats(-3.1, 3.1),
        mod_q=st.floats(0.3, 0.9),
        arg_q=st.floats(-3.1, 3.1),
        mod_p=st.floats(0.05, 0.9),
        arg_p=st.floats(-3.1, 3.1),
        n=st.integers(2, 5),
    )

    @staticmethod
    def bases(mod_q, arg_q, mod_p, arg_p, n):
        return lc(mod_p * cmath.exp(1j * arg_p)), lc(mod_q * cmath.exp(1j * arg_q)) ** (2 * n)

    @staticmethod
    def relative(lhs: complex, rhs: complex) -> float:
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    @settings(max_examples=40, deadline=None)
    @given(**gamma_draws)
    def test_p_shift(self, mod_x, arg_x, mod_q, arg_q, mod_p, arg_p, n):
        # Gamma(p x) = theta_Q(x) Gamma(x)
        p, big_q = self.bases(mod_q, arg_q, mod_p, arg_p, n)
        x = lc(mod_x * cmath.exp(1j * arg_x))
        assume(min(lattice_margin(x, p, big_q), lattice_margin(p * x, p, big_q)) > 1e-3)
        lhs = elliptic_gamma(p * x, p, big_q)
        assert self.relative(lhs, theta_q(x, big_q) * elliptic_gamma(x, p, big_q)) < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(**gamma_draws)
    def test_q_shift(self, mod_x, arg_x, mod_q, arg_q, mod_p, arg_p, n):
        # Gamma(Q x) = theta_p(x) Gamma(x)
        p, big_q = self.bases(mod_q, arg_q, mod_p, arg_p, n)
        x = lc(mod_x * cmath.exp(1j * arg_x))
        assume(min(lattice_margin(x, p, big_q), lattice_margin(big_q * x, p, big_q)) > 1e-3)
        lhs = elliptic_gamma(big_q * x, p, big_q)
        assert self.relative(lhs, theta_q(x, p) * elliptic_gamma(x, p, big_q)) < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(**gamma_draws)
    def test_reflection(self, mod_x, arg_x, mod_q, arg_q, mod_p, arg_p, n):
        # Gamma(x) Gamma(pQ/x) = 1
        p, big_q = self.bases(mod_q, arg_q, mod_p, arg_p, n)
        x = lc(mod_x * cmath.exp(1j * arg_x))
        assume(lattice_margin(x, p, big_q) > 1e-3)
        product = elliptic_gamma(x, p, big_q) * elliptic_gamma(p * big_q / x, p, big_q)
        assert abs(product - 1.0) < 1e-11

    def test_equal_pairs_cancel_exactly(self):
        p, big_q = lc(0.63 - 0.2j), lc(0.4 + 0.3j) ** 6
        args = (lc(1.7 + 0.4j), lc(0.05 - 0.02j), lc(0.4 + 0.1j))  # shifted, shifted, not
        zeros, poles = elliptic_gamma_ratio(args, args, p, big_q)
        assert zeros == poles and zeros / poles == 1.0

    def test_pole_and_zero(self):
        p, big_q = lc(0.3 + 0.1j), lc(0.5 - 0.2j) ** 4
        zeros, poles = elliptic_gamma_ratio((LOG_ONE,), (), p, big_q)
        assert poles == 0 and zeros != 0  # (x; p, Q) vanishes at x = 1
        assert abs(elliptic_gamma(p * big_q, p, big_q)) < 1e-14  # (pQ/x; p, Q) at x = pQ

    def test_truncation_budget_enforced(self):
        tight = TruncationPolicy(abs_floor=1e-17, max_terms=5)
        with pytest.raises(TruncationError):
            elliptic_gamma(lc(0.3 + 0.1j), lc(0.2), lc(0.1), tight)

    def test_base_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            elliptic_gamma(lc(0.3), lc(1.05), lc(0.1))
