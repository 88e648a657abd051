"""Log-scale arithmetic, Pochhammer symbols, theta and elliptic gamma functions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elliptic_rmatrix import (
    ABS_FLOOR,
    MAX_TERMS,
    DomainError,
    GammaBases,
    TruncationError,
    elliptic_gamma_ratio,
    negated_log,
    pochhammer_inf,
    principal_log,
    theta,
    theta_array,
)
from identities import theta_shift_residual

# fixed-point oracles, frozen from a direct partial-product evaluation
POCH_HALF_BASE_03 = 0.3980822043018776
THETA_2_BASE_009 = -0.6906413144877037


lc = principal_log


def elliptic_gamma(x, p, big_q) -> complex:
    """Gamma(x; p, Q) alone: the quotient with an empty denominator."""
    zeros, poles = elliptic_gamma_ratio((x,), (), GammaBases(p, big_q))
    return zeros / poles


def base_keeping(factors: int) -> complex:
    """log b, |b| near 0.9905, at which (x; b) with |x| = 1/|b| keeps ``factors``
    factors: |x b^n| = |b|^(n-1) >= 1e-17 for n = 0 .. factors - 1 and no further.
    -ln|b| is the middle of the interval where floor(-ln 1e-17 / -ln|b|) = factors - 2."""
    f = factors - 2
    r = -math.log(1e-17) * (1 / f + 1 / (f + 1)) / 2
    return complex(-r, 0.7)


class TestLogHelpers:
    def test_principal_log_round_trip(self):
        w = 1.3 - 0.7j
        assert lc(w) == cmath.log(w)
        assert cmath.exp(lc(w)) == pytest.approx(w, rel=1e-15)

    @pytest.mark.parametrize("w", [0, 0j, complex("inf"), complex(1, float("inf")),
                                   complex("nan"), complex(0.5, float("nan"))])
    def test_principal_log_refuses_zero_and_non_finite(self, w):
        with pytest.raises(DomainError, match="cannot take the logarithm of"):
            principal_log(w)

    def test_negated_log_takes_the_upper_branch(self):
        z = lc(2.0 + 1.0j)
        flipped = negated_log(z)
        assert flipped == z + 1j * math.pi
        assert flipped.real == z.real and flipped.imag == z.imag + math.pi
        assert cmath.exp(flipped) == pytest.approx(-(2.0 + 1.0j), rel=1e-14)
        # the branch is fixed, not the principal one: the imaginary part leaves (-pi, pi]
        assert negated_log(lc(-1j)).imag == pytest.approx(math.pi / 2)
        assert negated_log(lc(1j)).imag == pytest.approx(3 * math.pi / 2)


class TestPochhammer:
    def test_frozen_oracle_single_base(self):
        got = pochhammer_inf(lc(0.5), lc(0.3))
        assert got.real == pytest.approx(POCH_HALF_BASE_03, rel=1e-14)
        assert abs(got.imag) < 1e-15

    def test_against_direct_partial_product(self):
        # (z; b)_inf via 200 explicit factors, real parameters
        z, b = 0.37, 0.52
        expected = 1.0
        for k in range(200):
            expected *= 1.0 - z * b**k
        got = pochhammer_inf(lc(z), lc(b))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_gamma_is_a_quotient_of_iterated_single_base_products(self):
        # (x; p, Q) = prod_j (x p^j; Q), so Gamma(x) = (pQ/x; p, Q) / (x; p, Q)
        x, p, big_q = 0.2 + 0.1j, 0.3, 0.4

        def double(w):
            out = 1.0 + 0j
            j = 0
            while abs(w) * p**j > 1e-18:
                out *= pochhammer_inf(lc(w * p**j), lc(big_q))
                j += 1
            return out

        got = elliptic_gamma(lc(x), lc(p), lc(big_q))
        assert got == pytest.approx(double(p * big_q / x) / double(x), rel=1e-13)

    def test_base_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            pochhammer_inf(lc(0.5), lc(1.05))

    def test_truncation_budget_enforced(self):
        # 4095 kept factors run, 4096 raise: the budget is MAX_TERMS = 4096
        lb = base_keeping(4095)
        x = complex(-lb.real, 0.5)
        expected = 1.0 + 0j
        for k in range(4095):
            expected *= 1.0 - cmath.exp(x + k * lb)
        assert pochhammer_inf(x, lb) == pytest.approx(expected, rel=1e-12)
        lb = base_keeping(4096)
        with pytest.raises(TruncationError, match="after 4096 terms"):
            pochhammer_inf(complex(-lb.real, 0.5), lb)


class TestTheta:
    def test_frozen_oracle(self):
        got = theta(lc(2.0), lc(0.09))
        assert got.real == pytest.approx(THETA_2_BASE_009, rel=1e-14)
        assert abs(got.imag) < 1e-15

    def test_vanishes_at_one(self):
        # Theta_p(1) = (1; p)... = 0 exactly via the leading factor
        assert theta(0j, lc(0.3)) == 0

    def test_vanishes_at_base_powers(self):
        p = lc(0.23 + 0.11j)
        for k in (1, 2, -1):
            assert abs(theta(k * p, p)) < 1e-14

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
        lhs = theta(p + z, p)
        rhs = theta(-z, p)
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
            lb = complex(n * math.log(mod_p), n * rng.uniform(-math.pi, math.pi))
            args = [k * lb + complex(math.log(rng.uniform(abs(cmath.exp(lb)), 1.0)),
                                     rng.uniform(-math.pi, math.pi))
                    for k in range(-2, 3) for _ in range(4)]
            args += [k * lb + 1e-9 * cmath.exp(1j * phase) for k in range(-2, 3) for phase in (0.3, 2.0)]
            yield np.array(args), lb


class TestThetaArray:
    def test_matches_scalar_theta_entrywise(self):
        # both multiply the same factors, with numpy's complex products against
        # Python's: 3.4e-15 apart at most on this panel, at |p| = 0.9 where the
        # products run to hundreds of factors; at generic points of this panel
        # both lie within 3.9e-15 of a 40-digit mpmath value
        worst = 0.0
        for args, base in theta_array_panel():
            got = theta_array(args, base)
            ref = np.array([theta(complex(u), base) for u in args])
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
        # (x; b) at |x| = 1/|b| keeps 4095 factors, and both paths run and agree;
        # at 4096 both raise.  The other argument and every b/x keep fewer.
        for factors in (4095, 4096):
            base = base_keeping(factors)
            args = np.array([complex(base.real / 2, 0.2), complex(-base.real, 0.5)])
            if factors == 4096:
                for path in (lambda: theta(complex(args[1]), base),
                             lambda: theta_array(args, base)):
                    with pytest.raises(TruncationError, match="after 4096 terms"):
                        path()
            else:
                expected = [theta(complex(u), base) for u in args]
                assert np.allclose(theta_array(args, base), expected, rtol=1e-13, atol=0)

    def test_rejects_a_base_outside_the_disc(self):
        with pytest.raises(DomainError):
            theta_array(np.array([0.1j]), lc(1.2))


def theta_q(x: complex, base: complex) -> complex:
    """theta_b(x) = (x; b)(b/x; b) at the logs of x and b, the factor of Gamma's
    functional equations."""
    return pochhammer_inf(x, base) * pochhammer_inf(base - x, base)


def lattice_margin(x: complex, p: complex, big_q: complex) -> float:
    """Smallest |1 - w p^i Q^j|, i, j >= 0, for w = x (poles of Gamma) and w = pQ/x
    (zeros), at the logs of x, p and Q.  Gamma's condition number at x grows like
    its inverse."""
    pc, qc = cmath.exp(p), cmath.exp(big_q)
    margin = 1.0
    for w in (cmath.exp(x), cmath.exp(p + big_q - x)):
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
        return lc(mod_p * cmath.exp(1j * arg_p)), 2 * n * lc(mod_q * cmath.exp(1j * arg_q))

    @staticmethod
    def relative(lhs: complex, rhs: complex) -> float:
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    @settings(max_examples=40, deadline=None)
    @given(**gamma_draws)
    def test_p_shift(self, mod_x, arg_x, mod_q, arg_q, mod_p, arg_p, n):
        # Gamma(p x) = theta_Q(x) Gamma(x)
        p, big_q = self.bases(mod_q, arg_q, mod_p, arg_p, n)
        x = lc(mod_x * cmath.exp(1j * arg_x))
        assume(min(lattice_margin(x, p, big_q), lattice_margin(p + x, p, big_q)) > 1e-3)
        lhs = elliptic_gamma(p + x, p, big_q)
        assert self.relative(lhs, theta_q(x, big_q) * elliptic_gamma(x, p, big_q)) < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(**gamma_draws)
    def test_q_shift(self, mod_x, arg_x, mod_q, arg_q, mod_p, arg_p, n):
        # Gamma(Q x) = theta_p(x) Gamma(x)
        p, big_q = self.bases(mod_q, arg_q, mod_p, arg_p, n)
        x = lc(mod_x * cmath.exp(1j * arg_x))
        assume(min(lattice_margin(x, p, big_q), lattice_margin(big_q + x, p, big_q)) > 1e-3)
        lhs = elliptic_gamma(big_q + x, p, big_q)
        assert self.relative(lhs, theta_q(x, p) * elliptic_gamma(x, p, big_q)) < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(**gamma_draws)
    def test_reflection(self, mod_x, arg_x, mod_q, arg_q, mod_p, arg_p, n):
        # Gamma(x) Gamma(pQ/x) = 1
        p, big_q = self.bases(mod_q, arg_q, mod_p, arg_p, n)
        x = lc(mod_x * cmath.exp(1j * arg_x))
        assume(lattice_margin(x, p, big_q) > 1e-3)
        product = elliptic_gamma(x, p, big_q) * elliptic_gamma(p + big_q - x, p, big_q)
        assert abs(product - 1.0) < 1e-11

    def test_equal_pairs_cancel_exactly(self):
        p, big_q = lc(0.63 - 0.2j), 6 * lc(0.4 + 0.3j)
        args = (lc(1.7 + 0.4j), lc(0.05 - 0.02j), lc(0.4 + 0.1j))  # shifted, shifted, not
        zeros, poles = elliptic_gamma_ratio(args, args, GammaBases(p, big_q))
        assert zeros == poles and zeros / poles == 1.0

    def test_pole_and_zero(self):
        p, big_q = lc(0.3 + 0.1j), 4 * lc(0.5 - 0.2j)
        zeros, poles = elliptic_gamma_ratio((0j,), (), GammaBases(p, big_q))
        assert poles == 0 and zeros != 0  # (x; p, Q) vanishes at x = 1
        assert abs(elliptic_gamma(p + big_q, p, big_q)) < 1e-14  # (pQ/x; p, Q) at x = pQ

    def test_truncation_budget_enforced(self):
        # the products Gamma stands for run over p^i Q^j as far as pochhammer_inf
        # would: |p|^4096 just below 1e-17 runs, just above it raises
        for step, raises in ((-0.01, False), (0.01, True)):
            lp = complex((math.log(1e-17) + step) / 4096, 0.4)
            if raises:
                with pytest.raises(TruncationError, match="after 4096 terms"):
                    elliptic_gamma(lc(0.3 + 0.1j), lp, lc(0.1))
            else:
                assert cmath.isfinite(elliptic_gamma(lc(0.3 + 0.1j), lp, lc(0.1)))

    def test_series_longer_than_the_budget_raises(self):
        # x = 0.99 e^{0.3i} needs no p-shift at Q = 0.99, and its rate 0.99 needs 4354 terms
        bases = GammaBases(lc(0.5), lc(0.99))
        with pytest.raises(TruncationError, match="series needs 4354 terms .* more than 4096"):
            elliptic_gamma_ratio((lc(0.99) + 0.3j,), (), bases)

    def test_shift_longer_than_the_budget_raises(self):
        bases = GammaBases(lc(0.5), lc(0.99))
        with pytest.raises(TruncationError, match="shift of 4329 p-steps exceeds 4096"):
            elliptic_gamma_ratio((3000 + 0j,), (), bases)

    def test_base_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            elliptic_gamma(lc(0.3), lc(1.05), lc(0.1))


# ---------------------------------------------------------------------------
# the kernels against copies of their earlier, per-call set-up forms: the
# rewrites only moved work out of the call, so every value must be bitwise equal


def reference_gamma_ratio(numer, denom, lp, lbq):
    """The elliptic gamma quotient as computed before its (p, Q) constants were
    shared: every constant, the shift closure and the denominators per call."""
    from itertools import zip_longest

    from elliptic_rmatrix.special_functions import _poch

    big_q = cmath.exp(lbq)
    for log_b in (lp, lbq):
        if log_b.real >= 0.0:
            raise DomainError("base")
        if MAX_TERMS * log_b.real >= math.log(ABS_FLOOR):
            raise TruncationError("base")
    log_pq = lp + lbq
    log_limit = max(lbq.real / 2, math.log(0.5))

    def shift(u):
        if max(u.real, log_pq.real - u.real) <= log_limit:
            return u, 1.0 + 0j, 1.0 + 0j
        m = round((log_pq.real / 2 - u.real) / lp.real)
        if abs(m) > MAX_TERMS:
            raise TruncationError("shift")
        thetas = 1.0 + 0j
        for j in range(min(m, 0), max(m, 0)):
            w = cmath.exp(u + j * lp)
            thetas *= _poch(w, big_q) * _poch(big_q / w, big_q)
        if m > 0:
            return u + m * lp, 1.0 + 0j, thetas
        return u + m * lp, thetas, 1.0 + 0j

    xs, ys = [], []
    zeros = poles = 1.0 + 0j
    for log_x, log_y in zip_longest(numer, denom):
        pair_zeros = pair_poles = 1.0 + 0j
        if log_x is not None:
            x, pair_zeros, pair_poles = shift(log_x)
            xs.append(x)
        if log_y is not None:
            y, y_zeros, y_poles = shift(log_y)
            ys.append(y)
            pair_zeros, pair_poles = pair_zeros * y_poles, pair_poles * y_zeros
        zeros *= pair_zeros
        poles *= pair_poles
    plus = xs + [log_pq - y for y in ys]
    minus = ys + [log_pq - x for x in xs]
    log_rate = max(max(u.real, log_pq.real - u.real) for u in plus)
    rate = math.exp(log_rate)
    terms = math.ceil(math.log(ABS_FLOOR * (1.0 - rate)) / log_rate)
    if terms > MAX_TERMS:
        raise TruncationError("terms")
    k = np.arange(1, terms + 1)
    powers = np.exp(np.outer(k, np.array(plus + minus + [lp, lbq])))
    n = len(plus)
    series = powers[:, :n].sum(axis=1) - powers[:, n:-2].sum(axis=1)
    series /= k * (1.0 - powers[:, -2]) * (1.0 - powers[:, -1])
    return cmath.exp(complex(series.sum())) * zeros, poles


def reference_theta_array(log_args, lb):
    """theta_array as computed before it filled its arrays in place."""
    u = np.asarray(log_args, dtype=np.complex128).ravel()
    starts = np.concatenate([u, lb - u, [lb]])
    log_floor = math.log(ABS_FLOOR)
    counts = np.maximum(np.floor((starts.real - log_floor) / -lb.real) + 1.0, 0.0)
    terms = int(counts.max())
    powers = np.full((terms, starts.size), cmath.exp(lb))
    powers[:1] = np.exp(starts)
    factors = 1.0 - np.cumprod(powers, axis=0)
    factors[np.arange(terms)[:, None] >= counts] = 1.0
    products = factors.prod(axis=0)
    k = u.size
    return (products[:k] * products[k:-1] * products[-1]).reshape(np.shape(log_args))


def kernel_panel():
    """(N, log p, log Q, log z^2) over N = 2..6 and |p| from 0.05 to 0.9, with
    |z| from 1/4 to 4, so some gamma arguments need a p-shift and some do not."""
    rng = np.random.default_rng(2718)
    for n in range(2, 7):
        for mod_p in (0.05, 0.2, 0.5, 0.7, 0.9):
            for _ in range(6):
                lp = complex(math.log(mod_p), rng.uniform(-math.pi, math.pi))
                lq = complex(math.log(rng.uniform(0.3, 0.8)), rng.uniform(-math.pi, math.pi))
                z2 = complex(2 * rng.uniform(-math.log(4), math.log(4)), rng.uniform(-math.pi, math.pi))
                yield n, lp, 2 * n * lq, 2 * lq, z2


class TestKernelsBitwiseAsBefore:
    def test_gamma_ratio_on_the_panel(self):
        shifted = unshifted = 0
        for n, lp, lbq, q2, z2 in kernel_panel():
            bases = GammaBases(lp, lbq)  # shared by both quotients, as in a build
            limit = max(lbq.real / 2, math.log(0.5))
            for numer, denom in (((lp + z2, q2 - z2), (lp - z2, q2 + z2)),
                                 ((lp + z2, lp + q2 - z2), (lp - z2, q2 + z2))):
                for u in numer + denom:
                    if max(u.real, (lp + lbq).real - u.real) > limit:
                        shifted += 1
                    else:
                        unshifted += 1
                got = elliptic_gamma_ratio(numer, denom, bases)
                assert got == reference_gamma_ratio(numer, denom, lp, lbq), (n, lp, z2)
        assert shifted > 100 and unshifted > 100

    def test_shared_denominators_do_not_depend_on_call_order(self):
        # the rows grow with the largest term count so far; a short call after a
        # long one reads a prefix of them and must equal a call on fresh bases
        lp, lbq = complex(math.log(0.6), 0.4), 6 * complex(math.log(0.7), -1.1)
        bases = GammaBases(lp, lbq)
        for u in (0.1 + 0.2j, -0.5 + 1j, 2.5 - 0.3j, -0.05 + 0j, 0.3 + 2j):  # rates up and down
            fresh = elliptic_gamma_ratio((u,), (lp - u,), GammaBases(lp, lbq))
            assert elliptic_gamma_ratio((u,), (lp - u,), bases) == fresh

    def test_base_errors_keep_their_order(self):
        with pytest.raises(DomainError):  # |p| > 1 checked before |Q| near 1
            GammaBases(0.1 + 0j, -1e-5 + 0j)
        with pytest.raises(TruncationError):
            GammaBases(-1e-5 + 0j, 0.1 + 0j)

    def test_theta_array_on_the_panel(self):
        rng = np.random.default_rng(3141)
        for n, lp, _, q2, z2 in kernel_panel():
            lb = n * lp
            for size in (1, 2, 7, 10, 22, 30):
                args = np.array([rng.uniform(-3, 3) * lb.real / n + 1j * rng.uniform(-4, 4)
                                 for _ in range(size)]) + (q2 + z2 if size % 2 else 0)
                got = theta_array(args, lb)
                assert got.tobytes() == reference_theta_array(args, lb).tobytes(), (n, lp, size)

    def test_theta_array_with_no_factor_left(self):
        # every |x b^n| below the floor: no row at all, and every product is 1
        lb = complex(math.log(1e-40), 0.5)
        args = np.array([0.5 * lb + 0.1j, 0.45 * lb])
        got = theta_array(args, lb)
        assert got.tobytes() == reference_theta_array(args, lb).tobytes()
        assert np.all(got == 1.0)
