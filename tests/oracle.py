"""A 50-digit reference for what the package computes, from the definitions alone.

Theta functions, Pochhammer products over one and two bases, the scalars
1/kappa, the hat scalar, tau, U and rho, the entries of all six R-matrix
kinds, the dressing matrices V and F, and the closed-form values m_k of the
quantum determinant are evaluated here in mpmath, as explicit truncated
products and finite sums, from the formulas that the package's docstrings
state.  The module imports only the standard library and mpmath, so it
shares no code with the float64 pipeline it is compared against.

Parameters come in as logarithms, as they do in the package: x^alpha is
exp(alpha log x) with alpha an exact rational, so both sides take every
fractional power on the same branch.  Products drop the factors
(1 - x b^i) with |x b^i| below 1e-25, far below float64 rounding.
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath

DIGITS = 50
LOG_EPS = -25 * math.log(10)
FIXED_BITS = 200  # the products' absolute resolution, 6e-61


def factors(x, b, log_x=None) -> int:
    """How many factors of (x; b) have |x b^i| above the cut; ``log_x`` = log |x|."""
    log_x = math.log(abs(x)) if log_x is None else log_x
    return max(0, math.ceil((LOG_EPS - log_x) / math.log(abs(b))))


# Pochhammer products are multiplied out in complex integers over 2^FIXED_BITS,
# exactly but for one rounding down per product
def _fixed(w) -> tuple[int, int]:
    return tuple(int(mpmath.floor(mpmath.ldexp(part, FIXED_BITS))) for part in (w.real, w.imag))


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1]) >> FIXED_BITS, (a[0] * b[1] + a[1] * b[0]) >> FIXED_BITS


def _product(t: tuple[int, int], b: tuple[int, int], count: int) -> tuple[int, int]:
    """prod_{i < count} (1 - t b^i)."""
    out = (1 << FIXED_BITS, 0)
    for _ in range(count):
        out, t = _times(out, ((1 << FIXED_BITS) - t[0], -t[1])), _times(t, b)
    return out


def _unfixed(w: tuple[int, int]):
    return mpmath.mpc(*(mpmath.ldexp(part, -FIXED_BITS) for part in w))


def poch1(x, b):
    """(x; b)_inf."""
    return _unfixed(_product(_fixed(x), _fixed(b), factors(x, b)))


def poch2(x, p, big_q):
    """(x; p, Q)_inf = prod_{i, j >= 0} (1 - x p^i Q^j), row i being (x p^i; Q)."""
    out, row, p_fixed, q_fixed = (1 << FIXED_BITS, 0), _fixed(x), _fixed(p), _fixed(big_q)
    log_x, log_p = math.log(abs(x)), math.log(abs(p))
    for i in range(factors(x, p)):
        out = _times(out, _product(row, q_fixed, factors(x, big_q, log_x + i * log_p)))
        row = _times(row, p_fixed)
    return _unfixed(out)


@functools.lru_cache(maxsize=None)
def poch_base(b):
    """(b; b)_inf."""
    return poch1(b, b)


def theta(x, b):
    """Theta_b(x) = (x; b)(b/x; b)(b; b)."""
    return poch1(x, b) * poch1(b / x, b) * poch_base(b)


def _cached(method):
    """``method`` at DIGITS digits, its value kept per instance and arguments."""
    return functools.lru_cache(maxsize=None)(mpmath.workdps(DIGITS)(method))


class Oracle:
    """The model at (N, q, p) = (``n``, exp(``log_q``), exp(``log_p``)); Q = q^{2N}.

    Every spectral argument is a log too.  Matrices are lists of rows, the
    row of e_a x e_c at (a - 1) N + (c - 1), slot 1 most significant.
    """

    def __init__(self, n, log_q, log_p):
        with mpmath.workdps(DIGITS):
            self.n, self.lq, self.lp = n, mpmath.mpc(log_q), mpmath.mpc(log_p)
            self.q, self.p = mpmath.exp(self.lq), mpmath.exp(self.lp)
            self.big_q, self.pn = mpmath.exp(2 * n * self.lq), mpmath.exp(n * self.lp)

    def power(self, log_x, alpha):
        """x^alpha = exp(alpha log x) for a rational alpha."""
        alpha = Fraction(alpha)
        return mpmath.exp(mpmath.mpf(alpha.numerator) / alpha.denominator * log_x)

    @_cached
    def quad(self, w):
        """(Q/w)(q^2 w)(p/w)(p q^{2N-2} w), each with bases (p, Q)."""
        n, q, p, big_q = self.n, self.q, self.p, self.big_q
        return (poch2(big_q / w, p, big_q) * poch2(q**2 * w, p, big_q)
                * poch2(p / w, p, big_q) * poch2(p * q ** (2 * n - 2) * w, p, big_q))

    @_cached
    def kappa_inv(self, log_z):
        """1/kappa(z^2) = Gamma(p z^2) Gamma(Q z^2) Gamma(p q^{2N-2} z^{-2}) Gamma(q^2 z^{-2}),
        Gamma(x) = (pQ/x; p, Q) / (x; p, Q): by reflection, quad(z^2) / quad(z^{-2})."""
        x = mpmath.exp(2 * log_z)
        return self.quad(x) / self.quad(1 / x)

    @_cached
    def hat_scalar(self, log_z):
        """tau_N(q^{1/2}/z) / kappa(z^2).  tau's numerator Theta_Q(q^2/x) and the factor
        (q^2/x; p, Q) = (q^2/x; Q)(p q^2/x; p, Q) of quad(1/x), x = z^2, share (q^2/x; Q),
        which vanishes at z = q; the product is formed with it cancelled."""
        n, q, p, big_q = self.n, self.q, self.p, self.big_q
        x = mpmath.exp(2 * log_z)
        pref = self.power(self.lq / 2 - log_z, Fraction(2 - 2 * n, n))
        tau_num = poch1(q ** (2 * n - 2) * x, big_q) * poch_base(big_q)
        tau_den = theta(x, big_q)
        kappa_den = (poch2(big_q * x, p, big_q) * poch2(p * q**2 / x, p, big_q)
                     * poch2(p * x, p, big_q) * poch2(p * q ** (2 * n - 2) / x, p, big_q))
        return pref * tau_num * self.quad(x) / (tau_den * kappa_den)

    @_cached
    def tau(self, log_x):
        """tau_N(x) = x^{2/N - 2} Theta_Q(q x^2) / Theta_Q(q x^{-2})."""
        x2 = mpmath.exp(2 * log_x)
        return (self.power(log_x, Fraction(2, self.n) - 2)
                * theta(self.q * x2, self.big_q) / theta(self.q / x2, self.big_q))

    @_cached
    def u(self, log_z):
        """U(z) = q^{2/N - 2} Theta_Q(q^2 z^2) Theta_Q(q^2 z^{-2}) / [Theta_Q(z^2) Theta_Q(z^{-2})]."""
        q2, big_q, x = self.q**2, self.big_q, mpmath.exp(2 * log_z)
        return (self.power(self.lq, Fraction(2, self.n) - 2) * theta(q2 * x, big_q)
                * theta(q2 / x, big_q) / (theta(x, big_q) * theta(1 / x, big_q)))

    @_cached
    def rho(self, log_x):
        """rho_N(x) = q^{1/N - 1} (q^2 x; Q)(q^{2N-2} x; Q) / [(x; Q)(Q x; Q)]."""
        n, q, big_q, x = self.n, self.q, self.big_q, mpmath.exp(log_x)
        return (self.power(self.lq, Fraction(1, n) - 1) * poch1(q**2 * x, big_q)
                * poch1(q ** (2 * n - 2) * x, big_q) / (poch1(x, big_q) * poch1(big_q * x, big_q)))

    @_cached
    def entries(self, kind, log_z):
        """The N^2 x N^2 matrix of ``kind``, a kind's command-line tag, at z = exp(``log_z``)."""
        if kind in ("elliptic", "elliptic-hat"):
            return self._elliptic(log_z, kind == "elliptic-hat")
        if kind == "eightvertex":
            return self._eight_vertex(log_z)
        n, log_x = self.n, log_z if kind == "homogeneous" else 2 * log_z
        mat = self._homogeneous(log_x)
        if kind == "homogeneous":
            return mat
        # principal: (V(z) x 1) R_hom(z^2) (V(z) x 1)^{-1}; non-elliptic: F21 R F12^{-1}
        v, f12 = self.v(log_z), self.f()
        for r, row in enumerate(mat):
            for c in range(n * n):
                twist = f12[(r % n) * n + r // n] / f12[c] if kind == "nonelliptic" else 1
                row[c] *= v[r // n] / v[c // n] * twist
        return mat

    def _homogeneous(self, log_x):
        """rho(x) [sum_i e_ii x e_ii + sum_{i != j} (q (1 - x) e_ii x e_jj
        + (1 - q^2) x^{[i > j]} e_ij x e_ji) / (1 - q^2 x)]."""
        n, q, x = self.n, self.q, mpmath.exp(log_x)
        scalar, den = self.rho(log_x), 1 - q**2 * x
        mat = [[mpmath.mpc(0)] * (n * n) for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    mat[i * n + i][i * n + i] = scalar
                else:
                    mat[i * n + j][i * n + j] = scalar * q * (1 - x) / den
                    mat[i * n + j][j * n + i] = scalar * (1 - q**2) * (x if i > j else 1) / den
        return mat

    def _elliptic(self, log_z, hat):
        """eta(z) S_{a,c}^b(z) (-1)^{(a+c-b-d)/N} at row (a, c), column (b, d), a + c = b + d
        mod N, with the hat scalar in place of 1/kappa for the hat kind; where

        eta(z) = z^{2/N} (1/kappa(z^2)) ((p^N; p^N)/(p; p))^3 Theta_p(q^2) Theta_p(p z^2)
                 / Theta_p(q^2 z^2),
        S_{a,c}^b(z) = z^{2(b-a)/N} q^{2(c-b)/N} p^{(b-a)(c-b)/N} Theta(p^{N+c-a} q^2 z^2)
                 / [Theta(p^{N+c-b} z^2) Theta(p^{N+b-a} q^2)], base p^N.

        For b = c, Theta_p(p z^2) / Theta_{p^N}(p^N z^2) is formed with their common
        factor (1 - z^{-2}) cancelled, which leaves it finite at z = 1."""
        n, q, p, pn = self.n, self.q, self.p, self.pn
        x, q2 = mpmath.exp(2 * log_z), q**2
        scalar = self.hat_scalar(log_z) if hat else self.kappa_inv(log_z)
        common = (scalar * self.power(log_z, Fraction(2, n)) * (poch_base(pn) / poch_base(p)) ** 3
                  * theta(q2, p) / theta(q2 * x, p))
        shift = {d: mpmath.exp((n + d) * self.lp) for d in range(1 - n, n)}
        num = {d: theta(s * q2 * x, pn) for d, s in shift.items()}
        den_z = {d: theta(s * x, pn) for d, s in shift.items() if d}
        den_q = {d: theta(s * q2, pn) for d, s in shift.items()}
        theta_p_z = theta(p * x, p)
        # Theta_b(b x) / (1 - 1/x) = (b x; b)(b/x; b)(b; b), b = p and p^N
        diagonal = ((poch1(p * x, p) * poch1(p / x, p) * poch_base(p))
                    / (poch1(pn * x, pn) * poch1(pn / x, pn) * poch_base(pn)))
        mat = [[mpmath.mpc(0)] * (n * n) for _ in range(n * n)]
        for a, c, b in itertools.product(range(1, n + 1), repeat=3):
            d = (a + c - b - 1) % n + 1
            ratio = diagonal if b == c else theta_p_z / den_z[c - b]
            powers = (self.power(log_z, Fraction(2 * (b - a), n))
                      * self.power(self.lq, Fraction(2 * (c - b), n))
                      * self.power(self.lp, Fraction((b - a) * (c - b), n)))
            parity = -1 if (a + c - b - d) // n % 2 else 1
            mat[(a - 1) * n + c - 1][(b - 1) * n + d - 1] = (
                parity * common * powers * num[c - a] * ratio / den_q[b - a])
        return mat

    def _eight_vertex(self, log_z):
        """N = 2: a = z^{-1} th(p z^2) th(p q^2) / th(p q^2 z^2), b = q z^{-1} th(z^2) th(p q^2)
        / th(q^2 z^2), c = th(p z^2) th(q^2) / th(q^2 z^2), d = p^{1/2} q^{-1} z^{-2} th(z^2)
        th(q^2) / th(p q^2 z^2), th = Theta_{p^2}, times (1/kappa(z^2)) (p^2; p^2) / (p; p)^2;
        a on the diagonal's ends, b in its middle, c the exchange and d the corners."""
        q, p, lz = self.q, self.p, log_z
        x, q2, p2 = mpmath.exp(2 * lz), q**2, p**2
        th = functools.partial(theta, b=p2)
        scalar = self.kappa_inv(lz) * poch_base(p2) / poch_base(p) ** 2
        a = mpmath.exp(-lz) * th(p * x) * th(p * q2) / th(p * q2 * x)
        b = mpmath.exp(self.lq - lz) * th(x) * th(p * q2) / th(q2 * x)
        c = th(p * x) * th(q2) / th(q2 * x)
        d = mpmath.exp(self.lp / 2 - self.lq - 2 * lz) * th(x) * th(q2) / th(p * q2 * x)
        zero = mpmath.mpc(0)
        return [[scalar * e for e in row] for row in
                ([a, zero, zero, d], [zero, b, c, zero], [zero, c, b, zero], [d, zero, zero, a])]

    @_cached
    def v(self, log_z):
        """The diagonal of V(z) = diag(z^{(N+1-2i)/N}), i = 1..N."""
        n = self.n
        return [self.power(log_z, Fraction(n + 1 - 2 * i, n)) for i in range(1, n + 1)]

    @_cached
    def f(self):
        """The diagonal of F = sum_{i,j} q^{alpha_ij} e_ii x e_jj, where alpha_ij = 1/2 + (i - j)/N
        above the diagonal, alpha_ji = -alpha_ij and alpha_ii = 0."""
        n = self.n
        return [self.power(self.lq, Fraction((j > i) - (i > j), 2) + Fraction(i - j, n))
                for i in range(1, n + 1) for j in range(1, n + 1)]

    @_cached
    def m(self, log_z):
        """m_k(z), k = 1..N, as the signed sum over S_N term by term:

        m_k = (-(p^N; p^N)/(p; p))^{3N} q^{2k-2N} Theta_p(q^2)^N Theta_p(z^2)/Theta_p(q^2 z^2)
              sum_sigma sgn(sigma) prod_l Shat_{l, k + shift_l}^{sigma(l)}(z/q^{l-1}),

        shift_l = sum_{i<l} (i - sigma(i)), Shat the theta quotient of S alone."""
        n, q, p, pn = self.n, self.q, self.p, self.pn
        x, q2 = mpmath.exp(2 * log_z), q**2
        pref = ((-poch_base(pn) / poch_base(p)) ** (3 * n) * theta(q2, p) ** n
                * theta(x, p) / theta(q2 * x, p))

        @functools.lru_cache(maxsize=None)
        def th(d, ell=None, with_q=True):
            # Theta_{p^N}(p^{N+d} q^2 w^2), w = z q^{1-ell}; no w^2 without ell, no q^2 unless with_q
            w2 = 1 if ell is None else mpmath.exp(2 * (log_z - (ell - 1) * self.lq))
            return theta(mpmath.exp((n + d) * self.lp) * (q2 if with_q else 1) * w2, pn)

        @functools.lru_cache(maxsize=None)
        def s_hat(ell, b, c):
            # the theta quotient of S_{ell,c}^b at w = z q^{1-ell}
            return th(c - ell, ell) / (th(c - b, ell, False) * th(b - ell))

        values = []
        for k in range(1, n + 1):
            total = mpmath.mpc(0)
            for sigma in itertools.permutations(range(1, n + 1)):
                inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
                term, shift = mpmath.mpc((-1) ** inversions), 0
                for ell, b in enumerate(sigma, start=1):
                    term *= s_hat(ell, b, k + shift)
                    shift += ell - b
                total += term
            values.append(total * pref * self.power(self.lq, 2 * k - 2 * n))
        return values
