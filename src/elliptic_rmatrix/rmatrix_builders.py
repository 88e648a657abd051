"""Builders for the Z_N-symmetric elliptic R-matrix and its trigonometric kin.

Six families share one entry point, :func:`build_r`:

* ``ELLIPTIC``      - the N^2 x N^2 elliptic R-matrix R(z) with entries
                      eta(z) * S_{a,c}^{b}(z) * (-1)^{(a+c-b-d)/N} on the
                      positions a + c = b + d (mod N), zero elsewhere;
* ``ELLIPTIC_HAT``  - tau_N(q^{1/2} z^{-1}) R(z), the normalization whose
                      exchange relations close without extra scalars;
* ``EIGHT_VERTEX``  - the explicit N = 2 matrix written directly in terms of
                      theta functions with base p^2 (an independent route
                      kept for cross-validation against ``ELLIPTIC``);
* ``HOMOGENEOUS``   - the trigonometric R-matrix in the homogeneous
                      gradation, spectral variable x;
* ``PRINCIPAL``     - its principal-gradation gauge transform, spectral
                      variable z with x = z^2 inside;
* ``NON_ELLIPTIC``  - the twisted principal matrix that the elliptic family
                      reaches in the p -> 0 limit.

All spectral arguments are logarithms (:class:`LogComplex`), so fractional
powers such as z^{2/N} are single-valued by construction.

The entry coefficient S_{a,c}^{b}(z), which the elliptic builder, s_coeff
and the closed-form determinant share, depends on the indices of its thetas
only through c - a, b - a and c - b, so each is computed once per index
offset per z (``_SThetas``).

Every value that depends on (N, q, p) alone - the Pochhammer scales of the
pole guards, eta's constant factors, the q-dependent theta table of S, the
elliptic builder's gather arrays, the fractional exponents of the scalars -
is computed once per :class:`ModelParams` instance, on first use, and kept
with that instance (``ModelParams._constants``); a build computes only what
depends on z.
"""

from __future__ import annotations

import cmath
import enum
import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, KindError, PoleError
from .special_functions import (
    DEFAULT_POLICY,
    LogComplex,
    TruncationPolicy,
    elliptic_gamma_ratio,
    pochhammer_inf,
    theta,
    theta_array,
)
from .tensor_algebra import TensorOperator

__all__ = [
    "RKind",
    "ModelParams",
    "s_coeff",
    "s_theta_ratio",
    "kappa_inv",
    "eta",
    "tau",
    "u_scalar",
    "rho",
    "build_r",
    "build_v",
    "alpha_exponent",
    "build_f",
    "build_g",
    "build_h",
    "build_g_half",
]

# Denominator values below POLE_GUARD times the natural theta scale raise PoleError.
POLE_GUARD = 1e-12


class RKind(enum.Enum):
    """R-matrix family selector; values double as CLI tags."""

    ELLIPTIC = "elliptic"
    ELLIPTIC_HAT = "elliptic-hat"
    EIGHT_VERTEX = "eightvertex"
    HOMOGENEOUS = "homogeneous"
    PRINCIPAL = "principal"
    NON_ELLIPTIC = "nonelliptic"

    @classmethod
    def from_tag(cls, tag: str) -> "RKind":
        for kind in cls:
            if kind.value == tag:
                return kind
        raise KindError(f"unknown R-matrix kind {tag!r}; choose from "
                        f"{[k.value for k in cls]}")

    def exists_at(self, n: int) -> bool:
        """False only for the explicit eight-vertex form, which needs N = 2."""
        return self is not RKind.EIGHT_VERTEX or n == 2


@dataclass(frozen=True)
class ModelParams:
    """Model parameters (N, q, p) plus numerical policy.

    q and p are carried as logarithms.  Construction enforces the hard
    domain conditions |q| < 1 and |p| < 1 needed by every infinite product;
    :meth:`genericity_warnings` reports soft violations (parameters too
    close to roots of unity or to the lattice p^a q^b = 1), which shrink
    theta denominators without invalidating the formulas.
    """

    n: int
    log_q: LogComplex
    log_p: LogComplex
    policy: TruncationPolicy = field(default=DEFAULT_POLICY)
    genericity_margin: float = 1e-4

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"N must be an integer >= 2, got {self.n!r}")
        if self.log_q.magnitude() >= 1.0:
            raise DomainError(f"|q| must be < 1, got {self.log_q.magnitude():.6f}")
        if self.log_p.magnitude() >= 1.0:
            raise DomainError(f"|p| must be < 1, got {self.log_p.magnitude():.6f}")

    @property
    def q(self) -> complex:
        return self.log_q.to_complex()

    @property
    def p(self) -> complex:
        return self.log_p.to_complex()

    def omega(self) -> complex:
        return cmath.exp(2j * cmath.pi / self.n)

    def genericity_warnings(self) -> list[str]:
        margin = self.genericity_margin
        q, k = self.q, np.arange(1, 2 * self.n + 1)
        warnings = [f"q^{2 * j} within {margin:g} of 1"
                    for j in k[np.abs(q ** (2 * k) - 1.0) <= margin].tolist()]
        # p^a q^b over a, b in -2N..2N, row-major in a; overflowed powers never fire
        e = np.arange(-2 * self.n, 2 * self.n + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.abs(np.outer(self.p ** e, q ** e) - 1.0) <= margin
        grid[2 * self.n, 2 * self.n] = False  # a = b = 0
        warnings += [f"p^{a} q^{b} within {margin:g} of 1"
                     for a, b in (e[np.argwhere(grid)]).tolist()]
        return warnings

    def digest(self) -> str:
        raw = (
            f"N={self.n};q={self.q.real!r},{self.q.imag!r};"
            f"p={self.p.real!r},{self.p.imag!r}"
        )
        return hashlib.sha256(raw.encode()).hexdigest()[:16]

    @cached_property
    def _constants(self) -> "_Constants":
        """The z-independent values the builders read; not a field, so equality,
        hashing and ``dataclasses.replace`` ignore it."""
        return _Constants(self)


def _guard_scale(base_poch: complex) -> float:
    """POLE_GUARD |(b; b)| from ``base_poch`` = (b; b): a theta denominator of
    base b below it raises PoleError."""
    return POLE_GUARD * max(abs(base_poch), 1e-300)


class _Constants:
    """The values of one :class:`ModelParams` that no spectral point changes.

    Each is computed on first use, where a build first needs it, so errors
    arise in the order they would without the hoisting, and a kind that never
    reads a value (the trigonometric ones read no p) never computes it.  The
    object keeps no reference to its parameters and dies with them.
    """

    def __init__(self, params: ModelParams):
        n, lq, lp = params.n, params.log_q, params.log_p
        self.n, self.log_q, self.log_p, self.policy = n, lq, lp, params.policy
        self.log_q2, self.log_pn, self.log_big_q = lq**2, lp**n, lq ** (2 * n)
        self.log_sqrt_q = lq**0.5
        # the fractional exponents, as the floats LogComplex.__pow__ would make of them
        self.eta_power = float(Fraction(2, n))
        self.tau_power = float(Fraction(2, n) - 2)
        self.hat_power = float(Fraction(2 - 2 * n, n))
        self._q_tables: dict[range, _QTable] = {}

    @cached_property
    def poch_p(self) -> complex:
        """(p; p)_inf."""
        return pochhammer_inf(self.log_p, (self.log_p,), self.policy)

    @cached_property
    def poch_pn(self) -> complex:
        """(p^N; p^N)_inf."""
        return pochhammer_inf(self.log_pn, (self.log_pn,), self.policy)

    @cached_property
    def poch_big_q(self) -> complex:
        """(Q; Q)_inf, Q = q^{2N}."""
        return pochhammer_inf(self.log_big_q, (self.log_big_q,), self.policy)

    @cached_property
    def poch_ratio(self) -> complex:
        """(p^N; p^N)_inf / (p; p)_inf."""
        return self.poch_pn / self.poch_p

    @cached_property
    def poch_ratio_cubed(self) -> complex:
        return self.poch_ratio**3

    @cached_property
    def theta_q2(self) -> complex:
        """Theta_p(q^2)."""
        return theta(self.log_q2, self.log_p, self.policy)

    @cached_property
    def poch_p2(self) -> complex:
        """(p^2; p^2)_inf, the eight-vertex base."""
        return pochhammer_inf(self.log_p**2, (self.log_p**2,), self.policy)

    @cached_property
    def guard_p(self) -> float:
        return _guard_scale(self.poch_p)

    @cached_property
    def guard_pn(self) -> float:
        return _guard_scale(self.poch_pn)

    @cached_property
    def guard_big_q(self) -> float:
        return _guard_scale(self.poch_big_q)

    @cached_property
    def guard_p2(self) -> float:
        return _guard_scale(self.poch_p2)

    @cached_property
    def rho_prefactor(self) -> complex:
        """q^{1/N - 1}."""
        return (self.log_q ** (Fraction(1, self.n) - 1)).to_complex()

    @cached_property
    def gather(self) -> "_Gather":
        return _Gather(self)

    def q_table(self, offsets: range) -> "_QTable":
        """The z-free half of :class:`_SThetas` over ``offsets``, one per range."""
        table = self._q_tables.get(offsets)
        if table is None:
            table = self._q_tables[offsets] = _QTable(self, offsets)
        return table


def _guard_den(val: complex, guard: float, message: str, log_arg: LogComplex) -> complex:
    """``val``, a theta denominator of base b at ``log_arg``; PoleError when
    |val| < ``guard`` = POLE_GUARD |(b; b)|, the rule for every theta denominator."""
    if abs(val) < guard:
        raise PoleError(message, argument=log_arg.to_complex())
    return val


def _theta_den(
    log_arg: LogComplex,
    log_base: LogComplex,
    guard: float,
    policy: TruncationPolicy,
    what: str,
) -> complex:
    """Theta value destined for a denominator; PoleError when it is below ``guard``,
    the base's :func:`_guard_scale`."""
    return _guard_den(theta(log_arg, log_base, policy), guard,
                      f"denominator theta vanished in {what}", log_arg)


class _QTable:
    """The z-free half of :class:`_SThetas` over one offset range: the logs of
    p^{N+d} q^2 and p^{N+d}, which num and den_z add log z^2 to, the table
    den_q[d] = Theta_{p^N}(p^{N+d} q^2) (read-only, shared by every z), and the
    argument of its first entry below the pole guard, None when no entry is."""

    def __init__(self, constants: _Constants, offsets: range):
        shifts = (constants.n + np.arange(offsets.start, offsets.stop)) * constants.log_p.value
        q_shifts = shifts + constants.log_q2.value
        self.z_free = np.concatenate([q_shifts, shifts])
        self.den_q = theta_array(q_shifts, constants.log_pn, constants.policy)
        self.den_q.flags.writeable = False
        bad = np.flatnonzero(np.abs(self.den_q) < constants.guard_pn)
        self.pole = cmath.exp(q_shifts[bad[0]]) if bad.size else None


class _SThetas:
    """The thetas of :func:`s_theta_ratio` at one z over the index offsets
    d in ``offsets``: arrays num[d] = Theta(p^{N+d} q^2 z^2), den_z[d] =
    Theta(p^{N+d} z^2) and den_q[d] = Theta(p^{N+d} q^2), base p^N, read at
    position d - offsets.start.  den_q comes from the parameters' constants;
    num and den_z from one :func:`theta_array` call.  The denominators raise
    PoleError at their first vanishing offset, den_q before den_z, on every
    z.  ``z_zero_cancelled`` leaves den_z(0), which vanishes at z^2 = 1,
    unguarded and set to 1: the caller forms that quotient itself.
    """

    def __init__(
        self, params: ModelParams, log_z: LogComplex, offsets: range,
        *, z_zero_cancelled: bool = False,
    ):
        constants = params._constants
        table = constants.q_table(offsets)
        z2 = (log_z**2).value
        self.start, self.den_q = offsets.start, table.den_q
        logs = table.z_free + z2
        self.num, self.den_z = theta_array(logs, constants.log_pn, params.policy).reshape(2, -1)
        if z_zero_cancelled:
            self.den_z[-offsets.start] = 1.0
        if table.pole is not None:
            raise PoleError("denominator theta vanished in S (q-dependent theta)",
                            argument=table.pole)
        bad = np.flatnonzero(np.abs(self.den_z) < constants.guard_pn)
        if bad.size:
            raise PoleError("denominator theta vanished in S (z-dependent theta)",
                            argument=cmath.exp(logs[self.den_q.size + bad[0]]))

    def ratio(self, a: int, b: int, c: int) -> complex:
        """The theta quotient of S_{a,c}^{b}(z); every offset must lie in the table's range."""
        i, j, k = c - a - self.start, c - b - self.start, b - a - self.start
        if min(i, j, k) < 0:
            raise IndexError(f"offset below the theta table's range at ({a}, {b}, {c})")
        return complex(self.num[i]) / (complex(self.den_z[j]) * complex(self.den_q[k]))


def _s_powers(n: int, log_q: LogComplex, log_p: LogComplex, a, b, c) -> tuple:
    """The power prefactor z^{2(b-a)/N} q^{2(c-b)/N} p^{(b-a)(c-b)/N} of S_{a,c}^{b}(z)
    without z: z's exponent and the float logs of the q and p powers, for integer
    indices or index arrays; int/int division rounds correctly, so each exponent
    is the float nearest its exact rational."""
    return (
        2 * (b - a) / n,
        (2 * (c - b) / n) * log_q.value,
        ((b - a) * (c - b) / n) * log_p.value,
    )


def _s_prefactor(powers: tuple, log_z: LogComplex):
    """The power prefactor at z, as one exp of float logs, from :func:`_s_powers`."""
    z_exp, q_log, p_log = powers
    return np.exp(z_exp * log_z.value + q_log + p_log)


def s_theta_ratio(params: ModelParams, a: int, b: int, c: int, log_z: LogComplex) -> complex:
    """Theta-ratio core of the entry coefficient, for arbitrary integer indices.

    Theta_{p^N}(p^{N+c-a} q^2 z^2) /
        [Theta_{p^N}(p^{N+c-b} z^2) Theta_{p^N}(p^{N+b-a} q^2)]

    The integer offsets enter the p-powers directly, with no modular
    reduction; this is the form the quantum-determinant sum needs.
    """
    offsets = (c - a, c - b, b - a)
    return _SThetas(params, log_z, range(min(offsets), max(offsets) + 1)).ratio(a, b, c)


def s_coeff(params: ModelParams, a: int, b: int, c: int, log_z: LogComplex) -> complex:
    """Entry coefficient S_{a,c}^{b}(z) of the elliptic R-matrix.

    S_{a,c}^{b}(z) = z^{2(b-a)/N} q^{2(c-b)/N} p^{(b-a)(c-b)/N} *
        s_theta_ratio(a, b, c, z)

    a, b label rows/columns in 1..N; c may be any integer (the value is
    N-periodic in c and invariant under a common shift of a, b, c).
    """
    n = params.n
    if not (1 <= a <= n and 1 <= b <= n):
        raise DomainError(f"indices a, b must lie in 1..{n}, got a={a}, b={b}")
    powers = _s_powers(n, params.log_q, params.log_p, a, b, c)
    return complex(_s_prefactor(powers, log_z)) * s_theta_ratio(params, a, b, c, log_z)


def kappa_inv(params: ModelParams, log_z2: LogComplex) -> complex:
    """1/kappa_N evaluated at z^2 (the argument is the log of z^2).

    1/kappa(z^2) = Gamma(p z^2) Gamma(Q z^2) Gamma(p q^{2N-2} z^{-2}) Gamma(q^2 z^{-2})

    with Gamma = Gamma(.; p, Q) the elliptic gamma function and Q = q^{2N}.
    Reflection, Gamma(x) Gamma(pQ/x) = 1, pairs it as
    [Gamma(p z^2) / Gamma(p z^{-2})] [Gamma(q^2 z^{-2}) / Gamma(q^2 z^2)],
    which is exactly 1 at z^2 = 1.
    """
    lp, q2, z2inv = params.log_p, params.log_q**2, log_z2.inv()
    zeros, poles = elliptic_gamma_ratio(
        (lp * log_z2, q2 * z2inv), (lp * z2inv, q2 * log_z2),
        lp, params.log_q ** (2 * params.n), params.policy,
    )
    if abs(poles) < POLE_GUARD * max(abs(zeros), 1e-300):
        raise PoleError("kappa denominator vanished", argument=log_z2.to_complex())
    return zeros / poles


def _eta_common(params: ModelParams, log_z: LogComplex, scalar_kappa: complex) -> complex:
    """eta(z) / Theta_p(p z^2) with ``scalar_kappa`` in place of 1/kappa(z^2)."""
    c = params._constants
    return (
        (log_z**c.eta_power).to_complex()
        * scalar_kappa
        * c.poch_ratio_cubed
        * c.theta_q2
        / _theta_den(c.log_q2 * log_z**2, params.log_p, c.guard_p, params.policy, "eta")
    )


def eta(params: ModelParams, log_z: LogComplex) -> complex:
    """Overall normalization eta(z) of the elliptic R-matrix."""
    lp, z2 = params.log_p, log_z**2
    scale = _eta_common(params, log_z, kappa_inv(params, z2))
    return scale * theta(lp * z2, lp, params.policy)


def tau(params: ModelParams, log_x: LogComplex) -> complex:
    """tau_N(x) = x^{2/N - 2} Theta_{q^{2N}}(q x^2) / Theta_{q^{2N}}(q x^{-2}).

    q^N-periodic in x; relates the two elliptic normalizations through
    R_hat(z) = tau_N(q^{1/2} z^{-1}) R(z).
    """
    lq, policy, c = params.log_q, params.policy, params._constants
    x2 = log_x**2
    num = theta(lq * x2, c.log_big_q, policy)
    den = _theta_den(lq * x2.inv(), c.log_big_q, c.guard_big_q, policy, "tau")
    return (log_x**c.tau_power).to_complex() * num / den


def u_scalar(params: ModelParams, log_z: LogComplex) -> complex:
    """Unitarity scalar U(z) of the hat normalization.

    U(z) = q^{2/N - 2} Theta_{q^{2N}}(q^2 z^2) Theta_{q^{2N}}(q^2 z^{-2}) /
           [Theta_{q^{2N}}(z^2) Theta_{q^{2N}}(z^{-2})]

    and satisfies U(z) = tau_N(q^{1/2} z) tau_N(q^{1/2} z^{-1}).
    """
    policy, c = params.policy, params._constants
    big_q, guard, q2, z2 = c.log_big_q, c.guard_big_q, c.log_q2, log_z**2
    num = theta(q2 * z2, big_q, policy) * theta(q2 * z2.inv(), big_q, policy)
    den = _theta_den(z2, big_q, guard, policy, "U") * _theta_den(z2.inv(), big_q, guard, policy, "U")
    return (params.log_q**c.tau_power).to_complex() * num / den


def _hat_scalar_kappa(params: ModelParams, log_z: LogComplex) -> complex:
    """tau_N(q^{1/2} z^{-1}) / kappa_N(z^2), finite at z = q.

    tau's numerator theta_Q(q^2 z^{-2}) vanishes at z = q, where kappa's
    factor Gamma(q^2 z^{-2}) has a pole; Gamma(p x) = theta_Q(x) Gamma(x)
    joins the two, so the product is

        pref (Q; Q) Gamma(p z^2) Gamma(Q z^2) Gamma(p q^{2N-2} z^{-2}) Gamma(p q^2 z^{-2})
            / Theta_Q(z^2).

    z = q is exactly where the hat matrix's kernel is probed.
    """
    lp, policy, c = params.log_p, params.policy, params._constants
    big_q, q2 = c.log_big_q, c.log_q2
    z2 = log_z**2
    z2inv = z2.inv()
    pref = ((c.log_sqrt_q / log_z) ** c.hat_power).to_complex()
    # Gamma(Q z^2) = 1/Gamma(p z^{-2}) and Gamma(p q^{2N-2} z^{-2}) = 1/Gamma(q^2 z^2)
    zeros, poles = elliptic_gamma_ratio(
        (lp * z2, lp * q2 * z2inv), (lp * z2inv, q2 * z2), lp, big_q, policy)
    num = c.poch_big_q * zeros
    den = theta(z2, big_q, policy) * poles
    if abs(den) < POLE_GUARD * max(abs(num), 1e-300):
        raise PoleError("hat prefactor denominator vanished", argument=log_z.to_complex())
    return pref * num / den


def rho(params: ModelParams, log_x: LogComplex) -> complex:
    """Trigonometric normalization rho_N(x).

    rho_N(x) = q^{1/N - 1} (q^2 x; q^{2N}) (q^{2N-2} x; q^{2N}) /
               [(x; q^{2N}) (q^{2N} x; q^{2N})]
    """
    policy, c = params.policy, params._constants
    big_q = c.log_big_q
    bases = (big_q,)
    num = pochhammer_inf(c.log_q2 * log_x, bases, policy) * pochhammer_inf(
        (params.log_q ** (2 * params.n - 2)) * log_x, bases, policy
    )
    den = pochhammer_inf(log_x, bases, policy) * pochhammer_inf(
        big_q * log_x, bases, policy
    )
    if abs(den) < POLE_GUARD * max(abs(num), 1e-300):
        raise PoleError("rho denominator vanished", argument=log_x.to_complex())
    return c.rho_prefactor * num / den


# ---------------------------------------------------------------------------
# diagonal/cyclic dressing matrices


def build_g(params: ModelParams) -> TensorOperator:
    """g = diag(omega^i), i = 1..N, omega = exp(2 i pi / N)."""
    n = params.n
    diag = [cmath.exp(2j * cmath.pi * i / n) for i in range(1, n + 1)]
    return TensorOperator(n, 1, np.diag(diag))


def build_g_half(params: ModelParams, alternate: bool = False) -> TensorOperator:
    """Square root diag(e^{i pi i / N}) of g; g_half @ g_half == g.

    ``alternate`` flips the branch of every omega^{i/2}, multiplying entry i
    by (-1)^i.  The principal branch is the default convention; the
    quasi-periodicity check retries on the alternate one and reports which
    branch held.
    """
    n = params.n
    diag = [cmath.exp(1j * cmath.pi * i / n) * ((-1.0) ** i if alternate else 1.0)
            for i in range(1, n + 1)]
    return TensorOperator(n, 1, np.diag(diag))


def build_h(params: ModelParams) -> TensorOperator:
    """Cyclic shift h with entries h_{ij} = delta_{i+1, j} (indices mod N)."""
    n = params.n
    mat = np.zeros((n, n), dtype=np.complex128)
    for i in range(1, n + 1):
        mat[i - 1, i % n] = 1.0
    return TensorOperator(n, 1, mat)


def build_v(params: ModelParams, log_z: LogComplex) -> TensorOperator:
    """Gauge matrix V(z) = diag(z^{(N+1-2i)/N}) linking the two gradations."""
    n = params.n
    diag = [cmath.exp(((n + 1 - 2 * i) / n) * log_z.value) for i in range(1, n + 1)]
    return TensorOperator(n, 1, np.diag(diag))


def _twice_n_alpha(n: int, i: int, j: int) -> int:
    """2N alpha_{ij}, an integer: N + 2(i - j) above the diagonal, antisymmetric."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"indices must lie in 1..{n}, got ({i}, {j})")
    if i > j:
        return -_twice_n_alpha(n, j, i)
    return n + 2 * (i - j) if i < j else 0


def alpha_exponent(n: int, i: int, j: int) -> Fraction:
    """Twist exponent alpha_{ij}: 1/2 + (i-j)/N above the diagonal, antisymmetric."""
    return Fraction(_twice_n_alpha(n, i, j), 2 * n)


def build_f(params: ModelParams) -> TensorOperator:
    """Diagonal twist F with q^{alpha_{ij}} on e_ii x e_jj; F = identity at N = 2."""
    n, lq = params.n, params.log_q
    dim = n * n
    diag = np.ones(dim, dtype=np.complex128)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                diag[(i - 1) * n + (j - 1)] = cmath.exp(float(alpha_exponent(n, i, j)) * lq.value)
    return TensorOperator(n, 2, np.diag(diag))


# ---------------------------------------------------------------------------
# the R-matrices themselves


class _Gather:
    """The elliptic builder's N^3 entries as index arrays in (a, c, b) order, d
    fixed by a + c = b + d (mod N): each entry's flat position in the N^2 x N^2
    matrix, its sign (-1)^{(a+c-b-d)/N}, its offsets c - a, c - b and b - a as
    positions in tables over 1-N..N-1, and its power prefactor's :func:`_s_powers`."""

    def __init__(self, constants: _Constants):
        n = constants.n
        a, c, b = (i.ravel() for i in np.indices((n, n, n)))
        d = (a + c - b) % n
        self.flat = (a * n + c) * (n * n) + b * n + d
        self.sign = np.where((a + c - b - d) // n % 2, -1.0, 1.0)  # a+c-b-d is a multiple of N
        self.num_at, self.z_at, self.q_at = c - a + n - 1, c - b + n - 1, b - a + n - 1
        self.powers = _s_powers(n, constants.log_q, constants.log_p, a, b, c)


def _build_elliptic(
    params: ModelParams, log_z: LogComplex, scalar_kappa: complex
) -> np.ndarray:
    # Entries are eta(z) * S_{a,c}^{b}(z) * (-1)^{(a+c-b-d)/N}, but eta and S
    # are not multiplied as black boxes: eta's factor Theta_p(p z^2) and the
    # b = c denominator Theta_{p^N}(p^N z^2) share a simple zero at z^2 = 1,
    # so that quotient is formed with the common (1 - z^{-2}) cancelled and
    # R(1) comes out as P with exact zeros off P.  ``scalar_kappa`` is
    # 1/kappa(z^2), or for the hat kind tau(q^{1/2}/z)/kappa(z^2) formed
    # jointly (see _hat_scalar_kappa).
    n, lp, policy, c = params.n, params.log_p, params.policy, params._constants
    z2 = log_z**2

    def theta_without_zero(base: LogComplex, base_poch: complex) -> complex:
        # Theta_base(base z^2) / (1 - z^{-2}), finite at z^2 = 1; base_poch is (base; base)
        return (
            pochhammer_inf(base * z2, (base,), policy)
            * pochhammer_inf(base * z2.inv(), (base,), policy)
            * base_poch
        )

    common = _eta_common(params, log_z, scalar_kappa)
    theta_p_z = theta(lp * z2, lp, policy)
    diag_ratio = theta_without_zero(lp, c.poch_p) / _guard_den(
        theta_without_zero(c.log_pn, c.poch_pn), c.guard_pn,
        "elliptic diagonal theta ratio vanished", z2,
    )

    # every offset in 1-N..N-1 occurs in the entries; den_z(0) is replaced by diag_ratio
    thetas = _SThetas(params, log_z, range(1 - n, n), z_zero_cancelled=True)
    z_ratio = theta_p_z / thetas.den_z
    z_ratio[n - 1] = diag_ratio
    g = c.gather
    mat = np.zeros(n**4, dtype=np.complex128)
    mat[g.flat] = (
        common * g.sign * _s_prefactor(g.powers, log_z) * thetas.num[g.num_at]
        * z_ratio[g.z_at] / thetas.den_q[g.q_at]
    )
    return mat.reshape(n * n, n * n)


def _build_eight_vertex(params: ModelParams, log_z: LogComplex) -> np.ndarray:
    lq, lp, policy, c = params.log_q, params.log_p, params.policy, params._constants
    lp2 = lp**2
    z2 = log_z**2
    q2 = c.log_q2

    def th(arg: LogComplex) -> complex:
        return theta(arg, lp2, policy)

    den_a = _theta_den(lp * q2 * z2, lp2, c.guard_p2, policy, "eight-vertex a/d")
    den_b = _theta_den(q2 * z2, lp2, c.guard_p2, policy, "eight-vertex b/c")
    a_val = log_z.inv().to_complex() * th(lp * z2) * th(lp * q2) / den_a
    b_val = (lq / log_z).to_complex() * th(z2) * th(lp * q2) / den_b
    c_val = th(lp * z2) * th(q2) / den_b
    # Corner entries carry -sqrt(p); the root must be -exp(log(p)/2), the
    # same branch the fractional p-powers of the generic builder produce.
    # The opposite root flips the corners and breaks the p-shift relation.
    d_val = ((lp**0.5) / (lq * z2)).to_complex() * th(z2) * th(q2) / den_a

    prefactor = kappa_inv(params, z2) * c.poch_p2 / c.poch_p**2
    mat = np.array(
        [
            [a_val, 0.0, 0.0, d_val],
            [0.0, b_val, c_val, 0.0],
            [0.0, c_val, b_val, 0.0],
            [d_val, 0.0, 0.0, a_val],
        ],
        dtype=np.complex128,
    )
    return prefactor * mat


def _rational_pole_guard(q2x: complex, where: str) -> complex:
    den = 1.0 - q2x
    if abs(den) < POLE_GUARD * max(1.0, abs(q2x)):
        raise PoleError(f"trigonometric denominator 1 - q^2 x vanished in {where}",
                        argument=q2x)
    return den


def _build_trigonometric(params: ModelParams, kind: RKind, log_z: LogComplex) -> np.ndarray:
    n, lq = params.n, params.log_q
    q = lq.to_complex()
    if kind is RKind.HOMOGENEOUS:
        log_x = log_z
    else:
        log_x = log_z**2
    x = log_x.to_complex()
    den = _rational_pole_guard(q * q * x, kind.value)
    diag_base = q * (1.0 - x) / den
    exch_base = (1.0 - q * q) / den
    scalar = rho(params, log_x)

    mat = np.eye(n * n, dtype=np.complex128)  # the i != j diagonal entries are overwritten
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            pos_d = (i - 1) * n + (j - 1)  # e_ii x e_jj
            row_e = (i - 1) * n + (j - 1)  # e_ij x e_ji: row (i,j), column (j,i)
            col_e = (j - 1) * n + (i - 1)
            if kind is RKind.HOMOGENEOUS:
                mat[pos_d, pos_d] = diag_base
                mat[row_e, col_e] = exch_base * (x if i > j else 1.0)
            else:
                offset = 2 * (j - i) + (-n if i < j else n)
                mat[row_e, col_e] = exch_base * cmath.exp(((n + offset) / n) * log_z.value)
                if kind is RKind.NON_ELLIPTIC:
                    mat[pos_d, pos_d] = diag_base * cmath.exp((offset / n) * lq.value)
                else:
                    mat[pos_d, pos_d] = diag_base
    return scalar * mat


def build_r(params: ModelParams, kind: RKind, log_z: LogComplex) -> TensorOperator:
    """Assemble the requested R-matrix at spectral point z (given as a log).

    Rows and columns are composite indices over (C^N)^{x2} with slot 1 most
    significant; the entry at row (a, c), column (b, d) is the coefficient
    of e_{a,b} x e_{c,d}.
    """
    if not kind.exists_at(params.n):
        raise KindError(f"the {kind.value} kind has no matrix at N = {params.n}")
    if kind is RKind.ELLIPTIC:
        mat = _build_elliptic(params, log_z, kappa_inv(params, log_z**2))
    elif kind is RKind.ELLIPTIC_HAT:
        mat = _build_elliptic(params, log_z, _hat_scalar_kappa(params, log_z))
    elif kind is RKind.EIGHT_VERTEX:
        mat = _build_eight_vertex(params, log_z)
    elif kind in (RKind.HOMOGENEOUS, RKind.PRINCIPAL, RKind.NON_ELLIPTIC):
        mat = _build_trigonometric(params, kind, log_z)
    else:  # pragma: no cover - exhaustive over the enum
        raise KindError(f"unhandled kind {kind!r}")
    return TensorOperator(params.n, 2, mat)
