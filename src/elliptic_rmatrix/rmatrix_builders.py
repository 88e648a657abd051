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

All spectral arguments and the parameters q and p are plain complex
logarithms, so fractional powers such as z^{2/N} are single-valued by
construction: a product of numbers is a sum of logs, a power a float
multiple.  The thetas, Pochhammer products and elliptic gamma quotients are
the public functions of :mod:`special_functions`, and every scalar has one
definition, which the builders call.

The entry coefficient S_{a,c}^{b}(z), which the elliptic builder and the
closed-form determinant share, depends on the indices of its thetas only
through c - a, b - a and c - b, so each is computed once per index offset
per z (``_SThetas``).

Every value that depends on (N, q, p) alone - the Pochhammer scales of the
pole guards, eta's constant factors, the q-dependent theta table of S, the
elliptic builder's gather arrays, the fractional exponents of the scalars -
is computed once per :class:`ModelParams` instance, on first use, and kept
with that instance (``ModelParams._constants``); the gather arrays' index
tables, which depend on N alone, are shared by every instance at that N.  A
build computes only what depends on z.  Of that, what the two elliptic kinds share at one z is one
``_ZTables``, which ``build_r`` takes from a caller's memo when given one.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, KindError, PoleError
from .special_functions import (
    GammaBases,
    _poch,
    elliptic_gamma_ratio,
    pochhammer_inf,
    theta,
    theta_array,
)
from .tensor_algebra import TensorOperator

__all__ = [
    "RKind",
    "ModelParams",
    "kappa_inv",
    "eta",
    "tau",
    "u_scalar",
    "rho",
    "build_r",
    "build_v",
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
    """Model parameters (N, q, p).

    q and p are carried as plain complex logarithms, coerced to ``complex``.
    Construction enforces finite logs and the hard domain conditions
    |q| < 1 and |p| < 1 needed by every infinite product;
    :meth:`genericity_warnings` reports soft violations (parameters too
    close to roots of unity or to the lattice p^a q^b = 1), which shrink
    theta denominators without invalidating the formulas.
    """

    n: int
    log_q: complex
    log_p: complex
    genericity_margin: float = 1e-4

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"N must be an integer >= 2, got {self.n!r}")
        for name in ("log_q", "log_p"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if math.exp(self.log_q.real) >= 1.0:
            raise DomainError(f"|q| must be < 1, got {math.exp(self.log_q.real):.6f}")
        if math.exp(self.log_p.real) >= 1.0:
            raise DomainError(f"|p| must be < 1, got {math.exp(self.log_p.real):.6f}")

    @property
    def q(self) -> complex:
        return cmath.exp(self.log_q)

    @property
    def p(self) -> complex:
        return cmath.exp(self.log_p)

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
        self.n, self.log_q, self.log_p = n, lq, lp
        self.log_q2, self.log_pn, self.log_big_q = 2.0 * lq, float(n) * lp, float(2 * n) * lq
        self.log_sqrt_q = 0.5 * lq
        # the fractional exponents 2/N and (2 - 2N)/N (tau's, U's and the hat
        # prefactor's), each one int/int quotient and so the float nearest its
        # exact rational; 2 / n - 2 would round twice
        self.eta_power = 2 / n
        self.tau_power = (2 - 2 * n) / n
        self._q_tables: dict[range, _QTable] = {}

    @cached_property
    def poch_p(self) -> complex:
        """(p; p)_inf."""
        return pochhammer_inf(self.log_p, self.log_p)

    @cached_property
    def poch_pn(self) -> complex:
        """(p^N; p^N)_inf."""
        return pochhammer_inf(self.log_pn, self.log_pn)

    @cached_property
    def poch_big_q(self) -> complex:
        """(Q; Q)_inf, Q = q^{2N}."""
        return pochhammer_inf(self.log_big_q, self.log_big_q)

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
        return theta(self.log_q2, self.log_p)

    @cached_property
    def poch_p2(self) -> complex:
        """(p^2; p^2)_inf, the eight-vertex base."""
        return pochhammer_inf(2.0 * self.log_p, 2.0 * self.log_p)

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
        return cmath.exp((1 - self.n) / self.n * self.log_q)

    @cached_property
    def gamma(self) -> GammaBases:
        """The (p, Q) half of the elliptic gamma series.  A base check that fails
        raises at first use and, since nothing is kept, at every later one."""
        return GammaBases(self.log_p, self.log_big_q)

    @cached_property
    def gather(self) -> "_Gather":
        return _Gather(self)

    def q_table(self, offsets: range) -> "_QTable":
        """The z-free half of :class:`_SThetas` over ``offsets``, one per range."""
        table = self._q_tables.get(offsets)
        if table is None:
            table = self._q_tables[offsets] = _QTable(self, offsets)
        return table


def _guard_den(val: complex, guard: float, message: str, log_arg: complex) -> complex:
    """``val``, a theta denominator of base b at the plain log ``log_arg``; PoleError
    when |val| < ``guard`` = POLE_GUARD |(b; b)|, the rule for every theta denominator."""
    if abs(val) < guard:
        raise PoleError(message, argument=cmath.exp(log_arg))
    return val


def _theta_den(log_arg: complex, log_base: complex, guard: float, what: str) -> complex:
    """Theta value at plain logs destined for a denominator; PoleError when it is
    below ``guard``, the base's :func:`_guard_scale`."""
    return _guard_den(theta(log_arg, log_base), guard,
                      f"denominator theta vanished in {what}", log_arg)


class _QTable:
    """The z-free half of :class:`_SThetas` over one offset range: the logs of
    p^{N+d} q^2 and p^{N+d}, which num and den_z add log z^2 to, the table
    den_q[d] = Theta_{p^N}(p^{N+d} q^2) (read-only, shared by every z), and the
    argument of its first entry below the pole guard, None when no entry is."""

    def __init__(self, constants: _Constants, offsets: range):
        shifts = (constants.n + np.arange(offsets.start, offsets.stop)) * constants.log_p
        q_shifts = shifts + constants.log_q2
        self.z_free = np.concatenate([q_shifts, shifts])
        self.den_q = theta_array(q_shifts, constants.log_pn)
        self.den_q.flags.writeable = False
        bad = np.flatnonzero(np.abs(self.den_q) < constants.guard_pn)
        self.pole = cmath.exp(q_shifts[bad[0]]) if bad.size else None


class _SThetas:
    """The thetas of S_{a,c}^{b}(z)'s quotient Theta(p^{N+c-a} q^2 z^2) /
    [Theta(p^{N+c-b} z^2) Theta(p^{N+b-a} q^2)], base p^N, at one z = exp(``z``)
    over the index offsets d in ``offsets``: arrays num[d] = Theta(p^{N+d} q^2 z^2),
    den_z[d] = Theta(p^{N+d} z^2) and den_q[d] = Theta(p^{N+d} q^2), read at
    position d - offsets.start.  The offsets enter the p-powers directly, with
    no reduction mod N.  den_q comes from the parameters' constants;
    num and den_z from one :func:`theta_array` call.  The denominators raise
    PoleError at their first vanishing offset, den_q before den_z, on every
    z.  ``z_zero_cancelled`` leaves den_z(0), which vanishes at z^2 = 1,
    unguarded and set to 1: the caller forms that quotient itself.
    """

    def __init__(
        self, params: ModelParams, z: complex, offsets: range,
        *, z_zero_cancelled: bool = False,
    ):
        constants = params._constants
        table = constants.q_table(offsets)
        z2 = 2.0 * z
        self.start, self.den_q = offsets.start, table.den_q
        logs = table.z_free + z2
        self.num, self.den_z = theta_array(logs, constants.log_pn).reshape(2, -1)
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


def _s_exponents(n: int, a, b, c) -> tuple:
    """The exponents 2(b-a)/N, 2(c-b)/N and (b-a)(c-b)/N of z, q and p in the power
    prefactor of S_{a,c}^{b}(z), for integer indices or index arrays; int/int
    division rounds correctly, so each is the float nearest its exact rational."""
    return 2 * (b - a) / n, 2 * (c - b) / n, (b - a) * (c - b) / n


def _s_powers(exponents: Sequence, log_q: complex, log_p: complex) -> tuple:
    """The power prefactor z^{2(b-a)/N} q^{2(c-b)/N} p^{(b-a)(c-b)/N} of S_{a,c}^{b}(z)
    without z, from :func:`_s_exponents`: z's exponent and the float logs of the q
    and p powers."""
    z_exp, q_exp, p_exp = exponents
    return z_exp, q_exp * log_q, p_exp * log_p


def _s_prefactor(powers: tuple, z: complex):
    """The power prefactor at exp(``z``), as one exp of float logs, from :func:`_s_powers`."""
    z_exp, q_log, p_log = powers
    return np.exp(z_exp * z + q_log + p_log)


def kappa_inv(params: ModelParams, z2: complex) -> complex:
    """1/kappa_N evaluated at z^2 (the argument is the log of z^2).

    1/kappa(z^2) = Gamma(p z^2) Gamma(Q z^2) Gamma(p q^{2N-2} z^{-2}) Gamma(q^2 z^{-2})

    with Gamma = Gamma(.; p, Q) the elliptic gamma function and Q = q^{2N}.
    Reflection, Gamma(x) Gamma(pQ/x) = 1, pairs it as
    [Gamma(p z^2) / Gamma(p z^{-2})] [Gamma(q^2 z^{-2}) / Gamma(q^2 z^2)],
    which is exactly 1 at z^2 = 1.
    """
    c = params._constants
    lp, q2 = c.log_p, c.log_q2
    zeros, poles = elliptic_gamma_ratio((lp + z2, q2 - z2), (lp - z2, q2 + z2), c.gamma)
    if abs(poles) < POLE_GUARD * max(abs(zeros), 1e-300):
        raise PoleError("kappa denominator vanished", argument=cmath.exp(z2))
    return zeros / poles


def _eta_den(params: ModelParams, z: complex) -> complex:
    """eta's guarded denominator Theta_p(q^2 z^2) at the plain log ``z``."""
    c = params._constants
    return _theta_den(c.log_q2 + 2.0 * z, c.log_p, c.guard_p, "eta")


def _eta_common(
    params: ModelParams, z_power: complex, scalar_kappa: complex, den: complex
) -> complex:
    """eta(z) / Theta_p(p z^2) from ``z_power`` = z^{2/N} and ``den`` = :func:`_eta_den`,
    with ``scalar_kappa`` in place of 1/kappa(z^2)."""
    c = params._constants
    return z_power * scalar_kappa * c.poch_ratio_cubed * c.theta_q2 / den


def eta(params: ModelParams, z: complex) -> complex:
    """Overall normalization eta(z) of the elliptic R-matrix at the log ``z``."""
    lp = params.log_p
    z2 = 2.0 * z
    scalar_kappa = kappa_inv(params, z2)
    z_power = cmath.exp(params._constants.eta_power * z)
    scale = _eta_common(params, z_power, scalar_kappa, _eta_den(params, z))
    return scale * theta(lp + z2, lp)


def tau(params: ModelParams, x: complex) -> complex:
    """tau_N(x) = x^{2/N - 2} Theta_{q^{2N}}(q x^2) / Theta_{q^{2N}}(q x^{-2}).

    q^N-periodic in x; relates the two elliptic normalizations through
    R_hat(z) = tau_N(q^{1/2} z^{-1}) R(z).  ``x`` is the log of x.
    """
    lq, c = params.log_q, params._constants
    big_q = c.log_big_q
    x2 = 2.0 * x
    num = theta(lq + x2, big_q)
    den = _theta_den(lq - x2, big_q, c.guard_big_q, "tau")
    return cmath.exp(c.tau_power * x) * num / den


def u_scalar(params: ModelParams, z: complex) -> complex:
    """Unitarity scalar U(z) of the hat normalization.

    U(z) = q^{2/N - 2} Theta_{q^{2N}}(q^2 z^2) Theta_{q^{2N}}(q^2 z^{-2}) /
           [Theta_{q^{2N}}(z^2) Theta_{q^{2N}}(z^{-2})]

    and satisfies U(z) = tau_N(q^{1/2} z) tau_N(q^{1/2} z^{-1}).  ``z`` is the log of z.
    """
    c = params._constants
    big_q, guard, q2, z2 = c.log_big_q, c.guard_big_q, c.log_q2, 2.0 * z
    num = theta(q2 + z2, big_q) * theta(q2 - z2, big_q)
    den = _theta_den(z2, big_q, guard, "U") * _theta_den(-z2, big_q, guard, "U")
    return cmath.exp(c.tau_power * params.log_q) * num / den


def _hat_scalar_kappa(params: ModelParams, z: complex) -> complex:
    """tau_N(q^{1/2} z^{-1}) / kappa_N(z^2) at the plain log ``z``, finite at z = q.

    tau's numerator theta_Q(q^2 z^{-2}) vanishes at z = q, where kappa's
    factor Gamma(q^2 z^{-2}) has a pole; Gamma(p x) = theta_Q(x) Gamma(x)
    joins the two, so the product is

        pref (Q; Q) Gamma(p z^2) Gamma(Q z^2) Gamma(p q^{2N-2} z^{-2}) Gamma(p q^2 z^{-2})
            / Theta_Q(z^2).

    z = q is exactly where the hat matrix's kernel is probed.
    """
    c = params._constants
    lp, big_q, q2 = c.log_p, c.log_big_q, c.log_q2
    z2 = 2.0 * z
    pref = cmath.exp(c.tau_power * (c.log_sqrt_q - z))
    # Gamma(Q z^2) = 1/Gamma(p z^{-2}) and Gamma(p q^{2N-2} z^{-2}) = 1/Gamma(q^2 z^2)
    zeros, poles = elliptic_gamma_ratio((lp + z2, lp + q2 - z2), (lp - z2, q2 + z2), c.gamma)
    num = c.poch_big_q * zeros
    den = theta(z2, big_q) * poles
    if abs(den) < POLE_GUARD * max(abs(num), 1e-300):
        raise PoleError("hat prefactor denominator vanished", argument=cmath.exp(z))
    return pref * num / den


def rho(params: ModelParams, x: complex) -> complex:
    """Trigonometric normalization rho_N(x) at the log ``x``.

    rho_N(x) = q^{1/N - 1} (q^2 x; q^{2N}) (q^{2N-2} x; q^{2N}) /
               [(x; q^{2N}) (q^{2N} x; q^{2N})]
    """
    c = params._constants
    big_q = c.log_big_q
    base = cmath.exp(big_q)
    shift = float(2 * params.n - 2) * params.log_q
    num = _poch(cmath.exp(c.log_q2 + x), base) * _poch(cmath.exp(shift + x), base)
    den = _poch(cmath.exp(x), base) * _poch(cmath.exp(big_q + x), base)
    if abs(den) < POLE_GUARD * max(abs(num), 1e-300):
        raise PoleError("rho denominator vanished", argument=cmath.exp(x))
    return c.rho_prefactor * num / den


# ---------------------------------------------------------------------------
# diagonal/cyclic dressing matrices


def build_g(params: ModelParams) -> TensorOperator:
    """g = diag(omega^i), i = 1..N, omega = exp(2 i pi / N)."""
    n = params.n
    diag = [cmath.exp(2j * cmath.pi * i / n) for i in range(1, n + 1)]
    return TensorOperator(n, 1, np.diag(diag))


def build_g_half(params: ModelParams) -> TensorOperator:
    """Square root diag(e^{i pi i / N}) of g, the principal branch of every
    omega^{i/2}; g_half @ g_half == g."""
    n = params.n
    diag = [cmath.exp(1j * cmath.pi * i / n) for i in range(1, n + 1)]
    return TensorOperator(n, 1, np.diag(diag))


def build_h(params: ModelParams) -> TensorOperator:
    """Cyclic shift h with entries h_{ij} = delta_{i+1, j} (indices mod N)."""
    n = params.n
    mat = np.zeros((n, n), dtype=np.complex128)
    for i in range(1, n + 1):
        mat[i - 1, i % n] = 1.0
    return TensorOperator(n, 1, mat)


def build_v(params: ModelParams, log_z: complex) -> TensorOperator:
    """Gauge matrix V(z) = diag(z^{(N+1-2i)/N}) linking the two gradations."""
    n = params.n
    diag = [cmath.exp(((n + 1 - 2 * i) / n) * log_z) for i in range(1, n + 1)]
    return TensorOperator(n, 1, np.diag(diag))


def _twice_n_alpha(n: int, i: int, j: int) -> int:
    """2N alpha_{ij}, an integer: N + 2(i - j) above the diagonal, antisymmetric."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"indices must lie in 1..{n}, got ({i}, {j})")
    if i > j:
        return -_twice_n_alpha(n, j, i)
    return n + 2 * (i - j) if i < j else 0


def build_f(params: ModelParams) -> TensorOperator:
    """Diagonal twist F with q^{alpha_{ij}} on e_ii x e_jj; F = identity at N = 2."""
    n, lq = params.n, params.log_q
    dim = n * n
    diag = np.ones(dim, dtype=np.complex128)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                diag[(i - 1) * n + (j - 1)] = cmath.exp(_twice_n_alpha(n, i, j) / (2 * n) * lq)
    return TensorOperator(n, 2, np.diag(diag))


# ---------------------------------------------------------------------------
# the R-matrices themselves


@lru_cache(maxsize=8)
def _gather_indices(n: int) -> tuple[np.ndarray, ...]:
    """:class:`_Gather`'s arrays that depend on N alone, read-only: the flat
    positions, the signs, the three table positions and :func:`_s_exponents`."""
    a, c, b = (i.ravel() for i in np.indices((n, n, n)))
    d = (a + c - b) % n
    arrays = (
        (a * n + c) * (n * n) + b * n + d,
        np.where((a + c - b - d) // n % 2, -1.0, 1.0),  # a+c-b-d is a multiple of N
        c - a + n - 1, c - b + n - 1, b - a + n - 1,
        *_s_exponents(n, a, b, c),
    )
    for array in arrays:
        array.flags.writeable = False
    return arrays


class _Gather:
    """The elliptic builder's N^3 entries as index arrays in (a, c, b) order, d
    fixed by a + c = b + d (mod N): each entry's flat position in the N^2 x N^2
    matrix, its sign (-1)^{(a+c-b-d)/N}, its offsets c - a, c - b and b - a as
    positions in tables over 1-N..N-1, and its power prefactor's :func:`_s_powers`.
    All but the powers are :func:`_gather_indices`, built once per N."""

    def __init__(self, constants: _Constants):
        self.flat, self.sign, self.num_at, self.z_at, self.q_at, *exponents = (
            _gather_indices(constants.n))
        self.powers = _s_powers(exponents, constants.log_q, constants.log_p)


class _ZTables:
    """The part of an elliptic build at z = exp(``z``) that both elliptic kinds
    share: z^{2/N}, eta's guarded denominator Theta_p(q^2 z^2), and the N^3
    entries' factors in :class:`_Gather` order - the power prefactor, the
    numerator thetas, the z-dependent theta quotients and the den_q thetas.

    Entries are eta(z) * S_{a,c}^{b}(z) * (-1)^{(a+c-b-d)/N}, but eta and S
    are not multiplied as black boxes: eta's factor Theta_p(p z^2) and the
    b = c denominator Theta_{p^N}(p^N z^2) share a simple zero at z^2 = 1,
    so that quotient is formed with the common (1 - z^{-2}) cancelled and
    R(1) comes out as P with exact zeros off P.  The pole guards fire in
    the order eta, the diagonal quotient, den_q, den_z.
    """

    def __init__(self, params: ModelParams, z: complex):
        n, lp, c = params.n, params.log_p, params._constants
        z2 = 2.0 * z

        def theta_without_zero(lb: complex, base_poch: complex) -> complex:
            # Theta_b(b z^2) / (1 - z^{-2}), finite at z^2 = 1; lb = log b, base_poch = (b; b)
            base = cmath.exp(lb)
            return _poch(cmath.exp(lb + z2), base) * _poch(cmath.exp(lb - z2), base) * base_poch

        self.z_power = cmath.exp(c.eta_power * z)
        self.eta_den = _eta_den(params, z)
        theta_p_z = theta(lp + z2, lp)
        diag_ratio = theta_without_zero(lp, c.poch_p) / _guard_den(
            theta_without_zero(c.log_pn, c.poch_pn), c.guard_pn,
            "elliptic diagonal theta ratio vanished", z2,
        )
        # every offset in 1-N..N-1 occurs in the entries; den_z(0) is replaced by diag_ratio
        thetas = _SThetas(params, z, range(1 - n, n), z_zero_cancelled=True)
        z_ratio = theta_p_z / thetas.den_z
        z_ratio[n - 1] = diag_ratio
        g = c.gather
        self.prefactor = _s_prefactor(g.powers, z)
        self.num = thetas.num[g.num_at]
        self.z_ratio = z_ratio[g.z_at]
        self.den_q = thetas.den_q[g.q_at]


def _build_elliptic(params: ModelParams, tables: _ZTables, scalar_kappa: complex) -> np.ndarray:
    # ``scalar_kappa`` is 1/kappa(z^2), or for the hat kind tau(q^{1/2}/z)/kappa(z^2)
    # formed jointly (see _hat_scalar_kappa); the product keeps the order
    # eta * sign * prefactor * num * z_ratio / den_q, entry by entry.
    n, g = params.n, params._constants.gather
    common = _eta_common(params, tables.z_power, scalar_kappa, tables.eta_den)
    mat = np.zeros(n**4, dtype=np.complex128)
    mat[g.flat] = (
        common * g.sign * tables.prefactor * tables.num * tables.z_ratio / tables.den_q
    )
    return mat.reshape(n * n, n * n)


def _build_eight_vertex(params: ModelParams, z: complex) -> np.ndarray:
    lq, lp, c = params.log_q, params.log_p, params._constants
    lp2, z2, q2 = 2.0 * lp, 2.0 * z, c.log_q2

    def th(arg: complex) -> complex:
        return theta(arg, lp2)

    den_a = _theta_den(lp + q2 + z2, lp2, c.guard_p2, "eight-vertex a/d")
    den_b = _theta_den(q2 + z2, lp2, c.guard_p2, "eight-vertex b/c")
    a_val = cmath.exp(-z) * th(lp + z2) * th(lp + q2) / den_a
    b_val = cmath.exp(lq - z) * th(z2) * th(lp + q2) / den_b
    c_val = th(lp + z2) * th(q2) / den_b
    # Corner entries carry -sqrt(p); the root must be -exp(log(p)/2), the
    # same branch the fractional p-powers of the generic builder produce.
    # The opposite root flips the corners and breaks the p-shift relation.
    d_val = cmath.exp(0.5 * lp - (lq + z2)) * th(z2) * th(q2) / den_a

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


def _build_trigonometric(params: ModelParams, kind: RKind, z: complex) -> np.ndarray:
    n, lq = params.n, params.log_q
    q = cmath.exp(lq)
    log_x = z if kind is RKind.HOMOGENEOUS else 2.0 * z
    x = cmath.exp(log_x)
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
                mat[row_e, col_e] = exch_base * cmath.exp(((n + offset) / n) * z)
                if kind is RKind.NON_ELLIPTIC:
                    mat[pos_d, pos_d] = diag_base * cmath.exp((offset / n) * lq)
                else:
                    mat[pos_d, pos_d] = diag_base
    return scalar * mat


def build_r(
    params: ModelParams,
    kind: RKind,
    z: complex,
    *,
    z_tables: Callable[[ModelParams, complex], _ZTables] | None = None,
) -> TensorOperator:
    """Assemble the requested R-matrix at spectral point exp(``z``).

    Rows and columns are composite indices over (C^N)^{x2} with slot 1 most
    significant; the entry at row (a, c), column (b, d) is the coefficient
    of e_{a,b} x e_{c,d}.  For the elliptic kinds, ``z_tables(params, z)``
    supplies the :class:`_ZTables` both kinds read, such as a memo that
    serves both; without it the build computes its own.  The kind's scalar
    comes first, so its pole guard fires before the tables'.
    """
    if not kind.exists_at(params.n):
        raise KindError(f"the {kind.value} kind has no matrix at N = {params.n}")
    if kind in (RKind.ELLIPTIC, RKind.ELLIPTIC_HAT):
        if kind is RKind.ELLIPTIC:
            scalar_kappa = kappa_inv(params, 2.0 * z)
        else:
            scalar_kappa = _hat_scalar_kappa(params, z)
        tables = _ZTables(params, z) if z_tables is None else z_tables(params, z)
        mat = _build_elliptic(params, tables, scalar_kappa)
    elif kind is RKind.EIGHT_VERTEX:
        mat = _build_eight_vertex(params, z)
    elif kind in (RKind.HOMOGENEOUS, RKind.PRINCIPAL, RKind.NON_ELLIPTIC):
        mat = _build_trigonometric(params, kind, z)
    else:  # pragma: no cover - exhaustive over the enum
        raise KindError(f"unhandled kind {kind!r}")
    return TensorOperator(params.n, 2, mat)
