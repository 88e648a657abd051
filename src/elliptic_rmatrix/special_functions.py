"""Log-parametrized q-Pochhammer products, Jacobi theta functions and the
elliptic gamma function.

Every nonzero complex parameter (z, q, p and any fractional power of them)
is carried as a logarithm: a :class:`LogComplex` with ``value = u`` stands
for the number ``exp(u)``.  Powers are always evaluated as ``exp(alpha*u)``,
never as principal-branch roots of the represented number, so quantities
like ``z**(2/N)`` stay single-valued along a whole computation.  Zero is
deliberately not representable; the one place it is needed (the first
argument of a Pochhammer symbol) takes ``None`` as an explicit flag.

Conventions::

    pochhammer_inf(z, (b,)) = prod_{n >= 0} (1 - z b^n)
    theta(z, p) = (z; p) (p z^{-1}; p) (p; p)
    Gamma(x; p, Q) = (p Q / x; p, Q) / (x; p, Q)

with |b|, |p|, |Q| < 1 strictly, and (x; p, Q) = prod_{i, j >= 0} (1 - x p^i Q^j).
Pochhammer products are truncated where the factor deviation |z b^n|
drops below ``abs_floor``; the dropped factors each differ from 1 by less
than the floor.  The elliptic gamma function is summed as a log series
(:func:`elliptic_gamma_ratio`), so no double product is ever formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .errors import DomainError, TruncationError

__all__ = [
    "LogComplex",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "LOG_ONE",
    "pochhammer_inf",
    "theta",
    "theta_array",
    "elliptic_gamma_ratio",
    "theta_shift_residual",
]

_TWO_PI = 2.0 * cmath.pi


@dataclass(frozen=True)
class LogComplex:
    """A nonzero complex number exp(value), carried by its logarithm.

    Arithmetic operators act on the *represented* number: ``a * b`` is the
    product exp(a.value + b.value), ``a ** alpha`` the power
    exp(alpha * a.value).  Multiplication by -1 has no canonical logarithm;
    :meth:`negated` fixes the +i*pi branch once and for all, which is the
    branch the antisymmetry and quasi-periodicity identities hold on.
    """

    value: complex

    def __post_init__(self) -> None:
        v = complex(self.value)
        if not (cmath.isfinite(v)):
            raise DomainError(f"LogComplex value must be finite, got {v!r}")
        object.__setattr__(self, "value", v)

    @classmethod
    def from_complex(cls, w: complex) -> "LogComplex":
        """Principal logarithm of a nonzero complex number."""
        w = complex(w)
        if w == 0 or not cmath.isfinite(w):
            raise DomainError(f"cannot take the logarithm of {w!r}")
        return cls(cmath.log(w))

    def to_complex(self) -> complex:
        return cmath.exp(self.value)

    def magnitude(self) -> float:
        """|exp(value)| without evaluating the phase."""
        return math.exp(self.value.real)

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        return LogComplex(self.value + other.value)

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        return LogComplex(self.value - other.value)

    def __pow__(self, alpha: "int | float | Fraction") -> "LogComplex":
        return LogComplex(float(alpha) * self.value)

    def inv(self) -> "LogComplex":
        return LogComplex(-self.value)

    def negated(self) -> "LogComplex":
        """The number -exp(value), on the fixed +i*pi branch."""
        return LogComplex(self.value + 1j * cmath.pi)


LOG_ONE = LogComplex(0j)


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation control for infinite products.

    ``abs_floor`` is the factor-deviation floor: lattice points whose
    deviation magnitude falls below it are dropped.  ``max_terms`` caps the
    loop length per base; exceeding it raises TruncationError rather than
    silently returning a bad value (this triggers for |base| -> 1).
    """

    abs_floor: float = 1e-17
    max_terms: int = 4096

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_floor < 1.0):
            raise DomainError(f"abs_floor must be in (0, 1), got {self.abs_floor}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be positive, got {self.max_terms}")


DEFAULT_POLICY = TruncationPolicy()


@lru_cache(maxsize=262144)
def _poch(z: complex, base: complex, floor: float, max_terms: int) -> complex:
    """prod over {n >= 0 : |z base^n| >= floor} of (1 - z base^n)."""
    result = 1.0 + 0j
    t = z
    for _ in range(max_terms):
        if abs(t) < floor:
            return result
        result *= 1.0 - t
        t *= base
    raise TruncationError(
        f"Pochhammer product not below floor {floor:g} after {max_terms} terms "
        f"(|base| = {abs(base):.6f})"
    )


def pochhammer_inf(
    log_z: LogComplex | None,
    log_bases: Sequence[LogComplex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Infinite Pochhammer symbol (z; b)_inf, with the base given as ``(log_b,)``.

    ``log_z is None`` is the explicit z = 0 flag (every factor is 1).  The
    base must satisfy |b| < 1 strictly.  Products over two bases are
    elliptic gamma functions (:func:`elliptic_gamma_ratio`).
    """
    if len(log_bases) != 1:
        raise DomainError(f"expected one base, got {len(log_bases)}")
    base = log_bases[0].to_complex()
    if abs(base) >= 1.0:
        raise DomainError(f"Pochhammer base must satisfy |b| < 1, got |b| = {abs(base):.6f}")
    if log_z is None:
        return 1.0 + 0j
    return _poch(log_z.to_complex(), base, policy.abs_floor, policy.max_terms)


# Series rate accepted without a p-shift (56 terms at abs_floor 1e-17): a
# shift costs theta_Q evaluations, and can bring the rate no lower than |Q|^{1/2}.
_GAMMA_RATE = 0.5


def elliptic_gamma_ratio(
    numer: Sequence[LogComplex],
    denom: Sequence[LogComplex],
    log_p: LogComplex,
    log_big_q: LogComplex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[complex, complex]:
    """prod_i Gamma(x_i) / prod_j Gamma(y_j) with Gamma = Gamma(.; p, Q), as
    ``(zeros, poles)``: the value is zeros / poles.

    One log series serves the whole quotient (Gamma(x) Gamma(pQ/x) = 1):

        log Gamma(x) = sum_{k >= 1} (x^k - (pQ/x)^k) / (k (1 - p^k)(1 - Q^k)).

    An argument whose rate max(|x|, |pQ/x|) exceeds max(|Q|^{1/2}, 0.5) is
    first moved by m powers of p, into |p|^{1/2} of |pQ|^{1/2} where the
    rate is at most |Q|^{1/2}, with Gamma(p x) = theta_Q(x) Gamma(x) and
    theta_Q(x) = (x; Q)(Q/x; Q).  The thetas that move brings go to
    ``zeros`` when they are zeros of the quotient and to ``poles`` when
    they are poles, so a caller divides only by the latter.
    Where x_i = y_i the series terms and the theta factors of the pair
    cancel exactly, so such a quotient is exactly 1.  The term count follows
    from the largest rate r and ``abs_floor``: the first dropped term is at
    most abs_floor (1 - r).  TruncationError when that count, the shift or
    a base's own products (|b|^max_terms >= abs_floor) exceed ``max_terms``.
    """
    lp, lbq = log_p.value, log_big_q.value
    big_q = cmath.exp(lbq)
    for log_b in (lp, lbq):
        # the products that Gamma stands for run over p^i Q^j, as far as pochhammer_inf would
        if log_b.real >= 0.0:
            raise DomainError(f"elliptic gamma base must satisfy |b| < 1, got |b| = {math.exp(log_b.real):.6f}")
        if policy.max_terms * log_b.real >= math.log(policy.abs_floor):
            raise TruncationError(
                f"elliptic gamma base |b| = {math.exp(log_b.real):.6f}: its products stay above "
                f"floor {policy.abs_floor:g} after {policy.max_terms} terms"
            )
    log_pq = lp + lbq
    log_limit = max(lbq.real / 2, math.log(_GAMMA_RATE))

    def shift(u: complex) -> tuple[complex, complex, complex]:
        """(u', zeros, poles) with Gamma(e^u) = Gamma(e^u') zeros / poles."""
        if max(u.real, log_pq.real - u.real) <= log_limit:
            return u, 1.0 + 0j, 1.0 + 0j
        m = round((log_pq.real / 2 - u.real) / lp.real)
        if abs(m) > policy.max_terms:
            raise TruncationError(
                f"elliptic gamma shift of {abs(m)} p-steps exceeds {policy.max_terms}")
        thetas = 1.0 + 0j
        for j in range(min(m, 0), max(m, 0)):  # theta_Q at x p^j, between x and x p^m
            w = cmath.exp(u + j * lp)
            thetas *= (_poch(w, big_q, policy.abs_floor, policy.max_terms)
                       * _poch(big_q / w, big_q, policy.abs_floor, policy.max_terms))
        if m > 0:
            return u + m * lp, 1.0 + 0j, thetas
        return u + m * lp, thetas, 1.0 + 0j

    xs: list[complex] = []
    ys: list[complex] = []
    zeros = poles = 1.0 + 0j
    for log_x, log_y in zip_longest(numer, denom):
        # one pair's factors multiply first, so a pair with x = y adds equal factors to both
        pair_zeros = pair_poles = 1.0 + 0j
        if log_x is not None:
            x, pair_zeros, pair_poles = shift(log_x.value)
            xs.append(x)
        if log_y is not None:
            y, y_zeros, y_poles = shift(log_y.value)
            ys.append(y)
            pair_zeros, pair_poles = pair_zeros * y_poles, pair_poles * y_zeros
        zeros *= pair_zeros
        poles *= pair_poles
    # the powers of plus enter the series with +, those of minus with -; the two
    # lists match entry by entry where x_i = y_i
    plus = xs + [log_pq - y for y in ys]
    minus = ys + [log_pq - x for x in xs]
    log_rate = max(max(u.real, log_pq.real - u.real) for u in plus)
    rate = math.exp(log_rate)
    terms = math.ceil(math.log(policy.abs_floor * (1.0 - rate)) / log_rate)
    if terms > policy.max_terms:
        raise TruncationError(
            f"elliptic gamma series needs {terms} terms at rate {rate:.6f}, "
            f"more than {policy.max_terms}"
        )
    k = np.arange(1, terms + 1)
    powers = np.exp(np.outer(k, np.array(plus + minus + [lp, lbq])))
    n = len(plus)
    series = powers[:, :n].sum(axis=1) - powers[:, n:-2].sum(axis=1)
    series /= k * (1.0 - powers[:, -2]) * (1.0 - powers[:, -1])
    return cmath.exp(complex(series.sum())) * zeros, poles


def theta(
    log_z: LogComplex,
    log_p: LogComplex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Jacobi theta function Theta_p(z) = (z; p)(p z^{-1}; p)(p; p)."""
    bases = (log_p,)
    return (
        pochhammer_inf(log_z, bases, policy)
        * pochhammer_inf(log_p / log_z, bases, policy)
        * pochhammer_inf(log_p, bases, policy)
    )


def theta_array(
    log_args: np.ndarray,
    log_base: LogComplex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Theta_b(x) = (x; b)(b/x; b)(b; b) at every x = exp(u), u in ``log_args``.

    The array form of :func:`theta` for one common base: each product keeps
    the factors (1 - x b^n) with |x b^n| >= abs_floor, as ``pochhammer_inf``
    does, and all of them multiply in one masked (terms, products) array.
    The term counts follow from |x| and |b| before anything is allocated;
    TruncationError when one reaches ``max_terms``, the scalar path's rule.
    """
    lb = log_base.value
    if lb.real >= 0.0:
        raise DomainError(f"Pochhammer base must satisfy |b| < 1, got |b| = {math.exp(lb.real):.6f}")
    u = np.asarray(log_args, dtype=np.complex128).ravel()
    # the logs of x, b/x and b: the (b; b) factor is the last column
    starts = np.concatenate([u, lb - u, [lb]])
    log_floor = math.log(policy.abs_floor)
    # factors n = 0 .. counts - 1 have |x b^n| >= floor
    counts = np.maximum(np.floor((starts.real - log_floor) / -lb.real) + 1.0, 0.0)
    terms = int(counts.max())
    if terms >= policy.max_terms:
        raise TruncationError(
            f"Pochhammer product not below floor {policy.abs_floor:g} after {policy.max_terms} "
            f"terms (|base| = {math.exp(lb.real):.6f})"
        )
    # x b^n by the scalar path's recurrence t <- t b, one row per n
    powers = np.full((terms, starts.size), cmath.exp(lb))
    powers[:1] = np.exp(starts)
    factors = 1.0 - np.cumprod(powers, axis=0)
    factors[np.arange(terms)[:, None] >= counts] = 1.0
    products = factors.prod(axis=0)
    k = u.size
    return (products[:k] * products[k:-1] * products[-1]).reshape(np.shape(log_args))


def theta_shift_residual(
    log_z: LogComplex,
    log_a: LogComplex,
    n: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
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
    t_z = theta(log_z, log_a, policy)

    lhs1 = theta(log_a * log_z, log_a, policy)
    rhs1 = theta(log_z.inv(), log_a, policy)
    r1 = abs(lhs1 - rhs1) / max(abs(t_z), abs(lhs1), abs(rhs1), 1e-300)

    # (-1)^n z^{-n} a^{-n(n-1)/2}, assembled on the log scale
    lhs2 = theta((log_a ** n) * log_z, log_a, policy)
    rhs2 = (-1.0) ** n * (
        (log_z ** (-n)) * (log_a ** Fraction(-n * (n - 1), 2))
    ).to_complex() * t_z
    r2 = abs(lhs2 - rhs2) / max(abs(t_z), abs(lhs2), abs(rhs2), 1e-300)

    log_a2 = log_a ** 2
    lhs3 = theta(log_a * log_z, log_a2, policy)
    rhs3 = theta(log_a / log_z, log_a2, policy)
    r3 = abs(lhs3 - rhs3) / max(abs(lhs3), abs(rhs3), 1e-300)

    return max(r1, r2, r3)
