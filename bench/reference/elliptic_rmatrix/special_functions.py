"""Log-parametrized q-Pochhammer products and Jacobi theta functions.

Every nonzero complex parameter (z, q, p and any fractional power of them)
is carried as a logarithm: a :class:`LogComplex` with ``value = u`` stands
for the number ``exp(u)``.  Powers are always evaluated as ``exp(alpha*u)``,
never as principal-branch roots of the represented number, so quantities
like ``z**(2/N)`` stay single-valued along a whole computation.  Zero is
deliberately not representable; the one place it is needed (the first
argument of a Pochhammer symbol) takes ``None`` as an explicit flag.

Conventions::

    pochhammer_inf(z, (b_1, ..., b_m)) = prod_{n_i >= 0} (1 - z b_1^{n_1} ... b_m^{n_m})
    theta(z, p) = (z; p) (p z^{-1}; p) (p; p)

with all |b_i| < 1 strictly.  Infinite products are truncated where the
factor deviation |z * prod b_i^{n_i}| drops below ``abs_floor``; the
dropped factors each differ from 1 by less than the floor.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DomainError, TruncationError

__all__ = [
    "LogComplex",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "LOG_ONE",
    "pochhammer_inf",
    "theta",
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
        import math

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
def _poch(z: complex, bases: tuple[complex, ...], floor: float, max_terms: int) -> complex:
    """prod over the lattice box {|z * prod b_i^{n_i}| >= floor} of (1 - ...)."""
    head, rest = bases[0], bases[1:]
    result = 1.0 + 0j
    t = z
    for _ in range(max_terms):
        if abs(t) < floor:
            return result
        if rest:
            result *= _poch(t, rest, floor, max_terms)
        else:
            result *= 1.0 - t
        t *= head
    raise TruncationError(
        f"Pochhammer product not below floor {floor:g} after {max_terms} terms "
        f"(|base| = {abs(head):.6f})"
    )


def pochhammer_inf(
    log_z: LogComplex | None,
    log_bases: Sequence[LogComplex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Multi-base infinite Pochhammer symbol (z; b_1, ..., b_m)_inf.

    ``log_z is None`` is the explicit z = 0 flag (every factor is 1).
    All bases must satisfy |b_i| < 1 strictly; m in {1, 2, 3}.
    """
    if not 1 <= len(log_bases) <= 3:
        raise DomainError(f"expected 1..3 bases, got {len(log_bases)}")
    bases = tuple(b.to_complex() for b in log_bases)
    for b in bases:
        if abs(b) >= 1.0:
            raise DomainError(f"Pochhammer base must satisfy |b| < 1, got |b| = {abs(b):.6f}")
    if log_z is None:
        return 1.0 + 0j
    return _poch(log_z.to_complex(), bases, policy.abs_floor, policy.max_terms)


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
