"""Log-parametrized q-Pochhammer products, Jacobi theta functions and the
elliptic gamma function.

Every nonzero complex parameter (z, q, p and any fractional power of them)
is carried as its logarithm, a plain ``complex`` u standing for the number
exp(u).  Powers are always evaluated as ``exp(alpha*u)``, never as
principal-branch roots of the represented number, so quantities like
``z**(2/N)`` stay single-valued along a whole computation: a product of
numbers is a sum of logs, a power a float multiple.  :func:`principal_log`
is the one way in from a number, and :func:`negated_log` fixes the branch
of -1.  Zero is deliberately not representable.

Conventions::

    pochhammer_inf(z, b) = prod_{n >= 0} (1 - z b^n)
    theta(z, p) = (z; p) (p z^{-1}; p) (p; p)
    Gamma(x; p, Q) = (p Q / x; p, Q) / (x; p, Q)

with |b|, |p|, |Q| < 1 strictly, and (x; p, Q) = prod_{i, j >= 0} (1 - x p^i Q^j).
One truncation rule serves every product and series, read from two module
constants.  Pochhammer products are truncated where the factor deviation
|z b^n| drops below ``ABS_FLOOR``; the dropped factors each differ from 1 by
less than the floor.  A product that would keep ``MAX_TERMS`` factors or
more, and a series or p-shift longer than ``MAX_TERMS``, raise
TruncationError rather than return a bad value (this triggers for
|base| -> 1).  The elliptic gamma
function is summed as a log series (:func:`elliptic_gamma_ratio`), so no
double product is ever formed.

One pole rule serves every theta denominator of the package: a theta value of
base b that is a denominator raises PoleError when it lies below
``POLE_GUARD`` |(b; b)| (:func:`_guard_den`), a measure of its distance to
the theta's zero lattice, not of the size of the quotient it divides.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .errors import DomainError, PoleError, TruncationError

__all__ = [
    "principal_log",
    "negated_log",
    "ABS_FLOOR",
    "MAX_TERMS",
    "GammaBases",
    "pochhammer_inf",
    "theta",
    "theta_array",
    "elliptic_gamma_ratio",
]

_TWO_PI = 2.0 * cmath.pi


def principal_log(w: complex) -> complex:
    """The principal logarithm of a nonzero, finite complex number; DomainError
    for 0, an infinity or a nan."""
    w = complex(w)
    if w == 0 or not cmath.isfinite(w):
        raise DomainError(f"cannot take the logarithm of {w!r}")
    return cmath.log(w)


def negated_log(u: complex) -> complex:
    """The log of -exp(u) on the fixed +i*pi branch, the branch the antisymmetry
    and quasi-periodicity identities hold on (-1 has no canonical logarithm)."""
    return u + 1j * cmath.pi


# The truncation rule of every product and series (see the module docstring).
ABS_FLOOR = 1e-17
MAX_TERMS = 4096

# Denominator values below POLE_GUARD times the natural theta scale raise PoleError.
POLE_GUARD = 1e-12


def _guard_den(val: complex, guard: float, message: str, log_arg: complex) -> complex:
    """``val``, a theta denominator of base b at the plain log ``log_arg``; PoleError
    when |val| < ``guard`` = POLE_GUARD |(b; b)|, the rule for every theta denominator."""
    if abs(val) < guard:
        raise PoleError(message, argument=cmath.exp(log_arg))
    return val


@lru_cache(maxsize=262144)
def _poch(z: complex, base: complex) -> complex:
    """prod over {n >= 0 : |z base^n| >= ABS_FLOOR} of (1 - z base^n)."""
    result = 1.0 + 0j
    t = z
    for _ in range(MAX_TERMS):
        if abs(t) < ABS_FLOOR:
            return result
        result *= 1.0 - t
        t *= base
    raise TruncationError(
        f"Pochhammer product not below floor {ABS_FLOOR:g} after {MAX_TERMS} terms "
        f"(|base| = {abs(base):.6f})"
    )


def pochhammer_inf(log_z: complex, log_b: complex) -> complex:
    """Infinite Pochhammer symbol (z; b)_inf at the logs ``log_z`` and ``log_b``.

    The base must satisfy |b| < 1 strictly.  Products over two bases are
    elliptic gamma functions (:func:`elliptic_gamma_ratio`).
    """
    if log_b.real >= 0.0:
        raise DomainError(f"Pochhammer base must satisfy |b| < 1, got |b| = {math.exp(log_b.real):.6f}")
    return _poch(cmath.exp(log_z), cmath.exp(log_b))


# Series rate accepted without a p-shift (56 terms at ABS_FLOOR): a
# shift costs theta_Q evaluations, and can bring the rate no lower than |Q|^{1/2}.
_GAMMA_RATE = 0.5


class GammaBases:
    """What the elliptic gamma series of :func:`elliptic_gamma_ratio` reads of its
    bases p = exp(``lp``) and Q = exp(``lbq``) alone: Q, log pQ, the rate limit
    of the p-shift and the series denominators k (1 - p^k)(1 - Q^k).  Each
    :class:`~elliptic_rmatrix.rmatrix_builders.ModelParams` keeps one, so its
    quotients share them.

    The base checks run here, DomainError before TruncationError.  The
    denominators grow to the largest term count asked of them so far; each
    row is computed as a call of that length would compute it, so every
    value is the same however many calls share the object.
    """

    def __init__(self, lp: complex, lbq: complex):
        self.big_q = cmath.exp(lbq)
        for log_b in (lp, lbq):
            # the products that Gamma stands for run over p^i Q^j, as far as pochhammer_inf would
            if log_b.real >= 0.0:
                raise DomainError(
                    f"elliptic gamma base must satisfy |b| < 1, got |b| = {math.exp(log_b.real):.6f}")
            if MAX_TERMS * log_b.real >= math.log(ABS_FLOOR):
                raise TruncationError(
                    f"elliptic gamma base |b| = {math.exp(log_b.real):.6f}: its products stay above "
                    f"floor {ABS_FLOOR:g} after {MAX_TERMS} terms"
                )
        self.lp, self.lbq = lp, lbq
        self.log_pq = lp + lbq
        self.log_limit = max(lbq.real / 2, math.log(_GAMMA_RATE))
        self.k = self.den = np.empty(0)

    def denominators(self, terms: int) -> tuple[np.ndarray, np.ndarray]:
        """k = 1 .. terms and k (1 - p^k)(1 - Q^k), as views of the shared rows."""
        if terms > self.k.size:
            k = np.arange(1, terms + 1)
            powers = np.exp(np.outer(k, np.array([self.lp, self.lbq])))
            self.k, self.den = k, k * (1.0 - powers[:, 0]) * (1.0 - powers[:, 1])
        return self.k[:terms], self.den[:terms]


def _p_shift(u: complex, bases: GammaBases, sign: int) -> tuple[complex, complex, complex]:
    """(u', zeros, poles) with Gamma(e^u)^sign = Gamma(e^u')^sign zeros / poles, ``sign``
    +1 for a numerator argument and -1 for a denominator one.  Each theta_Q factor
    that goes to ``poles`` raises PoleError below POLE_GUARD, the rule of
    :func:`_guard_den` for theta_Q = Theta_Q / (Q; Q)."""
    lp, log_pq = bases.lp, bases.log_pq
    m = round((log_pq.real / 2 - u.real) / lp.real)
    if abs(m) > MAX_TERMS:
        raise TruncationError(f"elliptic gamma shift of {abs(m)} p-steps exceeds {MAX_TERMS}")
    big_q = bases.big_q
    to_poles = m * sign > 0
    thetas = 1.0 + 0j
    for j in range(min(m, 0), max(m, 0)):  # theta_Q at x p^j, between x and x p^m
        log_w = u + j * lp
        w = cmath.exp(log_w)
        factor = _poch(w, big_q) * _poch(big_q / w, big_q)
        if to_poles:
            _guard_den(factor, POLE_GUARD, "denominator theta vanished in elliptic gamma", log_w)
        thetas *= factor
    if to_poles:
        return u + m * lp, 1.0 + 0j, thetas
    return u + m * lp, thetas, 1.0 + 0j


def elliptic_gamma_ratio(
    numer: Sequence[complex],
    denom: Sequence[complex],
    bases: GammaBases,
) -> tuple[complex, complex]:
    """prod_i Gamma(x_i) / prod_j Gamma(y_j) with Gamma = Gamma(.; p, Q) at the
    logs x_i in ``numer`` and y_j in ``denom`` and the ``bases`` (p, Q), as
    ``(zeros, poles)``: the value is zeros / poles.

    One log series serves the whole quotient (Gamma(x) Gamma(pQ/x) = 1):

        log Gamma(x) = sum_{k >= 1} (x^k - (pQ/x)^k) / (k (1 - p^k)(1 - Q^k)).

    An argument whose rate max(|x|, |pQ/x|) exceeds max(|Q|^{1/2}, 0.5) is
    first moved by m powers of p, into |p|^{1/2} of |pQ|^{1/2} where the
    rate is at most |Q|^{1/2}, with Gamma(p x) = theta_Q(x) Gamma(x) and
    theta_Q(x) = (x; Q)(Q/x; Q).  The thetas that move brings go to
    ``zeros`` when they are zeros of the quotient and to ``poles`` when
    they are poles, so a caller divides only by the latter.  They carry
    every pole of the quotient, the series being finite, so PoleError when
    one of them lies below ``POLE_GUARD``.
    Where x_i = y_i the series terms and the theta factors of the pair
    cancel exactly, so such a quotient is exactly 1.  The term count follows
    from the largest rate r and ``ABS_FLOOR``: the first dropped term is at
    most ABS_FLOOR (1 - r).  TruncationError when that count, the shift or
    a base's own products (|b|^MAX_TERMS >= ABS_FLOOR) exceed ``MAX_TERMS``.
    The value is exp of the series, so its relative error grows with the
    size of the log: 6.7e-14 for a hat scalar of 6.3e41 and 5.8e-14 for a
    kappa_inv of 3.7e41 against a 50-digit oracle, where generic points stay
    within 4.4e-15; tests/test_mpmath_oracle.py bounds such points by 1e-13.
    """
    log_pq, log_limit = bases.log_pq, bases.log_limit
    xs: list[complex] = []
    ys: list[complex] = []
    zeros = poles = 1.0 + 0j
    for log_x, log_y in zip_longest(numer, denom):
        # one pair's factors multiply first, so a pair with x = y adds equal factors to both
        pair_zeros = pair_poles = 1.0 + 0j
        if log_x is not None:
            if max(log_x.real, log_pq.real - log_x.real) > log_limit:
                log_x, pair_zeros, pair_poles = _p_shift(log_x, bases, 1)
            xs.append(log_x)
        if log_y is not None:
            if max(log_y.real, log_pq.real - log_y.real) > log_limit:
                log_y, y_zeros, y_poles = _p_shift(log_y, bases, -1)
                pair_zeros, pair_poles = pair_zeros * y_zeros, pair_poles * y_poles
            ys.append(log_y)
        zeros *= pair_zeros
        poles *= pair_poles
    # the powers of plus enter the series with +, those of minus with -; the two
    # lists match entry by entry where x_i = y_i
    plus = xs + [log_pq - y for y in ys]
    minus = ys + [log_pq - x for x in xs]
    log_rate = max(max(u.real, log_pq.real - u.real) for u in plus)
    rate = math.exp(log_rate)
    terms = math.ceil(math.log(ABS_FLOOR * (1.0 - rate)) / log_rate)
    if terms > MAX_TERMS:
        raise TruncationError(
            f"elliptic gamma series needs {terms} terms at rate {rate:.6f}, more than {MAX_TERMS}")
    k, den = bases.denominators(terms)
    powers = np.exp(k[:, None] * np.array(plus + minus))  # np.outer's own product
    n = len(plus)
    series = powers[:, :n].sum(axis=1) - powers[:, n:].sum(axis=1)
    series /= den
    return cmath.exp(complex(series.sum())) * zeros, poles


def theta(u: complex, lb: complex) -> complex:
    """Jacobi theta function Theta_b(x) = (x; b)(b x^{-1}; b)(b; b) at the logs
    u = log x and lb = log b."""
    if lb.real >= 0.0:
        raise DomainError(f"Pochhammer base must satisfy |b| < 1, got |b| = {math.exp(lb.real):.6f}")
    base = cmath.exp(lb)
    return _poch(cmath.exp(u), base) * _poch(cmath.exp(lb - u), base) * _poch(base, base)


def theta_array(log_args: np.ndarray, lb: complex) -> np.ndarray:
    """Theta_b(x) = (x; b)(b/x; b)(b; b) at every x = exp(u), u in ``log_args``,
    and b = exp(``lb``).

    The array form of :func:`theta` for one common base: each product keeps
    the factors (1 - x b^n) with |x b^n| >= ABS_FLOOR, as ``pochhammer_inf``
    does, and all of them multiply in one masked (terms, products) array.
    The term counts follow from |x| and |b| before anything is allocated;
    TruncationError when one reaches ``MAX_TERMS``, the scalar path's rule.
    """
    if lb.real >= 0.0:
        raise DomainError(f"Pochhammer base must satisfy |b| < 1, got |b| = {math.exp(lb.real):.6f}")
    u = np.asarray(log_args, dtype=np.complex128).ravel()
    k = u.size
    # the logs of x, b/x and b: the (b; b) factor is the last column
    starts = np.empty(2 * k + 1, dtype=np.complex128)
    starts[:k] = u
    np.subtract(lb, u, out=starts[k:-1])
    starts[-1] = lb
    log_floor = math.log(ABS_FLOOR)
    # factors n = 0 .. counts - 1 have |x b^n| >= floor
    counts = np.maximum(np.floor((starts.real - log_floor) / -lb.real) + 1.0, 0.0)
    terms = int(counts.max())
    if terms >= MAX_TERMS:
        raise TruncationError(
            f"Pochhammer product not below floor {ABS_FLOOR:g} after {MAX_TERMS} terms "
            f"(|base| = {math.exp(lb.real):.6f})"
        )
    # x b^n by the scalar path's recurrence t <- t b, one row per n, then 1 - x b^n
    factors = np.empty((terms, starts.size), dtype=np.complex128)
    np.exp(starts, out=factors[:1])  # no row when every count is 0
    factors[1:] = cmath.exp(lb)
    np.cumprod(factors, axis=0, out=factors)
    np.subtract(1.0, factors, out=factors)
    factors[np.arange(terms)[:, None] >= counts] = 1.0
    products = factors.prod(axis=0)
    return (products[:k] * products[k:-1] * products[-1]).reshape(np.shape(log_args))

