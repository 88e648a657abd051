"""Quantum determinant of the elliptic algebra in its evaluation representation.

Three independent routes to the same scalar:

* the product route: apply the N-fold product of hat matrices
  Rhat_{1,0}(z) Rhat_{2,0}(z/q) ... Rhat_{N,0}(z q^{1-N}) to the N columns
  |a> x e_j of A x I, where A = |a><a| is the rank-one antisymmetrizer on
  slots 1..N, and read off the auxiliary-slot factor (the inverse route
  solves the same factors against those columns, each as an N^2 x N^2
  matrix on its own two slots);
* the permutation-sum route: the signed sum over S_N of products of
  evaluated Lax blocks E_{1,sigma(1)}(z) ... E_{N,sigma(N)}(z q^{1-N});
* the closed form: a theta-quotient expression for each diagonal value m_k,
  reading S from one theta table per q-shifted z, so each theta of S is
  computed once per index offset per z.

All three equal the identity (respectively 1); ``verify_qdet`` computes the
pairwise deviations.  The closed form and the permutation sum share one
signed sum over S_N, a recursion over subsets of used values in O(2^N N)
steps, evaluated in a fixed order so results are bit-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, TypeVar

import numpy as np

from .errors import KindError, SizeError
from .special_functions import LogComplex, theta
from .tensor_algebra import TensorOperator, antisymmetrizer, embed
from .rmatrix_builders import ModelParams, RKind, _SThetas, _theta_den, build_r
from .property_suite import CHECKS, PropertyReport, _resample, _sampled

__all__ = [
    "QdetResult",
    "qdet_product",
    "qdet_closed_form",
    "qdet_sum_formula",
    "inverse_product_residual",
    "centrality_witness",
    "closed_form_q_spread",
    "verify_qdet",
]

MAX_PRODUCT_SLOTS = 4
MAX_SUM_TERMS_N = 6

_T = TypeVar("_T")


@dataclass(frozen=True)
class QdetResult:
    """Quantum determinant at one spectral point, via all three routes.

    ``m_matrix`` is the auxiliary-slot operator extracted from the product
    route; ``m_k_values`` the closed-form diagonal; ``sum_formula_matrix``
    the permutation-sum operator; ``deviations`` the named pairwise
    residuals (all should sit at roundoff for generic parameters).
    """

    m_matrix: TensorOperator
    m_k_values: tuple[complex, ...]
    sum_formula_matrix: TensorOperator
    deviations: dict = field(default_factory=dict)
    z_point: LogComplex | None = None
    params_digest: str = ""


def _signed_sum(n: int, start: _T, step: Callable[[_T, int, int, int], _T]) -> _T:
    """sum_sigma sgn(sigma) step(... step(start, 1, sigma(1), 0) ..., N, sigma(N), used).

    ``step(acc, ell, v, used)`` appends value v at row ell, where ``used`` is
    the sum of the values already placed; it must be linear in ``acc``.  Each
    layer maps the bitmask of used values to the signed sum over their
    orderings, and appending v flips the sign once per used value above v.
    """
    layer = {0: start}
    for ell in range(1, n + 1):
        nxt: dict[int, _T] = {}
        for mask, acc in layer.items():
            used = sum(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
            for v in range(1, n + 1):
                if mask >> (v - 1) & 1:
                    continue
                term = step(acc, ell, v, used)
                if bin(mask >> v).count("1") % 2:
                    term = -term
                key = mask | 1 << (v - 1)
                nxt[key] = nxt[key] + term if key in nxt else term
        layer = nxt
    return layer[(1 << n) - 1]


def _q_shifted(params: ModelParams, log_z: LogComplex) -> list[LogComplex]:
    """The q-shifted arguments w_j = z q^{1-j}, j = 1..N, read by every route."""
    return [log_z / (params.log_q**j) for j in range(params.n)]


def _check_product_cap(n: int) -> None:
    """SizeError above MAX_PRODUCT_SLOTS, before anything is allocated."""
    if n > MAX_PRODUCT_SLOTS:
        raise SizeError(
            f"product route needs a dense operator on {n ** (n + 1)} dimensions; "
            f"N is capped at {MAX_PRODUCT_SLOTS}"
        )


def _antisymmetric_columns(n: int) -> np.ndarray:
    """The D x N matrix V of columns |a> x e_j, D = N^(N+1), so A x I = V V^dagger.

    A = |a><a| is the rank-one antisymmetrizer on slots 1..N and |a> its
    normalised column at e_1 x ... x e_N; the auxiliary slot comes last.
    """
    _check_product_cap(n)
    a = antisymmetrizer(n, n).entries[:, np.ravel_multi_index(tuple(range(n)), (n,) * n)]
    return np.kron((a / np.linalg.norm(a))[:, None], np.eye(n))


def _hat_factors(params: ModelParams, log_z: LogComplex) -> list[TensorOperator]:
    """The hat matrices Rhat(z q^{1-j}), j = 1..N, that the product, inverse and
    permutation-sum routes share at one point."""
    return [build_r(params, RKind.ELLIPTIC_HAT, w) for w in _q_shifted(params, log_z)]


def _product_with_residual(
    params: ModelParams, log_z: LogComplex, *, hats: list[TensorOperator] | None = None
) -> tuple[TensorOperator, float]:
    n = params.n
    arity = n + 1
    x = v = _antisymmetric_columns(n)
    hats = _hat_factors(params, log_z) if hats is None else hats
    # Right-to-left: x = Rhat_{1,0}(z) ... Rhat_{N,0}(z q^{1-N}) V.
    for j, factor in reversed(list(enumerate(hats, start=1))):
        x = embed(factor, (j, arity), arity).entries @ x
    # X = A x M gives x = V M; V's columns are orthonormal, so this is ||X - A x M|| / ||X||.
    m = v.conj().T @ x
    residual = float(np.linalg.norm(x - v @ m) / max(np.linalg.norm(x), 1e-300))
    return TensorOperator(n, 1, m), residual


def qdet_product(params: ModelParams, log_z: LogComplex) -> TensorOperator:
    """Auxiliary-slot operator M(z) from the antisymmetrized product route."""
    return _product_with_residual(params, log_z)[0]


def inverse_product_residual(
    params: ModelParams, log_z: LogComplex, *, hats: list[TensorOperator] | None = None
) -> float:
    """Residual of the inverted product relation.

    Since the forward product maps the antisymmetrizer to itself, applying
    the inverses in reverse order must fix it too:
    Rhat_{N,0}^{-1} ... Rhat_{1,0}^{-1} A = A.  The factors are solved against
    the N columns V of A x I, and ||Y V - V|| / ||V|| = ||Y - A x I|| / ||A x I||.
    Rhat_{j,0} acts on slots j and 0 alone, so each solve is one N^2 x N^2
    system with every other slot's index among its right-hand sides, not a
    dense system on all N + 1 slots.  ``hats`` passes the factors in, as
    :func:`verify_qdet` does; without it they are built here.
    """
    n = params.n
    arity = n + 1
    y = v = _antisymmetric_columns(n)
    hats = _hat_factors(params, log_z) if hats is None else hats
    # Solving against Rhat_{1,0}, then Rhat_{2,0}, ... gives Rhat_{N,0}^{-1} ... Rhat_{1,0}^{-1} V.
    for j, factor in enumerate(hats, start=1):
        # slots j and 0 of every column to the front, the rest as right-hand sides
        t = np.moveaxis(y.reshape((n,) * arity + (-1,)), (j - 1, arity - 1), (0, 1))
        t = np.linalg.solve(factor.entries, t.reshape(n * n, -1)).reshape(t.shape)
        y = np.moveaxis(t, (0, 1), (j - 1, arity - 1)).reshape(y.shape)
    return float(np.linalg.norm(y - v) / max(np.linalg.norm(v), 1e-300))


def _closed_form_offsets(n: int, ell: int) -> range:
    """Every offset c - a, c - b and b - a that row ell of the closed form's signed
    sum reads, over all sigma and k: c - b reaches 1 + ell(ell - N - 1), c - a that
    plus N + 1 - 2 ell, and all three reach N - ell."""
    low = 1 + ell * (ell - n - 1)
    return range(low + min(0, n + 1 - 2 * ell), n - ell + 1)


def qdet_closed_form(params: ModelParams, log_z: LogComplex) -> tuple[complex, ...]:
    """Diagonal values m_k(z) of the quantum determinant, k = 1..N.

    m_k = (-(p^N; p^N)/(p; p))^{3N} q^{2k-2N} Theta_p(q^2)^N
          Theta_p(z^2)/Theta_p(q^2 z^2)
          sum_sigma sgn(sigma) prod_l Shat_{l, k + shift_l}^{sigma(l)}(z/q^{l-1}),

    where shift_l = sum_{i<l} (i - sigma(i)) and Shat is the bare theta
    quotient (no power prefactors, indices not reduced mod N).  All m_k
    equal 1 for generic parameters.
    """
    n = params.n
    if n > MAX_SUM_TERMS_N:
        raise SizeError(f"signed sum over S_N capped at N = {MAX_SUM_TERMS_N}")
    lp, policy, constants = params.log_p, params.policy, params._constants
    q = params.q
    z2 = log_z**2

    poch_ratio = -constants.poch_ratio
    theta_q2 = constants.theta_q2
    theta_den = _theta_den(constants.log_q2 * z2, lp, constants.guard_p, policy, "closed form")
    prefactor_z = poch_ratio ** (3 * n) * theta_q2**n * theta(z2, lp, policy) / theta_den

    tables = [_SThetas(params, w, _closed_form_offsets(n, ell))
              for ell, w in enumerate(_q_shifted(params, log_z), start=1)]

    def core(k: int) -> complex:
        # shift_l = l(l-1)/2 - (sum of the values placed in rows 1..l-1)
        return _signed_sum(n, 1.0, lambda acc, ell, v, used: acc * tables[ell - 1].ratio(
            ell, v, k + ell * (ell - 1) // 2 - used))

    return tuple(core(k) * prefactor_z * q ** (2 * k - 2 * n) for k in range(1, n + 1))


def qdet_sum_formula(
    params: ModelParams, kind: RKind, log_z: LogComplex,
    *, hats: list[TensorOperator] | None = None,
) -> TensorOperator:
    """Signed permutation sum of evaluated Lax blocks, as an auxiliary operator.

    sum_sigma sgn(sigma) E_{1,sigma(1)}(z) E_{2,sigma(2)}(z/q) ...
    E_{N,sigma(N)}(z q^{1-N}) with E_{ij}(w) the (i, j) block of the chosen
    matrix at w.  Supported kinds: the hat normalization (elliptic algebra)
    and the non-elliptic twisted matrix (its p -> 0 analogue, built on the
    undeformed antisymmetrizer); both sums equal the identity.  ``hats``
    passes the hat matrices in, for the hat kind only.
    """
    n = params.n
    if n > MAX_SUM_TERMS_N:
        raise SizeError(f"signed sum over S_N capped at N = {MAX_SUM_TERMS_N}")
    if kind not in (RKind.ELLIPTIC_HAT, RKind.NON_ELLIPTIC):
        raise KindError(
            f"permutation-sum route is defined for the hat and non-elliptic kinds, got {kind.value}"
        )
    if hats is not None and kind is not RKind.ELLIPTIC_HAT:
        raise KindError(f"hat factors passed to the {kind.value} sum")
    if hats is None:
        hats = [build_r(params, kind, w) for w in _q_shifted(params, log_z)]
    # Lax-evaluation blocks: views[l][i, :, j, :] acts on the second slot
    views = [factor.tensor_view() for factor in hats]
    total = _signed_sum(
        n, np.eye(n), lambda acc, ell, v, used: acc @ views[ell - 1][ell - 1, :, v - 1, :]
    )
    return TensorOperator(n, 1, total)


def centrality_witness(
    params: ModelParams,
    log_z: LogComplex,
    log_w: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """M(z) commutes with every evaluated Lax block E_{ij}(w).

    The evaluation-representation shadow of centrality: residual is the
    worst commutator norm over all N^2 blocks of a hat matrix at an
    unrelated point w, relative to ||M|| times the largest block norm.
    """
    started = time.perf_counter()
    if tolerance is None:
        tolerance = CHECKS["centrality-witness"].tolerance_at(params.n)
    n = params.n

    def compute(lz: LogComplex, lw: LogComplex) -> float:
        m = qdet_product(params, lz).entries
        view = build_r(params, RKind.ELLIPTIC_HAT, lw).tensor_view()
        scale = float(np.linalg.norm(m)) * max(
            float(np.linalg.norm(view[i, :, j, :])) for i in range(n) for j in range(n)
        )
        worst = 0.0
        for i in range(n):
            for j in range(n):
                block = view[i, :, j, :]
                worst = max(worst, float(np.linalg.norm(m @ block - block @ m)))
        return worst / max(scale, 1e-300)

    return _sampled("centrality-witness", params, compute, (log_z, log_w), tolerance, rng, started)


def closed_form_q_spread(
    params: ModelParams, log_z: LogComplex, other_log_q: LogComplex
) -> float:
    """|m(z; q) - m(z; q')| at fixed (p, z): the determinant ignores q."""
    here = qdet_closed_form(params, log_z)
    there = qdet_closed_form(replace(params, log_q=other_log_q), log_z)
    mean_here = sum(here) / len(here)
    mean_there = sum(there) / len(there)
    return abs(mean_here - mean_there)


def verify_qdet(
    params: ModelParams,
    log_z: LogComplex,
    *,
    rng: np.random.Generator | None = None,
) -> QdetResult:
    """All three routes at one point, with every pairwise deviation.

    On a PoleError the whole computation resamples at a fresh z (never a
    single factor), so all routes always see the same point.
    """
    n = params.n

    def compute(lz: LogComplex) -> tuple:
        hats = _hat_factors(params, lz)  # built once, read by three routes
        return (
            *_product_with_residual(params, lz, hats=hats),
            qdet_closed_form(params, lz),
            qdet_sum_formula(params, RKind.ELLIPTIC_HAT, lz, hats=hats),
            qdet_sum_formula(params, RKind.NON_ELLIPTIC, lz),
            inverse_product_residual(params, lz, hats=hats),
        )

    routes, (log_z,) = _resample(compute, (log_z,), rng)
    m_op, internal, m_values, sum_op, nonell_op, inverse_res = routes
    eye = np.eye(n)
    diag_closed = np.diag(np.asarray(m_values, dtype=np.complex128))
    scale = float(np.sqrt(n))
    deviations = {
        "product_internal_consistency": internal,
        "product_vs_identity": float(np.linalg.norm(m_op.entries - eye) / scale),
        "closed_form_vs_identity": max(abs(v - 1.0) for v in m_values),
        "closed_form_spread": max(abs(v - m_values[0]) for v in m_values),
        "product_vs_closed_form": float(np.linalg.norm(m_op.entries - diag_closed) / scale),
        "product_vs_sum_formula": float(np.linalg.norm(m_op.entries - sum_op.entries) / scale),
        "sum_formula_vs_closed_form": float(np.linalg.norm(sum_op.entries - diag_closed) / scale),
        "nonelliptic_sum_vs_identity": float(np.linalg.norm(nonell_op.entries - eye) / scale),
        "inverse_product": inverse_res,
    }
    return QdetResult(
        m_matrix=m_op,
        m_k_values=tuple(m_values),
        sum_formula_matrix=sum_op,
        deviations=deviations,
        z_point=log_z,
        params_digest=params.digest(),
    )
