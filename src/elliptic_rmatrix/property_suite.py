"""Residual checks for the identities the R-matrix families satisfy.

Each ``check_*`` function is a residual function: it evaluates one identity
at explicit spectral points and reduces it to a single relative Frobenius
residual, ``(build, params, kind, *points, detail) -> float``, filling
``detail`` with check-specific extras.  ``CHECKS[key].run`` makes the
:class:`PropertyReport`.  Conventions shared by all checks:

* identities with a matrix on both sides use ||LHS - RHS|| / ||LHS||;
  identities whose right-hand side is (a scalar multiple of) the identity
  use ||LHS - RHS|| / max(1, ||RHS||), so residuals stay scale-free;
* sampling happens on fixed annuli (|z| in [0.5, 2], |q| in [0.3, 0.8],
  |p| in [0.05, 0.5]) with uniform phases;
* one runner, :meth:`Check.run`, evaluates every residual: it times the
  check, redraws all its drawn points from the z annulus on a PoleError
  (when an ``rng`` is supplied) and builds the report, or one per row of
  a residual that returns several, listing the points actually used,
  never the discarded ones;
* no check of this module inverts a matrix numerically: the dressing matrices are diagonal or
  a permutation, and an R-matrix is inverted by its unitarity relation;
* every R-matrix a check builds comes from a :class:`PointContext` through
  ``build``, which ``run_suite`` makes once per suite point and passes to
  each check, so a matrix that several checks read at one point is built
  once.

``CHECKS`` is the one table that names a check: its row name, its residual
function, the spectral points it takes, its tolerance and the kinds it
accepts.  ``run_suite`` drives it over seeded random draws and is the engine
behind the CLI ``verify`` command.
"""

from __future__ import annotations

import cmath
import math
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import DomainError, EllipticRMatrixError, PoleError
from .special_functions import negated_log, principal_log
from .tensor_algebra import (
    TensorOperator,
    _frobenius,
    _kron,
    antisymmetrizer,
    charge_sectors,
    embed,
    partial_transpose,
    permutation_op,
    spectral,
)
from .rmatrix_builders import (
    ModelParams,
    RKind,
    _ZTables,
    _twice_n_alpha,
    build_f,
    build_g,
    build_g_half,
    build_h,
    build_r,
    build_v,
    rho,
    tau,
    u_scalar,
)

__all__ = [
    "PropertyReport",
    "PointContext",
    "Check",
    "CHECKS",
    "CANARY_MARGIN",
    "draw_log",
    "draw_params",
    "check_ybe",
    "check_unitarity",
    "check_regularity",
    "check_crossing",
    "check_antisymmetry",
    "check_quasi_periodicity",
    "check_h_invariance",
    "check_crossing_unitarity",
    "check_kernel_structure",
    "check_spectrum_nonelliptic",
    "check_gauge_relation",
    "check_twist_relation",
    "check_p_to_zero",
    "check_evaluated_ll",
    "check_nsigma",
    "check_transpose_symmetry",
    "effective_pass",
    "error_report",
    "tolerance_for",
    "run_suite",
]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one identity check.

    ``sample_points`` records the spectral arguments actually evaluated
    (post-resampling); ``detail`` carries check-specific extras such as the
    per-kind residuals of crossing-unitarity or a residual-vs-p sequence.
    """

    name: str
    sample_points: tuple[complex, ...]
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: float
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")
        if self.passed != (self.residual <= self.tolerance):
            raise ValueError("passed flag inconsistent with residual vs tolerance")

    @classmethod
    def from_residual(
        cls,
        name: str,
        points: Iterable[complex],
        residual: float,
        tolerance: float,
        runtime_ms: float,
        detail: dict | None = None,
    ) -> "PropertyReport":
        """Report whose verdict is residual <= tolerance."""
        residual = float(residual)
        return cls(
            name=name,
            sample_points=tuple(points),
            residual=residual,
            tolerance=tolerance,
            passed=residual <= tolerance,
            runtime_ms=runtime_ms,
            detail=dict(detail or {}),
        )


# A must-fail canary counts as discriminating only above this residual.
CANARY_MARGIN = 1e-3

Z_MODULUS = (0.5, 2.0)
Q_MODULUS = (0.3, 0.8)
P_MODULUS = (0.05, 0.5)
MAX_RESAMPLES = 8

T = TypeVar("T")


def draw_log(rng: np.random.Generator, modulus: tuple[float, float] = Z_MODULUS) -> complex:
    """Draw log(x) with |x| uniform on the annulus and uniform phase."""
    lo, hi = modulus
    return complex(math.log(rng.uniform(lo, hi)), rng.uniform(-math.pi, math.pi))


def draw_params(rng: np.random.Generator, n: int) -> ModelParams:
    """Draw generic (q, p): redraw until no genericity warning fires."""
    while True:
        params = ModelParams(n, draw_log(rng, Q_MODULUS), draw_log(rng, P_MODULUS))
        if not params.genericity_warnings():
            return params


def _rel(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Residual for matrix = matrix identities, normalized by the LHS."""
    return _frobenius(lhs - rhs) / max(_frobenius(lhs), 1e-300)


def _rel_identity(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Residual for identities whose RHS is (a multiple of) the identity."""
    return _frobenius(lhs - rhs) / max(1.0, _frobenius(rhs))


def _resample(
    compute: Callable[..., T],
    points: tuple[complex, ...],
    rng: np.random.Generator | None,
) -> tuple[T, tuple[complex, ...]]:
    """``compute(*points)``; on a PoleError redraw every point from the z
    annulus and retry, at most MAX_RESAMPLES times and only with an ``rng``."""
    attempts = 0
    while True:
        try:
            return compute(*points), points
        except PoleError:
            attempts += 1
            if rng is None or attempts > MAX_RESAMPLES:
                raise
            points = tuple(draw_log(rng) for _ in points)


class PointContext:
    """What the checks at one suite point share: the R-matrices they build,
    memoised by (params, kind, log z), and the elliptic z-tables both
    elliptic kinds read, memoised by (params, log z).

    ``run_suite`` makes one per suite point and passes it to every check it
    runs there, so the memos die with their point; :meth:`Check.run` called
    without one makes its own.  Builds call this module's ``build_r`` by name, so
    rebinding that name reaches every build, and a build or table that
    raises is not kept.  The keys carry the parameters because a check may
    build at other ones (``check_p_to_zero``): by identity, since hashing a
    ``ModelParams`` costs about a microsecond per lookup, and each entry
    holds its parameters, so no other object can take their id.  The checks
    at a point share one parameter object.  Operators and tables are never
    written, so sharing them is safe.
    """

    def __init__(self) -> None:
        self._builds: dict[tuple, tuple[ModelParams, TensorOperator]] = {}
        self._z_tables: dict[tuple, tuple[ModelParams, _ZTables]] = {}

    def build(self, params: ModelParams, kind: RKind, log_z: complex) -> TensorOperator:
        key = (id(params), kind, log_z)
        entry = self._builds.get(key)
        if entry is None:
            op = build_r(params, kind, log_z, z_tables=self.z_tables)
            entry = self._builds[key] = (params, op)
        return entry[1]

    def z_tables(self, params: ModelParams, log_z: complex) -> _ZTables:
        key = (id(params), log_z)
        entry = self._z_tables.get(key)
        if entry is None:
            entry = self._z_tables[key] = (params, _ZTables(params, log_z))
        return entry[1]


_Builder = Callable[[ModelParams, RKind, complex], TensorOperator]


def _r21(build: _Builder, params: ModelParams, kind: RKind, log_z: complex) -> np.ndarray:
    """P R(z) P: the two slots of R swapped on both its output and input axes."""
    n2 = params.n * params.n
    return build(params, kind, log_z).tensor_view().transpose(1, 0, 3, 2).reshape(n2, n2)


# ---------------------------------------------------------------------------
# identity checks: residual functions, run by Check.run


@lru_cache(maxsize=8)
def _ybe_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`check_ybe`'s read-only flat index tables at N: rows N^3 + cols of
    the three-slot charge-sector blocks, stacked (N, N^2, N^2), and the flat
    indices of the two-slot entries off every sector."""
    sectors = charge_sectors(n, 3)
    blocks = sectors[:, :, None] * n**3 + sectors[:, None, :]
    labels = np.empty(n * n, dtype=np.intp)
    labels[charge_sectors(n, 2)] = np.arange(n)[:, None]
    off_sector = np.flatnonzero(labels[:, None] != labels[None, :])
    for table in (blocks, off_sector):
        table.flags.writeable = False
    return blocks, off_sector


def check_ybe(
    build: _Builder, params: ModelParams, kind: RKind,
    log_z1: complex, log_z2: complex, log_z3: complex, *, detail: dict,
) -> float:
    """R12(z1/z2) R13(z1/z3) R23(z2/z3) = R23 R13 R12 on three slots.

    Every kind conserves the Z_N charge, so both sides are block-diagonal in
    the three-slot charge sectors: they are multiplied as N stacked N^2 x N^2
    blocks.  The residual is the larger of the blockwise YBE residual and
    the largest off-sector norm ||R off sectors|| / ||R|| of the three
    two-slot factors, so a factor that leaks across sectors still fails.
    """
    blocks, off_sector = _ybe_indices(params.n)
    factors = [build(params, kind, lz)
               for lz in (log_z1 - log_z2, log_z1 - log_z3, log_z2 - log_z3)]
    leak = max(
        _frobenius(r.entries.ravel().take(off_sector)) / max(_frobenius(r.entries), 1e-300)
        for r in factors
    )
    r12, r13, r23 = (
        embed(r, slots, 3).entries.ravel().take(blocks)
        for r, slots in zip(factors, ((1, 2), (1, 3), (2, 3)))
    )
    return max(_rel(r12 @ r13 @ r23, r23 @ r13 @ r12), leak)


def check_unitarity(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """R12(z) R21(1/z) equals the kind-specific scalar times the identity.

    Plain elliptic and eight-vertex: the identity itself.  Hat
    normalization: U(z) I, with U evaluated from its theta-quotient form and
    cross-checked against tau(q^{1/2}z) tau(q^{1/2}/z).  Trigonometric
    kinds: rho_N(x) rho_N(1/x) I at x = z (homogeneous) or x = z^2.
    """
    prod = build(params, kind, log_z).entries @ _r21(build, params, kind, -log_z)
    eye = np.eye(params.n * params.n)
    if kind in (RKind.ELLIPTIC, RKind.EIGHT_VERTEX):
        rhs = eye
    elif kind is RKind.ELLIPTIC_HAT:
        u_def = u_scalar(params, log_z)
        half = 0.5 * params.log_q
        u_tau = tau(params, half + log_z) * tau(params, half - log_z)
        detail["u_cross_check"] = abs(u_def - u_tau) / max(abs(u_def), 1e-300)
        rhs = u_def * eye
    elif kind is RKind.HOMOGENEOUS:
        rhs = rho(params, log_z) * rho(params, -log_z) * eye
    else:
        lx = 2.0 * log_z
        rhs = rho(params, lx) * rho(params, -lx) * eye
    return _rel_identity(prod, rhs)


def check_regularity(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """The plain elliptic matrix at z = 1 equals the permutation matrix."""
    perm = permutation_op((2, 1), params.n).entries
    return _rel_identity(build(params, RKind.ELLIPTIC, log_z).entries, perm)


def _crossing_residual(build: _Builder, params: ModelParams, kind: RKind, lz: complex) -> float:
    """||R12(z)^{t2} (R21(q^{-N}/z) / s)^{t2} - I|| / N, with s = U(q^N z) for
    the hat kind and 1 otherwise: by unitarity R21(q^{-N}/z) / s is R12(q^N z)^{-1}."""
    n = params.n
    lhs = partial_transpose(build(params, kind, lz), 2).entries
    shifted = lz + float(n) * params.log_q
    inv = _r21(build, params, kind, -shifted)
    if kind is RKind.ELLIPTIC_HAT:
        inv = inv / u_scalar(params, shifted)
    rhs = partial_transpose(TensorOperator(n, 2, inv), 2).entries
    return _rel_identity(lhs @ rhs, np.eye(n * n))


def check_crossing(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """R12(z)^{t2} R21(z^{-1} q^{-N})^{t2} = I for the plain elliptic matrix."""
    return _crossing_residual(build, params, RKind.ELLIPTIC, log_z)


def check_antisymmetry(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """R12(-z) = omega (g^{-1} x I) R12(z) (g x I), with -z = z e^{i pi}."""
    g = np.repeat(np.diag(build_g(params).entries), params.n)  # the diagonal of g x I
    # omega (g^{-1} x I) R (g x I) is R scaled entrywise by omega g_j / g_i
    scale = params.omega() * (g[None, :] / g[:, None])
    lhs = build(params, RKind.ELLIPTIC, negated_log(log_z)).entries
    return _rel(lhs, scale * build(params, RKind.ELLIPTIC, log_z).entries)


def check_quasi_periodicity(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """Rhat12(-z p^{1/2}) = G^{-1} Rhat21(1/z)^{-1} G with G = g^{1/2} h g^{1/2} x I.

    Both inverses are closed forms: Rhat21(1/z)^{-1} = Rhat12(z) / U(z) by
    unitarity, and G^{-1} = g^{-1/2} h^T g^{-1/2} x I since h is a
    permutation.  g^{1/2} is the principal branch of ``build_g_half``.
    """
    n = params.n
    gh = np.diag(build_g_half(params).entries)
    h = build_h(params).entries
    eye = np.eye(n)
    big_g = _kron(gh[:, None] * h * gh[None, :], eye)
    big_g_inv = _kron(h.T / (gh[:, None] * gh[None, :]), eye)
    lhs = build(params, RKind.ELLIPTIC_HAT, negated_log(log_z + 0.5 * params.log_p)).entries
    r21_inv = build(params, RKind.ELLIPTIC_HAT, log_z).entries / u_scalar(params, log_z)
    return _rel(lhs, big_g_inv @ r21_inv @ big_g)


def check_h_invariance(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """(H x H) R(z) = R(z) (H x H) for the plain elliptic matrix.

    H is the cyclic symmetry generator h conjugated by the half-power
    diagonal that produces the matrix's corner sign factor,
    H = g^{1/2} h g^{-1/2}, that is h_ij scaled by g^{1/2}_i / g^{1/2}_j; the
    bare h commutes only with the matrix written without that factor.
    """
    detail["generator"] = "g^{1/2} h g^{-1/2}"
    gh = np.diag(build_g_half(params).entries)
    gen = build_h(params).entries * (gh[:, None] / gh[None, :])
    hh = _kron(gen, gen)
    r = build(params, RKind.ELLIPTIC, log_z).entries
    return _rel(hh @ r, r @ hh)


def check_crossing_unitarity(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """(R12(x)^{t2})^{-1} = (R12(q^N x)^{-1})^{t2}, for both R and Rhat.

    Stated in multiplied form, R12(x)^{t2} (R12(q^N x)^{-1})^{t2} = I, with
    the closed-form inverse of unitarity: the residual of each kind is
    :func:`_crossing_residual`, recorded in ``detail`` by kind; the report
    carries the larger.  For the plain kind it is the crossing residual.
    """
    for each in (RKind.ELLIPTIC, RKind.ELLIPTIC_HAT):
        detail[each.value] = _crossing_residual(build, params, each, log_z)
    return max(detail.values())


def check_kernel_structure(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """At z = q the hat matrix kills exactly the antisymmetric subspace.

    Folds four sub-residuals: (i) ||Rhat(q) A2|| / ||Rhat(q)||; (ii) the
    rank defect vs N^2 - N(N-1)/2, counting singular values above
    ``spectral``'s default threshold; (iii) the column-symmetry residual
    max |R^{j,l} - R^{l,j}| (weighted by 100 = the ratio of its tighter
    tolerance to this report's); (iv) the SVD kernel basis lying inside the
    antisymmetric subspace.
    """
    n = params.n
    a2 = antisymmetrizer(n, 2).entries
    expected_rank = n * n - n * (n - 1) // 2
    r_hat = build(params, RKind.ELLIPTIC_HAT, log_z)
    scale = np.linalg.norm(r_hat.entries)
    res_kernel = float(np.linalg.norm(r_hat.entries @ a2) / scale)

    report = spectral(r_hat)
    rank_defect = abs(report.rank - expected_rank)

    view = r_hat.tensor_view()
    sym = view - view.transpose(0, 1, 3, 2)
    res_colsym = float(np.max(np.abs(sym)) / np.max(np.abs(r_hat.entries)))

    kernel = report.kernel_basis
    res_basis = 0.0
    if kernel.size:
        res_basis = float(np.linalg.norm(a2 @ kernel - kernel) / np.linalg.norm(kernel))

    detail.update(
        kernel_residual=res_kernel,
        rank=report.rank,
        expected_rank=expected_rank,
        column_symmetry_residual=res_colsym,
        kernel_in_antisymmetric_subspace=res_basis,
    )
    return max(res_kernel, 100.0 * res_colsym, float(rank_defect), res_basis)


def check_spectrum_nonelliptic(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """Eigenvalues of the non-elliptic matrix at z = q match the closed form.

    Expected multiset: rho_N(q^2) with multiplicity N, zero with
    multiplicity N(N-1)/2, and rho_N(q^2) Q (q^{(2i-2j+N)/N} +
    q^{-(2i-2j+N)/N}) for i < j, Q = q/(1 + q^2).  Greedy nearest matching
    in decreasing magnitude order; residual = max pair distance / max |eig|.
    """
    n = params.n
    q = cmath.exp(log_z)
    computed = list(np.linalg.eigvals(build(params, RKind.NON_ELLIPTIC, log_z).entries))
    rho_q2 = rho(params, 2.0 * log_z)
    big_q = q / (1.0 + q * q)
    expected: list[complex] = [rho_q2] * n + [0.0j] * (n * (n - 1) // 2)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            power = cmath.exp((2 * i - 2 * j + n) / n * log_z)
            expected.append(rho_q2 * big_q * (power + 1.0 / power))

    scale = max(abs(v) for v in computed)
    worst = 0.0
    remaining = computed[:]
    for want in sorted(expected, key=abs, reverse=True):
        best_idx = min(range(len(remaining)), key=lambda k: abs(remaining[k] - want))
        worst = max(worst, abs(remaining.pop(best_idx) - want))
    detail["eigenvalues"] = [complex(v) for v in computed]
    return worst / max(scale, 1e-300)


def check_gauge_relation(
    build: _Builder, params: ModelParams, kind: RKind,
    log_z: complex, log_w: complex, *, detail: dict,
) -> float:
    """Principal matrix at z/w = (V(z) x V(w)) homogeneous(z^2/w^2) (V x V)^{-1}.

    V x V is diagonal, so the right side is the homogeneous matrix scaled
    entrywise by v_i / v_j."""
    lhs = build(params, RKind.PRINCIPAL, log_z - log_w).entries
    v = _kron(np.diag(build_v(params, log_z).entries), np.diag(build_v(params, log_w).entries))
    hom = build(params, RKind.HOMOGENEOUS, 2.0 * log_z - 2.0 * log_w).entries
    return _rel(lhs, hom * (v[:, None] / v[None, :]))


def check_twist_relation(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """Non-elliptic matrix = F21 (principal matrix) F12^{-1}.

    F12 is diagonal and F21 = P F12 P its slot-swapped diagonal, so the right
    side is the principal matrix scaled entrywise by F21_i / F12_j.
    """
    n = params.n
    f12 = np.diag(build_f(params).entries)
    f21 = f12.reshape(n, n).T.ravel()
    scale = f21[:, None] / f12[None, :]
    lhs = build(params, RKind.NON_ELLIPTIC, log_z).entries
    return _rel(lhs, scale * build(params, RKind.PRINCIPAL, log_z).entries)


def check_p_to_zero(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
    p_sequence: Sequence[float] = (1e-2, 1e-4, 1e-6, 1e-8),
) -> float:
    """The hat matrix approaches the non-elliptic (twisted principal) matrix
    as p -> 0.

    For each p in the sequence the best scalar multiple s of the target is
    fitted by least squares over entries.  Two convergence speeds coexist:
    entries outside the target's support vanish only like p^{1/N}, while
    entries on the support settle at rate p.  The full-norm residual
    sequence must decrease monotonically (otherwise the residual is 1.0);
    the residual is the final support-restricted one, which is what the
    threshold can meaningfully bound.  The fitted s at the smallest p is
    recorded; it converges to 1 for the hat normalization used here.  A
    sequence that is empty, not strictly decreasing or not inside (0, 1)
    raises DomainError before the first build.
    """
    if not p_sequence or any(
        p2 >= p1 for p1, p2 in zip(p_sequence, list(p_sequence)[1:])
    ) or any(not 0.0 < p < 1.0 for p in p_sequence):
        raise DomainError("p_sequence must decrease strictly within (0, 1)")
    detail.update(elliptic_kind=RKind.ELLIPTIC_HAT.value, p_sequence=list(p_sequence))
    target = build(params, RKind.NON_ELLIPTIC, log_z).entries
    target_norm = np.linalg.norm(target)
    support = np.abs(target) > 1e-13 * np.max(np.abs(target))
    residuals: list[float] = []
    support_residuals: list[float] = []
    fits: list[complex] = []
    for p_val in p_sequence:
        shrunk = replace(params, log_p=principal_log(complex(p_val)))
        diff = build(shrunk, RKind.ELLIPTIC_HAT, log_z).entries
        s = np.vdot(target, diff) / np.vdot(target, target)
        diff = diff - s * target
        residuals.append(float(np.linalg.norm(diff) / target_norm))
        support_residuals.append(float(np.linalg.norm(diff[support]) / target_norm))
        fits.append(complex(s))
    detail["residual_sequence"] = residuals
    detail["support_residual_sequence"] = support_residuals
    detail["fitted_scalar"] = fits[-1]
    detail["monotone"] = all(b < a for a, b in zip(residuals, residuals[1:]))
    return support_residuals[-1] if detail["monotone"] else 1.0


def check_evaluated_ll(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """Exchange identity for the evaluated Lax blocks at arguments (z, z/q).

    With E_ij(w) the (i, j) N x N block of the hat matrix at w, checks
    E_ij(z)E_kl(z/q) - E_il(z)E_kj(z/q) = E_kl(z)E_ij(z/q) - E_kj(z)E_il(z/q)
    for all i, j, k, l, plus its single-row specialization
    E_ij(z)E_il(z/q) = E_il(z)E_ij(z/q).
    """
    n = params.n
    top = build(params, RKind.ELLIPTIC_HAT, log_z)
    bot = build(params, RKind.ELLIPTIC_HAT, log_z - params.log_q)
    scale = _frobenius(top.entries) * _frobenius(bot.entries) / (n * n)
    # prod[i, j, k, l] = E_ij(z) E_kl(z/q), every block product at once
    prod = np.einsum("iajb,kblc->ijklac", top.tensor_view(), bot.tensor_view())
    # both combinations at every index, as index swaps of prod
    four = (prod - prod.transpose(0, 3, 2, 1, 4, 5) - prod.transpose(2, 3, 0, 1, 4, 5)
            + prod.transpose(2, 1, 0, 3, 4, 5))
    row = np.einsum("ijilac->ijlac", prod)  # E_ij(z) E_il(z/q)
    two = row - row.transpose(0, 2, 1, 3, 4)
    worst = max(float(np.linalg.norm(c, axis=(-2, -1)).max()) for c in (four, two))
    return worst / max(scale, 1e-300)


def _inversions(sigma: Sequence[int]) -> int:
    return sum(
        1 for i in range(len(sigma)) for j in range(i + 1, len(sigma)) if sigma[i] > sigma[j]
    )


def check_nsigma(
    build: _Builder, params: ModelParams, kind: RKind, *, detail: dict, n_max: int = 5,
) -> float:
    """The permutation exponent of the twisted determinant vanishes exactly.

    n_sigma = l(sigma) + (2/N) sum_i i (sigma(i) - i)
              + sum_{i<j} (alpha_{sigma(i) sigma(j)} - alpha_{ij}),
    for every sigma in S_N, N <= n_max, summed as the integer 2N n_sigma
    (2N alpha_ij is an integer), so the residual max |n_sigma| is exact.
    It reads neither the parameters nor a spectral point.
    """
    worst = 0.0
    checked = 0
    for n in range(2, n_max + 1):
        # alpha[i][j] = 2N alpha_ij, indices from 1
        alpha = [[0] * (n + 1)] + [
            [0] + [_twice_n_alpha(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)
        ]
        for sigma in permutations(range(1, n + 1)):
            total = 2 * n * _inversions(sigma) + 4 * sum(
                i * (sigma[i - 1] - i) for i in range(1, n + 1)
            )
            total += sum(
                alpha[sigma[i - 1]][sigma[j - 1]] - alpha[i][j]
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            )
            worst = max(worst, abs(total) / (2 * n))  # int / int rounds once
            checked += 1
    detail["permutations_checked"] = checked
    return worst


def check_transpose_symmetry(
    build: _Builder, params: ModelParams, kind: RKind, log_z: complex, *, detail: dict,
) -> float:
    """R(z)^{t1 t2} vs R(z): equal at N = 2, a must-fail canary for N >= 3."""
    detail["canary"] = params.n >= 3
    r = build(params, RKind.ELLIPTIC, log_z)
    flipped = partial_transpose(partial_transpose(r, 1), 2).entries
    return _rel(flipped, r.entries)


def effective_pass(report: PropertyReport) -> bool:
    """Suite-level verdict: canaries must fail loudly, everything else passes."""
    if report.detail.get("canary"):
        return report.residual > CANARY_MARGIN
    return report.passed


def error_report(name: str, exc: Exception) -> PropertyReport:
    """Failed report standing in for a check that raised."""
    return PropertyReport.from_residual(
        f"{name}:error", (), math.inf, 0.0, 0.0, {"error": f"{type(exc).__name__}: {exc}"}
    )


# ---------------------------------------------------------------------------
# the check table

# The spectral points a check takes, as ``Check.points`` names them: the four
# draws of a suite point, then two points fixed by the parameters, z = 1 and
# z = q.
Z1, Z2, Z3, W, AT_ONE, AT_Q = range(6)


@dataclass(frozen=True)
class Check:
    """One entry of :data:`CHECKS`.

    ``residual`` names the check's residual function, a ``check_*`` of this
    module or "module.function" in a sibling module; ``run`` looks it up by
    that name at every call, so rebinding the name reaches every caller.
    ``name`` is the report's row name, with "{kind}" standing for the kind
    it runs at and "{row}" for a row suffix.  Entries without either hold
    the tolerance of one row of a multi-row check.  ``points`` picks the
    spectral points: ``run_suite``'s four shared draws per point (Z1, Z2,
    Z3, W), which other callers draw fresh, or a point fixed by the
    parameters (AT_ONE, AT_Q), which ``run`` supplies and never redraws.  A
    check with no drawn point depends on the parameters alone.  ``scope``
    is "point" (once per suite point), "once" (once per suite) or None (not
    in ``run_suite``).  ``tolerance`` is the default, tightened to
    ``n2_tolerance`` at N = 2 where one is given; a multi-row check has
    none.  ``kinds`` are the R-matrix kinds it accepts, in ``run_suite``
    order; none means ``scan`` cannot sweep it.
    """

    tolerance: float | None = None
    n2_tolerance: float | None = None
    name: str | None = None
    residual: str | None = None
    scope: str | None = None
    points: tuple[int, ...] = ()
    kinds: tuple[RKind, ...] = ()

    @cached_property
    def drawn(self) -> tuple[int, ...]:
        """The entries of ``points`` that are drawn, not fixed by the parameters."""
        return tuple(i for i in self.points if i < AT_ONE)

    def run(
        self,
        params: ModelParams,
        kind: RKind,
        points: Sequence[complex] = (),
        *,
        tolerances: dict[str, float] | None = None,
        rng: np.random.Generator | None = None,
        context: PointContext | None = None,
        **options,
    ) -> PropertyReport | list[PropertyReport]:
        """The report of this check at (``params``, ``kind``) and its drawn ``points``.

        The one place that times a residual, builds through ``context`` (or
        a fresh :class:`PointContext`), redraws every drawn point on a
        PoleError when an ``rng`` is given (:func:`_resample`), names the
        row, and reads the tolerance through :func:`tolerance_for`, with
        the ``tolerances`` overrides.  ``options`` go to the residual
        (p-to-zero's ``p_sequence``).  A residual that returns a mapping of
        row suffix to residual is one timed call with one redraw loop: it
        gives a list of reports, one per entry in its order, sharing the
        call's time, points and detail, each named with "{row}" and reading
        the tolerance of key "<name's head>.<row>".  Only a PoleError redraws.  What a residual
        computes from the parameters alone (the dressing matrices,
        p-to-zero's check of ``p_sequence``) cannot raise one, so an error
        there leaves on the first attempt, before any draw.
        """
        started = time.perf_counter()
        module, _, function = self.residual.rpartition(".")
        owner = sys.modules[f"{__package__}.{module}" if module else __name__]
        residual = getattr(owner, function)
        build = (PointContext() if context is None else context).build
        if not points:
            points = tuple({AT_ONE: 0j, AT_Q: params.log_q}[i] for i in self.points)
        detail: dict = {}
        value, points = _resample(
            lambda *pts: residual(build, params, kind, *pts, detail=detail, **options),
            tuple(points),
            rng if self.drawn else None,
        )
        runtime_ms = (time.perf_counter() - started) * 1000.0
        key = self.name.partition("[")[0]
        sample = [cmath.exp(p) for p in points]
        rows = value.items() if isinstance(value, dict) else [(None, value)]
        reports = [
            PropertyReport.from_residual(
                self.name.format(kind=kind.value, row=row),
                sample,
                row_residual,
                tolerance_for(key if row is None else f"{key}.{row}", params.n, tolerances or {}),
                runtime_ms,
                detail,
            )
            for row, row_residual in rows
        ]
        return reports if isinstance(value, dict) else reports[0]


_ELLIPTIC = (RKind.ELLIPTIC,)
# the eight-vertex kind exists at N = 2 only, so it comes last
_ALL_KINDS = (
    RKind.ELLIPTIC,
    RKind.ELLIPTIC_HAT,
    RKind.HOMOGENEOUS,
    RKind.PRINCIPAL,
    RKind.NON_ELLIPTIC,
    RKind.EIGHT_VERTEX,
)

# Keys are the tolerance names of ``--tol``; report names are the key, with
# "[kind]" for the multi-kind checks and "qdet[x]" for key "qdet.x"; "qdet"
# also names the group of every "qdet.x".
CHECKS: dict[str, Check] = {
    "ybe": Check(
        1e-8, name="ybe[{kind}]", residual="check_ybe",
        scope="point", points=(Z1, Z2, Z3), kinds=_ALL_KINDS,
    ),
    "unitarity": Check(
        1e-8, name="unitarity[{kind}]", residual="check_unitarity",
        scope="point", points=(Z1,), kinds=_ALL_KINDS,
    ),
    "regularity": Check(
        1e-8, name="regularity[elliptic]", residual="check_regularity",
        scope="point", points=(AT_ONE,), kinds=_ELLIPTIC,
    ),
    "crossing": Check(
        1e-8, name="crossing", residual="check_crossing",
        scope="point", points=(Z1,), kinds=_ELLIPTIC,
    ),
    "antisymmetry": Check(
        1e-8, name="antisymmetry", residual="check_antisymmetry",
        scope="point", points=(Z2,), kinds=_ELLIPTIC,
    ),
    "quasi-periodicity": Check(
        1e-8, name="quasi-periodicity", residual="check_quasi_periodicity",
        scope="point", points=(Z1,), kinds=_ELLIPTIC,
    ),
    "h-invariance": Check(
        1e-8, name="h-invariance[elliptic]", residual="check_h_invariance",
        scope="point", points=(Z2,), kinds=_ELLIPTIC,
    ),
    "crossing-unitarity": Check(
        1e-8, name="crossing-unitarity", residual="check_crossing_unitarity",
        scope="point", points=(Z3,), kinds=_ELLIPTIC,
    ),
    "evaluated-ll": Check(
        1e-9, name="evaluated-ll", residual="check_evaluated_ll",
        scope="point", points=(Z1,), kinds=_ELLIPTIC,
    ),
    "gauge-relation": Check(
        1e-10, name="gauge-relation", residual="check_gauge_relation",
        scope="point", points=(Z2, W), kinds=_ELLIPTIC,
    ),
    "twist-relation": Check(
        1e-10, name="twist-relation", residual="check_twist_relation",
        scope="point", points=(Z3,), kinds=_ELLIPTIC,
    ),
    "transpose-symmetry": Check(
        1e-8, name="transpose-symmetry", residual="check_transpose_symmetry",
        scope="point", points=(Z1,), kinds=_ELLIPTIC,
    ),
    "kernel-structure": Check(
        1e-9, name="kernel-structure", residual="check_kernel_structure",
        scope="point", points=(AT_Q,), kinds=_ELLIPTIC,
    ),
    "spectrum-nonelliptic": Check(
        1e-9, name="spectrum-nonelliptic", residual="check_spectrum_nonelliptic",
        scope="point", points=(AT_Q,), kinds=_ELLIPTIC,
    ),
    "p-to-zero": Check(
        1e-5, name="p-to-zero", residual="check_p_to_zero",
        scope="once", points=(Z1,), kinds=_ELLIPTIC,
    ),
    "nsigma": Check(0.0, name="nsigma", residual="check_nsigma", scope="once"),
    # the qdet block: the witness, the nine rows of one point, and the spread
    # of m over a run's points; "qdet.x" holds row x's tolerance
    "centrality-witness": Check(
        1e-8, 1e-9, name="centrality-witness", residual="qdet_engine.centrality_witness",
        points=(Z1, W),
    ),
    "qdet": Check(name="qdet[{row}]", residual="qdet_engine.verify_qdet", points=(Z1,)),
    "qdet.product_internal_consistency": Check(1e-7, 1e-8),
    "qdet.product_vs_identity": Check(1e-7, 1e-8),
    "qdet.closed_form_vs_identity": Check(1e-8),
    "qdet.closed_form_spread": Check(1e-9),
    "qdet.product_vs_closed_form": Check(1e-7, 1e-8),
    "qdet.product_vs_sum_formula": Check(1e-7, 1e-8),
    "qdet.sum_formula_vs_closed_form": Check(1e-7, 1e-8),
    "qdet.nonelliptic_sum_vs_identity": Check(1e-9),
    "qdet.inverse_product": Check(1e-8),
    "qdet.z_spread": Check(1e-8, name="qdet[{row}]", residual="qdet_engine.z_spread"),
}


def tolerance_for(key: str, n: int, overrides: dict[str, float]) -> float:
    """Tolerance of table entry ``key`` at N: an override by key, then by its
    group ("qdet" for "qdet.x"), else the table's default, tightened to its
    ``n2_tolerance`` at N = 2."""
    for name in (key, key.partition(".")[0]):
        if name in overrides:
            return float(overrides[name])
    check = CHECKS[key]
    if n == 2 and check.n2_tolerance is not None:
        return check.n2_tolerance
    return check.tolerance


# ---------------------------------------------------------------------------
# suite runner


def run_suite(
    n: int,
    seed: int,
    *,
    n_points: int = 10,
    tolerances: dict[str, float] | None = None,
    params: ModelParams | None = None,
) -> list[PropertyReport]:
    """Run every ``CHECKS`` entry of scope "point" at ``n_points`` seeded
    random draws, then those of scope "once".

    When ``params`` is given the same (q, p) is reused at every point and
    only the spectral arguments are redrawn; otherwise each point draws a
    fresh generic parameter set.  With a reused (q, p), an entry of scope
    "point" that takes no drawn point gives the same report at every
    point: it runs at the first, and its report repeats at the others.
    Checks that accept several kinds run first, interleaved kind by kind.
    Each point's checks share one :class:`PointContext`.  A check that
    raises is recorded as a failed ``<check>:error`` report
    (:func:`error_report`) instead of aborting the suite.
    """
    rng = np.random.default_rng(seed)
    reports: list[PropertyReport] = []
    per_point = [(name, c) for name, c in CHECKS.items() if c.scope == "point"]
    repeated = {name for name, c in per_point if not c.drawn} if params is not None else set()
    first: dict[str, PropertyReport] = {}

    def add(name: str, pt_params: ModelParams, kind: RKind, points: tuple,
            context: PointContext) -> None:
        if name in first:
            reports.append(first[name])
            return
        try:
            report = CHECKS[name].run(pt_params, kind, points, tolerances=tolerances, rng=rng,
                                      context=context)
        except EllipticRMatrixError as exc:
            report = error_report(name, exc)
        if name in repeated:
            first[name] = report
        reports.append(report)

    battery = [
        (name, kind)
        for kind in _ALL_KINDS
        if kind.exists_at(n)
        for name, c in per_point
        if len(c.kinds) > 1 and kind in c.kinds
    ] + [(name, c.kinds[0]) for name, c in per_point if len(c.kinds) == 1]

    for _ in range(n_points):
        pt_params = params if params is not None else draw_params(rng, n)
        draws = tuple(draw_log(rng) for _ in range(4))
        context = PointContext()
        for name, kind in battery:
            add(name, pt_params, kind, tuple(draws[i] for i in CHECKS[name].drawn), context)

    limit_params = params if params is not None else draw_params(rng, n)
    context = PointContext()
    for name, c in CHECKS.items():
        if c.scope == "once":
            add(name, limit_params, RKind.ELLIPTIC, tuple(draw_log(rng) for _ in c.drawn), context)
    return reports
