"""Residual checks for the identities the R-matrix families satisfy.

Each ``check_*`` function evaluates one identity at explicit spectral
points, reduces it to a single relative Frobenius residual, and wraps the
outcome in a :class:`PropertyReport`.  Conventions shared by all checks:

* identities with a matrix on both sides use ||LHS - RHS|| / ||LHS||;
  identities whose right-hand side is (a scalar multiple of) the identity
  use ||LHS - RHS|| / max(1, ||RHS||), so residuals stay scale-free;
* sampling happens on fixed annuli (|z| in [0.5, 2], |q| in [0.3, 0.8],
  |p| in [0.05, 0.5]) with uniform phases;
* one helper, ``_sampled``, evaluates every identity that takes spectral
  points: it times the check, redraws all its points from the z annulus on
  a PoleError (when an ``rng`` is supplied) and builds the report, which
  lists the points actually used, never the discarded ones.

``CHECKS`` is the one table that names a check: how to call it, the spectral
points it takes, its tolerance, whether it is a canary and the kinds it
accepts.  ``run_suite`` drives it over seeded random draws and is the engine
behind the CLI ``verify`` command.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import DomainError, EllipticRMatrixError, PoleError, SingularError
from .special_functions import LOG_ONE, LogComplex
from .tensor_algebra import (
    TensorOperator,
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
    g^{1/2} branch used or a residual-vs-p sequence.
    """

    name: str
    params_digest: str
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
        params_digest: str,
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
            params_digest=params_digest,
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
COND_LIMIT = 1e12

T = TypeVar("T")


def draw_log(rng: np.random.Generator, modulus: tuple[float, float] = Z_MODULUS) -> LogComplex:
    """Draw log(x) with |x| uniform on the annulus and uniform phase."""
    lo, hi = modulus
    return LogComplex(complex(math.log(rng.uniform(lo, hi)), rng.uniform(-math.pi, math.pi)))


def draw_params(rng: np.random.Generator, n: int) -> ModelParams:
    """Draw generic (q, p): redraw until no genericity warning fires."""
    while True:
        params = ModelParams(n, draw_log(rng, Q_MODULUS), draw_log(rng, P_MODULUS))
        if not params.genericity_warnings():
            return params


def _tol(name: str, override: float | None) -> float:
    return CHECKS[name].tolerance if override is None else float(override)


def _report(
    name: str,
    params_digest: str,
    points: Iterable[complex],
    residual: float,
    tolerance: float,
    started: float,
    detail: dict | None = None,
) -> PropertyReport:
    runtime_ms = (time.perf_counter() - started) * 1000.0
    return PropertyReport.from_residual(
        name, params_digest, points, residual, tolerance, runtime_ms, detail
    )


def _rel(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Residual for matrix = matrix identities, normalized by the LHS."""
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300))


def _rel_identity(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Residual for identities whose RHS is (a multiple of) the identity."""
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs)))


def _inv(mat: np.ndarray, what: str) -> np.ndarray:
    if np.linalg.cond(mat) > COND_LIMIT:
        raise SingularError(f"matrix inversion in {what}: condition number exceeds {COND_LIMIT:g}")
    return np.linalg.inv(mat)


def _resample(
    compute: Callable[..., T],
    points: tuple[LogComplex, ...],
    rng: np.random.Generator | None,
) -> tuple[T, tuple[LogComplex, ...]]:
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


def _sampled(
    name: str,
    params: ModelParams,
    compute: Callable[..., float],
    points: tuple[LogComplex, ...],
    tolerance: float,
    rng: np.random.Generator | None,
    started: float,
    detail: dict | None = None,
) -> PropertyReport:
    """Report of the residual ``compute(*points)``, resampled by :func:`_resample`."""
    residual, points = _resample(compute, points, rng)
    return _report(
        name, params.digest(), [p.to_complex() for p in points], residual, tolerance, started,
        detail,
    )


def _r21(params: ModelParams, kind: RKind, log_z: LogComplex) -> np.ndarray:
    """P R(z) P: the two slots of R swapped on both its output and input axes."""
    n2 = params.n * params.n
    return build_r(params, kind, log_z).tensor_view().transpose(1, 0, 3, 2).reshape(n2, n2)


# ---------------------------------------------------------------------------
# identity checks


def check_ybe(
    params: ModelParams,
    kind: RKind,
    log_z1: LogComplex,
    log_z2: LogComplex,
    log_z3: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """R12(z1/z2) R13(z1/z3) R23(z2/z3) = R23 R13 R12 on three slots.

    Every kind conserves the Z_N charge, so both sides are block-diagonal in
    the three-slot charge sectors: they are multiplied as N stacked N^2 x N^2
    blocks.  The residual is the larger of the blockwise YBE residual and
    the largest off-sector norm ||R off sectors|| / ||R|| of the three
    two-slot factors, so a factor that leaks across sectors still fails.
    """
    started = time.perf_counter()
    n = params.n
    sectors = charge_sectors(n, 3)
    rows, cols = sectors[:, :, None], sectors[:, None, :]
    labels = np.empty(n * n, dtype=np.intp)
    labels[charge_sectors(n, 2)] = np.arange(n)[:, None]
    off_sector = labels[:, None] != labels[None, :]

    def compute(lz1: LogComplex, lz2: LogComplex, lz3: LogComplex) -> float:
        factors = [build_r(params, kind, lz) for lz in (lz1 / lz2, lz1 / lz3, lz2 / lz3)]
        leak = max(_rel(r.entries, np.where(off_sector, 0, r.entries)) for r in factors)
        r12, r13, r23 = (
            embed(r, slots, 3).entries[rows, cols]
            for r, slots in zip(factors, ((1, 2), (1, 3), (2, 3)))
        )
        return max(_rel(r12 @ r13 @ r23, r23 @ r13 @ r12), leak)

    return _sampled(
        f"ybe[{kind.value}]", params, compute, (log_z1, log_z2, log_z3),
        _tol("ybe", tolerance), rng, started,
    )


def check_unitarity(
    params: ModelParams,
    kind: RKind,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """R12(z) R21(1/z) equals the kind-specific scalar times the identity.

    Plain elliptic and eight-vertex: the identity itself.  Hat
    normalization: U(z) I, with U evaluated from its theta-quotient form and
    cross-checked against tau(q^{1/2}z) tau(q^{1/2}/z).  Trigonometric
    kinds: rho_N(x) rho_N(1/x) I at x = z (homogeneous) or x = z^2.
    """
    started = time.perf_counter()
    detail: dict = {}

    def compute(lz: LogComplex) -> float:
        prod = build_r(params, kind, lz).entries @ _r21(params, kind, lz.inv())
        eye = np.eye(params.n * params.n)
        if kind in (RKind.ELLIPTIC, RKind.EIGHT_VERTEX):
            rhs = eye
        elif kind is RKind.ELLIPTIC_HAT:
            u_def = u_scalar(params, lz)
            half = params.log_q**0.5
            u_tau = tau(params, half * lz) * tau(params, half / lz)
            detail["u_cross_check"] = abs(u_def - u_tau) / max(abs(u_def), 1e-300)
            rhs = u_def * eye
        elif kind is RKind.HOMOGENEOUS:
            rhs = rho(params, lz) * rho(params, lz.inv()) * eye
        else:
            lx = lz**2
            rhs = rho(params, lx) * rho(params, lx.inv()) * eye
        return _rel_identity(prod, rhs)

    return _sampled(
        f"unitarity[{kind.value}]", params, compute, (log_z,), _tol("unitarity", tolerance),
        rng, started, detail,
    )


def check_regularity(params: ModelParams, *, tolerance: float | None = None) -> PropertyReport:
    """The plain elliptic matrix at z = 1 equals the permutation matrix."""
    started = time.perf_counter()
    perm = permutation_op((2, 1), params.n).entries

    def compute(lz: LogComplex) -> float:
        return _rel_identity(build_r(params, RKind.ELLIPTIC, lz).entries, perm)

    return _sampled(
        f"regularity[{RKind.ELLIPTIC.value}]", params, compute, (LOG_ONE,),
        _tol("regularity", tolerance), None, started,
    )


def check_crossing(
    params: ModelParams,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """R12(z)^{t2} R21(z^{-1} q^{-N})^{t2} = I for the plain elliptic matrix."""
    started = time.perf_counter()
    n = params.n

    def compute(lz: LogComplex) -> float:
        lhs = partial_transpose(build_r(params, RKind.ELLIPTIC, lz), 2).entries
        arg = (lz * (params.log_q**n)).inv()
        r21_t2 = partial_transpose(TensorOperator(n, 2, _r21(params, RKind.ELLIPTIC, arg)), 2).entries
        return _rel_identity(lhs @ r21_t2, np.eye(n * n))

    return _sampled(
        "crossing", params, compute, (log_z,), _tol("crossing", tolerance), rng, started
    )


def check_antisymmetry(
    params: ModelParams,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """R12(-z) = omega (g^{-1} x I) R12(z) (g x I), with -z = z e^{i pi}."""
    started = time.perf_counter()
    n = params.n
    g = build_g(params).entries
    eye = np.eye(n)

    def compute(lz: LogComplex) -> float:
        lhs = build_r(params, RKind.ELLIPTIC, lz.negated()).entries
        rhs = (
            params.omega()
            * np.kron(np.linalg.inv(g), eye)
            @ build_r(params, RKind.ELLIPTIC, lz).entries
            @ np.kron(g, eye)
        )
        return _rel(lhs, rhs)

    return _sampled(
        "antisymmetry", params, compute, (log_z,), _tol("antisymmetry", tolerance), rng, started
    )


def check_quasi_periodicity(
    params: ModelParams,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """Rhat12(-z p^{1/2}) = G^{-1} Rhat21(1/z)^{-1} G with G = g^{1/2} h g^{1/2} x I.

    Tried with the principal branch of g^{1/2} first; if that misses the
    tolerance, retried with the alternate branch, and the report records
    which branch held.
    """
    started = time.perf_counter()
    n = params.n
    tol = _tol("quasi-periodicity", tolerance)
    h = build_h(params).entries
    eye = np.eye(n)
    detail: dict = {}

    def compute(lz: LogComplex) -> float:
        lhs = build_r(params, RKind.ELLIPTIC_HAT, (lz * (params.log_p**0.5)).negated()).entries
        r21_inv = _inv(_r21(params, RKind.ELLIPTIC_HAT, lz.inv()), "quasi-periodicity")
        best = math.inf
        for branch in ("principal", "alternate"):
            gh = build_g_half(params, alternate=(branch == "alternate")).entries
            big_g = np.kron(gh @ h @ gh, eye)
            res = _rel(lhs, np.linalg.inv(big_g) @ r21_inv @ big_g)
            if res < best:
                best = res
                detail["g_half_branch"] = branch
            if res <= tol:
                break
        return best

    return _sampled("quasi-periodicity", params, compute, (log_z,), tol, rng, started, detail)


def check_h_invariance(
    params: ModelParams,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """(H x H) R(z) = R(z) (H x H) for the plain elliptic matrix.

    H is the cyclic symmetry generator h conjugated by the half-power
    diagonal that produces the matrix's corner sign factor,
    H = g^{1/2} h g^{-1/2}; the bare h commutes only with the matrix written
    without that factor.
    """
    started = time.perf_counter()
    gh = build_g_half(params).entries
    gen = gh @ build_h(params).entries @ np.linalg.inv(gh)

    def compute(lz: LogComplex) -> float:
        r = build_r(params, RKind.ELLIPTIC, lz).entries
        hh = np.kron(gen, gen)
        return _rel(hh @ r, r @ hh)

    return _sampled(
        f"h-invariance[{RKind.ELLIPTIC.value}]", params, compute, (log_z,),
        _tol("h-invariance", tolerance), rng, started, {"generator": "g^{1/2} h g^{-1/2}"},
    )


def check_crossing_unitarity(
    params: ModelParams,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """(R12(x)^{t2})^{-1} = (R12(q^N x)^{-1})^{t2}, for both R and Rhat."""
    started = time.perf_counter()
    n = params.n
    detail: dict = {}

    def compute(lz: LogComplex) -> float:
        worst = 0.0
        for kind in (RKind.ELLIPTIC, RKind.ELLIPTIC_HAT):
            r = build_r(params, kind, lz)
            lhs = _inv(partial_transpose(r, 2).entries, "crossing-unitarity")
            shifted = build_r(params, kind, (params.log_q**n) * lz)
            rhs = partial_transpose(
                TensorOperator(n, 2, _inv(shifted.entries, "crossing-unitarity")), 2
            ).entries
            res = _rel(lhs, rhs)
            detail[kind.value] = res
            worst = max(worst, res)
        return worst

    return _sampled(
        "crossing-unitarity", params, compute, (log_z,), _tol("crossing-unitarity", tolerance),
        rng, started, detail,
    )


def check_kernel_structure(
    params: ModelParams, *, tolerance: float | None = None
) -> PropertyReport:
    """At z = q the hat matrix kills exactly the antisymmetric subspace.

    Folds four sub-residuals: (i) ||Rhat(q) A2|| / ||Rhat(q)||; (ii) the
    rank defect vs N^2 - N(N-1)/2, counting singular values above
    ``spectral``'s default threshold; (iii) the column-symmetry residual
    max |R^{j,l} - R^{l,j}| (weighted by 100 = the ratio of its tighter
    tolerance to this report's); (iv) the SVD kernel basis lying inside the
    antisymmetric subspace.
    """
    started = time.perf_counter()
    n = params.n
    a2 = antisymmetrizer(n, 2).entries
    expected_rank = n * n - n * (n - 1) // 2
    detail: dict = {}

    def compute(lz: LogComplex) -> float:
        r_hat = build_r(params, RKind.ELLIPTIC_HAT, lz)
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

    return _sampled(
        "kernel-structure", params, compute, (params.log_q,),
        _tol("kernel-structure", tolerance), None, started, detail,
    )


def check_spectrum_nonelliptic(
    params: ModelParams,
    *,
    tolerance: float | None = None,
) -> PropertyReport:
    """Eigenvalues of the non-elliptic matrix at z = q match the closed form.

    Expected multiset: rho_N(q^2) with multiplicity N, zero with
    multiplicity N(N-1)/2, and rho_N(q^2) Q (q^{(2i-2j+N)/N} +
    q^{-(2i-2j+N)/N}) for i < j, Q = q/(1 + q^2).  Greedy nearest matching
    in decreasing magnitude order; residual = max pair distance / max |eig|.
    """
    started = time.perf_counter()
    n = params.n
    detail: dict = {}

    def compute(lq: LogComplex) -> float:
        q = lq.to_complex()
        computed = list(np.linalg.eigvals(build_r(params, RKind.NON_ELLIPTIC, lq).entries))
        rho_q2 = rho(params, lq**2)
        big_q = q / (1.0 + q * q)
        expected: list[complex] = [rho_q2] * n + [0.0j] * (n * (n - 1) // 2)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                power = (lq ** Fraction(2 * i - 2 * j + n, n)).to_complex()
                expected.append(rho_q2 * big_q * (power + 1.0 / power))

        scale = max(abs(v) for v in computed)
        worst = 0.0
        remaining = computed[:]
        for want in sorted(expected, key=abs, reverse=True):
            best_idx = min(range(len(remaining)), key=lambda k: abs(remaining[k] - want))
            worst = max(worst, abs(remaining.pop(best_idx) - want))
        detail["eigenvalues"] = [complex(v) for v in computed]
        return worst / max(scale, 1e-300)

    return _sampled(
        "spectrum-nonelliptic", params, compute, (params.log_q,),
        _tol("spectrum-nonelliptic", tolerance), None, started, detail,
    )


def check_gauge_relation(
    params: ModelParams,
    log_z: LogComplex,
    log_w: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """Principal matrix at z/w = (V(z) x V(w)) homogeneous(z^2/w^2) (V x V)^{-1}."""
    started = time.perf_counter()

    def compute(lz: LogComplex, lw: LogComplex) -> float:
        lhs = build_r(params, RKind.PRINCIPAL, lz / lw).entries
        conj = np.kron(build_v(params, lz).entries, build_v(params, lw).entries)
        hom = build_r(params, RKind.HOMOGENEOUS, (lz**2) / (lw**2)).entries
        return _rel(lhs, conj @ hom @ np.linalg.inv(conj))

    return _sampled(
        "gauge-relation", params, compute, (log_z, log_w), _tol("gauge-relation", tolerance),
        rng, started,
    )


def check_twist_relation(
    params: ModelParams,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """Non-elliptic matrix = F21 (principal matrix) F12^{-1}."""
    started = time.perf_counter()
    n = params.n
    f12 = build_f(params).entries
    perm = permutation_op((2, 1), n).entries
    f21 = perm @ f12 @ perm

    def compute(lz: LogComplex) -> float:
        lhs = build_r(params, RKind.NON_ELLIPTIC, lz).entries
        rhs = f21 @ build_r(params, RKind.PRINCIPAL, lz).entries @ np.linalg.inv(f12)
        return _rel(lhs, rhs)

    return _sampled(
        "twist-relation", params, compute, (log_z,), _tol("twist-relation", tolerance),
        rng, started,
    )


def check_p_to_zero(
    params: ModelParams,
    log_z: LogComplex,
    p_sequence: Sequence[float] = (1e-2, 1e-4, 1e-6, 1e-8),
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """The hat matrix approaches the non-elliptic (twisted principal) matrix
    as p -> 0.

    For each p in the sequence the best scalar multiple s of the target is
    fitted by least squares over entries.  Two convergence speeds coexist:
    entries outside the target's support vanish only like p^{1/N}, while
    entries on the support settle at rate p.  The full-norm residual
    sequence must decrease monotonically (otherwise the report carries
    residual 1.0); the reported residual is the final support-restricted
    one, which is what the threshold can meaningfully bound.  The fitted s
    at the smallest p is recorded; it converges to 1 for the hat
    normalization used here.  A sequence that is empty, not strictly
    decreasing or not inside (0, 1) raises DomainError.
    """
    started = time.perf_counter()
    if not p_sequence or any(
        p2 >= p1 for p1, p2 in zip(p_sequence, list(p_sequence)[1:])
    ) or any(not 0.0 < p < 1.0 for p in p_sequence):
        raise DomainError("p_sequence must decrease strictly within (0, 1)")
    detail: dict = {"elliptic_kind": RKind.ELLIPTIC_HAT.value, "p_sequence": list(p_sequence)}

    def compute(lz: LogComplex) -> float:
        target = build_r(params, RKind.NON_ELLIPTIC, lz).entries
        target_norm = np.linalg.norm(target)
        support = np.abs(target) > 1e-13 * np.max(np.abs(target))
        residuals: list[float] = []
        support_residuals: list[float] = []
        fits: list[complex] = []
        for p_val in p_sequence:
            shrunk = replace(params, log_p=LogComplex.from_complex(complex(p_val)))
            diff = build_r(shrunk, RKind.ELLIPTIC_HAT, lz).entries
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

    return _sampled(
        "p-to-zero", params, compute, (log_z,), _tol("p-to-zero", tolerance), rng, started, detail
    )


def check_evaluated_ll(
    params: ModelParams,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """Exchange identity for the evaluated Lax blocks at arguments (z, z/q).

    With E_ij(w) the (i, j) N x N block of the hat matrix at w, checks
    E_ij(z)E_kl(z/q) - E_il(z)E_kj(z/q) = E_kl(z)E_ij(z/q) - E_kj(z)E_il(z/q)
    for all i, j, k, l, plus its single-row specialization
    E_ij(z)E_il(z/q) = E_il(z)E_ij(z/q).
    """
    started = time.perf_counter()
    n = params.n

    def compute(lz: LogComplex) -> float:
        top = build_r(params, RKind.ELLIPTIC_HAT, lz)
        bot = build_r(params, RKind.ELLIPTIC_HAT, lz / params.log_q)
        scale = np.linalg.norm(top.entries) * np.linalg.norm(bot.entries) / (n * n)
        # prod[i, j, k, l] = E_ij(z) E_kl(z/q), every block product at once
        prod = np.einsum("iajb,kblc->ijklac", top.tensor_view(), bot.tensor_view())
        # both combinations at every index, as index swaps of prod
        four = (prod - prod.transpose(0, 3, 2, 1, 4, 5) - prod.transpose(2, 3, 0, 1, 4, 5)
                + prod.transpose(2, 1, 0, 3, 4, 5))
        row = np.einsum("ijilac->ijlac", prod)  # E_ij(z) E_il(z/q)
        two = row - row.transpose(0, 2, 1, 3, 4)
        worst = max(float(np.linalg.norm(c, axis=(-2, -1)).max()) for c in (four, two))
        return worst / max(scale, 1e-300)

    return _sampled(
        "evaluated-ll", params, compute, (log_z,), _tol("evaluated-ll", tolerance), rng, started
    )


def _inversions(sigma: Sequence[int]) -> int:
    return sum(
        1 for i in range(len(sigma)) for j in range(i + 1, len(sigma)) if sigma[i] > sigma[j]
    )


def check_nsigma(n_max: int = 5, *, tolerance: float | None = None) -> PropertyReport:
    """The permutation exponent of the twisted determinant vanishes exactly.

    n_sigma = l(sigma) + (2/N) sum_i i (sigma(i) - i)
              + sum_{i<j} (alpha_{sigma(i) sigma(j)} - alpha_{ij}),
    for every sigma in S_N, N <= n_max, summed as the integer 2N n_sigma
    (2N alpha_ij is an integer), so the residual max |n_sigma| is exact.
    """
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for n in range(2, n_max + 1):
        for sigma in permutations(range(1, n + 1)):
            total = 2 * n * _inversions(sigma) + 4 * sum(
                i * (sigma[i - 1] - i) for i in range(1, n + 1)
            )
            total += sum(
                _twice_n_alpha(n, sigma[i - 1], sigma[j - 1]) - _twice_n_alpha(n, i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            )
            worst = max(worst, abs(total) / (2 * n))  # int / int rounds once
            checked += 1
    return _report(
        "nsigma",
        f"exact:S2..S{n_max}",
        [],
        worst,
        _tol("nsigma", tolerance),
        started,
        {"permutations_checked": checked},
    )


def check_transpose_symmetry(
    params: ModelParams,
    log_z: LogComplex,
    *,
    tolerance: float | None = None,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """R(z)^{t1 t2} vs R(z): equal at N = 2, a must-fail canary for N >= 3."""
    started = time.perf_counter()

    def compute(lz: LogComplex) -> float:
        r = build_r(params, RKind.ELLIPTIC, lz)
        flipped = partial_transpose(partial_transpose(r, 1), 2).entries
        return _rel(flipped, r.entries)

    return _sampled(
        "transpose-symmetry", params, compute, (log_z,), _tol("transpose-symmetry", tolerance),
        rng, started, {"canary": params.n >= CHECKS["transpose-symmetry"].canary_from},
    )


def effective_pass(report: PropertyReport) -> bool:
    """Suite-level verdict: canaries must fail loudly, everything else passes."""
    if report.detail.get("canary"):
        return report.residual > CANARY_MARGIN
    return report.passed


def error_report(name: str, exc: Exception) -> PropertyReport:
    """Failed report standing in for a check that raised."""
    return PropertyReport.from_residual(
        f"{name}:error", "", (), math.inf, 0.0, 0.0, {"error": f"{type(exc).__name__}: {exc}"}
    )


# ---------------------------------------------------------------------------
# the check table


@dataclass(frozen=True)
class Check:
    """One entry of :data:`CHECKS`.

    ``run(params, kind, points, tolerance, rng)`` calls the check through its
    module-level name, so rebinding that name reaches every caller; entries
    without ``run`` are rows that ``qdet_engine`` produces.  ``points``
    picks the spectral points from ``run_suite``'s four shared draws per
    point (z1, z2, z3, w); elsewhere the check draws that many fresh.
    ``scope`` is "point" (once per suite point), "once" (once per suite) or
    None (not in ``run_suite``).  ``tolerance`` is the default, tightened to
    ``n2_tolerance`` at N = 2 where one is given.  ``canary_from`` is the N
    from which the check must fail.  ``kinds`` are the R-matrix kinds it
    accepts, in ``run_suite`` order; none means ``scan`` cannot sweep it.
    """

    tolerance: float
    n2_tolerance: float | None = None
    run: Callable[..., PropertyReport] | None = None
    scope: str | None = None
    points: tuple[int, ...] = ()
    kinds: tuple[RKind, ...] = ()
    canary_from: int | None = None

    def tolerance_at(self, n: int) -> float:
        if n == 2 and self.n2_tolerance is not None:
            return self.n2_tolerance
        return self.tolerance


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
# "[kind]" for the multi-kind checks and "qdet[x]" for key "qdet.x".
CHECKS: dict[str, Check] = {
    "ybe": Check(
        1e-8, run=lambda pr, k, z, tol, rng: check_ybe(pr, k, *z, tolerance=tol, rng=rng),
        scope="point", points=(0, 1, 2), kinds=_ALL_KINDS,
    ),
    "unitarity": Check(
        1e-8, run=lambda pr, k, z, tol, rng: check_unitarity(pr, k, *z, tolerance=tol, rng=rng),
        scope="point", points=(0,), kinds=_ALL_KINDS,
    ),
    "regularity": Check(
        1e-8, run=lambda pr, k, z, tol, rng: check_regularity(pr, tolerance=tol),
        scope="point", kinds=_ELLIPTIC,
    ),
    "crossing": Check(
        1e-8, run=lambda pr, k, z, tol, rng: check_crossing(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(0,), kinds=_ELLIPTIC,
    ),
    "antisymmetry": Check(
        1e-8, run=lambda pr, k, z, tol, rng: check_antisymmetry(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(1,), kinds=_ELLIPTIC,
    ),
    "quasi-periodicity": Check(
        1e-8,
        run=lambda pr, k, z, tol, rng: check_quasi_periodicity(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(0,), kinds=_ELLIPTIC,
    ),
    "h-invariance": Check(
        1e-8, run=lambda pr, k, z, tol, rng: check_h_invariance(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(1,), kinds=_ELLIPTIC,
    ),
    "crossing-unitarity": Check(
        1e-8,
        run=lambda pr, k, z, tol, rng: check_crossing_unitarity(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(2,), kinds=_ELLIPTIC,
    ),
    "evaluated-ll": Check(
        1e-9, run=lambda pr, k, z, tol, rng: check_evaluated_ll(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(0,), kinds=_ELLIPTIC,
    ),
    "gauge-relation": Check(
        1e-10,
        run=lambda pr, k, z, tol, rng: check_gauge_relation(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(1, 3), kinds=_ELLIPTIC,
    ),
    "twist-relation": Check(
        1e-10,
        run=lambda pr, k, z, tol, rng: check_twist_relation(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(2,), kinds=_ELLIPTIC,
    ),
    "transpose-symmetry": Check(
        1e-8,
        run=lambda pr, k, z, tol, rng: check_transpose_symmetry(pr, *z, tolerance=tol, rng=rng),
        scope="point", points=(0,), kinds=_ELLIPTIC, canary_from=3,
    ),
    "kernel-structure": Check(
        1e-9, run=lambda pr, k, z, tol, rng: check_kernel_structure(pr, tolerance=tol),
        scope="point", kinds=_ELLIPTIC,
    ),
    "spectrum-nonelliptic": Check(
        1e-9, run=lambda pr, k, z, tol, rng: check_spectrum_nonelliptic(pr, tolerance=tol),
        scope="point", kinds=_ELLIPTIC,
    ),
    "p-to-zero": Check(
        1e-5, run=lambda pr, k, z, tol, rng: check_p_to_zero(pr, *z, tolerance=tol, rng=rng),
        scope="once", points=(0,), kinds=_ELLIPTIC,
    ),
    "nsigma": Check(
        0.0, run=lambda pr, k, z, tol, rng: check_nsigma(tolerance=tol), scope="once"
    ),
    # rows of the qdet block, computed in qdet_engine
    "centrality-witness": Check(1e-8, 1e-9),
    "qdet.product_internal_consistency": Check(1e-7, 1e-8),
    "qdet.product_vs_identity": Check(1e-7, 1e-8),
    "qdet.closed_form_vs_identity": Check(1e-8),
    "qdet.closed_form_spread": Check(1e-9),
    "qdet.product_vs_closed_form": Check(1e-7, 1e-8),
    "qdet.product_vs_sum_formula": Check(1e-7, 1e-8),
    "qdet.sum_formula_vs_closed_form": Check(1e-7, 1e-8),
    "qdet.nonelliptic_sum_vs_identity": Check(1e-9),
    "qdet.inverse_product": Check(1e-8),
    "qdet.z_spread": Check(1e-8),
}


def tolerance_for(key: str, n: int, overrides: dict[str, float]) -> float:
    """Tolerance of table entry ``key`` at N: an override by key, then by its
    group ("qdet" for "qdet.x"), else the table's default."""
    for name in (key, key.partition(".")[0]):
        if name in overrides:
            return float(overrides[name])
    return CHECKS[key].tolerance_at(n)


# ---------------------------------------------------------------------------
# suite runner


def run_suite(
    n: int,
    seed: int,
    *,
    n_points: int = 10,
    tolerances: dict[str, float] | None = None,
    params: ModelParams | None = None,
    safe: bool = False,
) -> list[PropertyReport]:
    """Run every ``CHECKS`` entry of scope "point" at ``n_points`` seeded
    random draws, then those of scope "once".

    When ``params`` is given the same (q, p) is reused at every point and
    only the spectral arguments are redrawn; otherwise each point draws a
    fresh generic parameter set.  Checks that accept several kinds run
    first, interleaved kind by kind.  With ``safe`` a check that raises is
    recorded as a failed report instead of aborting the suite.
    """
    overrides = tolerances or {}
    rng = np.random.default_rng(seed)
    reports: list[PropertyReport] = []

    def add(name: str, pt_params: ModelParams, kind: RKind, points: tuple) -> None:
        try:
            reports.append(CHECKS[name].run(pt_params, kind, points, overrides.get(name), rng))
        except EllipticRMatrixError as exc:
            if not safe:
                raise
            reports.append(error_report(name, exc))

    per_point = [(name, c) for name, c in CHECKS.items() if c.scope == "point"]
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
        for name, kind in battery:
            add(name, pt_params, kind, tuple(draws[i] for i in CHECKS[name].points))

    limit_params = params if params is not None else draw_params(rng, n)
    for name, c in CHECKS.items():
        if c.scope == "once":
            add(name, limit_params, RKind.ELLIPTIC, tuple(draw_log(rng) for _ in c.points))
    return reports
