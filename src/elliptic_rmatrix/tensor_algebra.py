"""Dense operators on tensor powers (C^N)^{\\otimes k}.

Composite indices are row-major with slot 1 most significant: the basis
vector e_{i_1} x ... x e_{i_k} (1-based labels) sits at flat position
sum_j (i_j - 1) N^{k-j}.  Everything is dense complex128; the largest
object the package ever builds is (C^N)^{(N+1)} for the quantum
determinant, so no sparse machinery is warranted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, DimensionError, SizeError

__all__ = [
    "TensorOperator",
    "SpectralReport",
    "embed",
    "charge_sectors",
    "permutation_op",
    "permutation_sign",
    "antisymmetrizer",
    "partial_transpose",
    "spectral",
    "matrix_dump_rows",
]


@dataclass(frozen=True)
class TensorOperator:
    """A linear operator on (C^N)^{\\otimes k}, stored as its full matrix.

    Immutable after construction: the entry array is frozen.
    """

    local_dim: int
    arity: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.local_dim < 1 or self.arity < 0:
            raise DimensionError(
                f"invalid shape parameters N={self.local_dim}, k={self.arity}"
            )
        dim = self.local_dim**self.arity
        arr = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if arr.shape != (dim, dim):
            raise DimensionError(
                f"entries shape {arr.shape} does not match N^k = {dim} for "
                f"N={self.local_dim}, k={self.arity}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.local_dim**self.arity

    def tensor_view(self) -> np.ndarray:
        """Entries reshaped to 2k axes (out_1..out_k, in_1..in_k)."""
        shape = (self.local_dim,) * (2 * self.arity)
        return self.entries.reshape(shape)


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues, numerical rank and kernel of an operator."""

    eigenvalues: np.ndarray
    rank: int
    kernel_basis: np.ndarray  # columns form an orthonormal kernel basis


def _validate_slots(slots: Sequence[int], arity_in: int, arity_out: int) -> None:
    if len(slots) != arity_in:
        raise DimensionError(
            f"slot list {tuple(slots)} has length {len(slots)}, operator arity is {arity_in}"
        )
    if len(set(slots)) != len(slots):
        raise DimensionError(f"slot list {tuple(slots)} has repeats")
    for s in slots:
        if not 1 <= s <= arity_out:
            raise DimensionError(f"slot {s} outside 1..{arity_out}")


@lru_cache(maxsize=32)
def _embed_layout(n: int, slots: tuple[int, ...], arity: int) -> np.ndarray:
    """Where :func:`embed` writes an operator on ``slots``: row f of the
    (N^(k-m), N^(2m)) result holds the flat positions in the N^k x N^k result
    of the operator's flat entries, with the free slots' index f on both
    sides.  Built from the m slots' and k - m free slots' index grids, so its
    cost is the number of entries written; read-only."""
    dim = n**arity
    weights = n ** (arity - np.arange(1, arity + 1))  # flat weight of target slot s at s - 1

    def positions(which: Sequence[int]) -> np.ndarray:
        # composite index over ``which``, row-major in their order, placed at those slots
        grid = np.indices((n,) * len(which)).reshape(len(which), n ** len(which))
        return weights[[s - 1 for s in which]] @ grid

    rows = positions(slots)
    free = positions([s for s in range(1, arity + 1) if s not in slots])
    layout = free[:, None] * (dim + 1) + (rows[:, None] * dim + rows[None, :]).ravel()
    layout.flags.writeable = False
    return layout


def embed(op: TensorOperator, slots: Sequence[int], arity: int) -> TensorOperator:
    """Act with ``op`` on the given slots of a k-fold space, identity elsewhere.

    ``slots`` is ordered: the t-th tensor slot of ``op`` lands on target slot
    ``slots[t]``.  In particular embed(R, (2, 1), 2) is the slot swap
    P R P of a two-site operator.  The entries are written into one zeroed
    array through :func:`_embed_layout`, once per index of the free slots.
    """
    _validate_slots(slots, op.arity, arity)
    n = op.local_dim
    out = np.zeros(n ** (2 * arity), dtype=np.complex128)
    out[_embed_layout(n, tuple(slots), arity)] = op.entries.ravel()
    return TensorOperator(n, arity, out.reshape(n**arity, n**arity))


def charge_sectors(local_dim: int, arity: int) -> np.ndarray:
    """Flat indices of the Z_N charge sectors of (C^N)^{\\otimes k}.

    Row s of the (N, N^(k-1)) result lists, in increasing order, the basis
    states whose 0-based indices sum to s mod N.  The last slot's index is
    fixed by the others, so row s is every prefix of k - 1 indices followed
    by the one last index that completes the charge.  Every R-matrix kind
    conserves this charge, so a product of embedded factors maps each
    sector into itself.
    """
    if local_dim < 1 or arity < 1:
        raise DimensionError(f"invalid shape parameters N={local_dim}, k={arity}")
    prefix = np.arange(local_dim ** (arity - 1))
    charge = sum((prefix // local_dim**t) % local_dim for t in range(arity - 1))
    last = (np.arange(local_dim)[:, None] - charge) % local_dim
    return prefix * local_dim + last


def permutation_sign(sigma: Sequence[int]) -> int:
    """Sign of a permutation given in one-line notation (1-based images)."""
    sign = 1
    for i, j in itertools.combinations(range(len(sigma)), 2):
        if sigma[i] > sigma[j]:
            sign = -sign
    return sign


def permutation_op(sigma: Sequence[int], local_dim: int) -> TensorOperator:
    """The operator sending the vector in slot s to slot sigma(s).

    sigma is one-line notation, 1-based: sigma[s-1] is the image of slot s.
    With this convention permutation_op(sigma) @ permutation_op(tau) equals
    permutation_op(sigma o tau).
    """
    k = len(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise DimensionError(f"{tuple(sigma)} is not a permutation of 1..{k}")
    dim = local_dim**k
    # input axis sigma(s) of the identity tensor becomes input axis s
    axes = list(range(k)) + [k + s - 1 for s in sigma]
    mat = np.eye(dim, dtype=np.complex128).reshape((local_dim,) * (2 * k)).transpose(axes)
    return TensorOperator(local_dim, k, mat.reshape(dim, dim))


def antisymmetrizer(local_dim: int, arity: int) -> TensorOperator:
    """Projector (1/k!) sum_sigma sgn(sigma) P_sigma onto the antisymmetric subspace;
    sgn(sigma) is scattered at the one column per row that P_sigma reaches."""
    if arity > local_dim:
        raise SizeError(
            f"antisymmetrizer arity {arity} exceeds local dimension {local_dim} "
            "(the antisymmetric subspace is zero)"
        )
    if arity < 2:
        raise SizeError(f"antisymmetrizer arity must be >= 2, got {arity}")
    dim, shape = local_dim**arity, (local_dim,) * arity
    idx, rows = np.indices(shape).reshape(arity, -1), np.arange(dim)
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for sigma in itertools.permutations(range(1, arity + 1)):
        cols = np.ravel_multi_index(tuple(idx[t - 1] for t in sigma), shape)
        acc[rows, cols] += permutation_sign(sigma)
    return TensorOperator(local_dim, arity, acc / math.factorial(arity))


def partial_transpose(op: TensorOperator, slot: int) -> TensorOperator:
    """Transpose a single tensor slot."""
    if not 1 <= slot <= op.arity:
        raise DimensionError(f"slot {slot} outside 1..{op.arity}")
    k = op.arity
    axes = list(range(2 * k))
    axes[slot - 1], axes[k + slot - 1] = axes[k + slot - 1], axes[slot - 1]
    tensor = op.tensor_view().transpose(axes)
    return TensorOperator(op.local_dim, k, tensor.reshape(op.dim, op.dim))


# Singular values at or below this fraction of the largest count as zero.
_RANK_RTOL = 1e-8


def spectral(op: TensorOperator) -> SpectralReport:
    """Eigenvalues, numerical rank and orthonormal kernel basis.

    Rank counts singular values above _RANK_RTOL * max_sv (relative);
    the kernel basis collects the right singular vectors of the rest.
    """
    try:
        eigenvalues = np.linalg.eigvals(op.entries)
        _, sv, vh = np.linalg.svd(op.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"spectral decomposition failed: {exc}") from exc
    cutoff = _RANK_RTOL * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    rank = int(np.count_nonzero(sv > cutoff))
    kernel = vh[rank:].conj().T
    return SpectralReport(
        eigenvalues=eigenvalues,
        rank=rank,
        kernel_basis=np.ascontiguousarray(kernel),
    )


def _frobenius(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float or complex array, by numpy's own formula
    (``ravel(order="K")``, then re.re + im.im, then the square root), so the
    value is bitwise the same, without the dispatch of a general norm."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, or of two vectors, as the one broadcast
    product that numpy forms too, so the entries are bitwise the same, signed
    zeros included."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).ravel()
    product = a[:, None, :, None] * b[None, :, None, :]
    return product.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def matrix_dump_rows(op: TensorOperator) -> Iterator[str]:
    """Entry rows "i, j, re, im" with 1-based composite indices, 17 significant digits."""
    for i in range(op.dim):
        for j in range(op.dim):
            v = op.entries[i, j]
            yield f"{i + 1}, {j + 1}, {v.real:.17g}, {v.imag:.17g}"
