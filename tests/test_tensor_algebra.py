"""Slot-indexed tensor operators: embedding, permutations, antisymmetrizers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from elliptic_rmatrix import (
    DimensionError,
    TensorOperator,
    antisymmetrizer,
    charge_sectors,
    embed,
    matrix_dump_rows,
    partial_transpose,
    permutation_op,
    permutation_sign,
    spectral,
)
from elliptic_rmatrix.tensor_algebra import _embed_layout, _frobenius, _kron


def random_op(local_dim: int, arity: int, seed: int) -> TensorOperator:
    rng = np.random.default_rng(seed)
    shape = (local_dim**arity, local_dim**arity)
    entries = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return TensorOperator(local_dim, arity, entries)


class TestTensorOperator:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            TensorOperator(2, 2, np.eye(3))

    def test_tensor_view_round_trips(self):
        op = random_op(2, 3, 5)
        view = op.tensor_view()
        assert view.shape == (2,) * 6
        np.testing.assert_array_equal(view.reshape(8, 8), op.entries)


class TestEmbed:
    def test_identity_slots(self):
        op = random_op(2, 2, 7)
        np.testing.assert_allclose(embed(op, (1, 2), 2).entries, op.entries)

    def test_embed_in_first_slots_is_kron_with_identity(self):
        op = random_op(2, 2, 3)
        got = embed(op, (1, 2), 3)
        np.testing.assert_allclose(got.entries, np.kron(op.entries, np.eye(2)), atol=1e-14)

    def test_embed_in_last_slots(self):
        op = random_op(2, 2, 4)
        got = embed(op, (2, 3), 3)
        np.testing.assert_allclose(got.entries, np.kron(np.eye(2), op.entries), atol=1e-14)

    def test_swapped_slots_conjugate_by_permutation(self):
        op = random_op(2, 2, 9)
        perm = permutation_op((2, 1), 2).entries
        got = embed(op, (2, 1), 2).entries
        np.testing.assert_allclose(got, perm @ op.entries @ perm, atol=1e-14)

    def test_embedded_commute_on_disjoint_slots(self):
        a, b = random_op(2, 2, 11), random_op(2, 2, 12)
        big_a = embed(a, (1, 2), 4).entries
        big_b = embed(b, (3, 4), 4).entries
        np.testing.assert_allclose(big_a @ big_b, big_b @ big_a, atol=1e-12)

    def test_slot_bounds(self):
        op = random_op(2, 2, 0)
        with pytest.raises(DimensionError):
            embed(op, (1, 3), 2)
        with pytest.raises(DimensionError):
            embed(op, (1, 1), 3)


class TestChargeSectors:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [2, 3])
    def test_rows_partition_by_charge(self, n, k):
        sectors = charge_sectors(n, k)
        assert sectors.shape == (n, n ** (k - 1))
        np.testing.assert_array_equal(np.sort(sectors.ravel()), np.arange(n**k))
        charge = np.indices((n,) * k).reshape(k, -1).sum(axis=0) % n
        for s in range(n):
            assert set(charge[sectors[s]]) == {s}
            assert np.all(np.diff(sectors[s]) > 0)

    def test_rejects_empty_space(self):
        with pytest.raises(DimensionError):
            charge_sectors(2, 0)


def kron_embed(op, slots, arity):
    """The kron-and-transpose embedding that ``embed`` replaced."""
    n = op.local_dim
    big = np.kron(op.entries, np.eye(n ** (arity - op.arity), dtype=np.complex128))
    free = [s for s in range(1, arity + 1) if s not in slots]
    source = {s: t for t, s in enumerate((*slots, *free))}
    perm = [source[s] for s in range(1, arity + 1)]
    tensor = big.reshape((n,) * (2 * arity)).transpose(perm + [p + arity for p in perm])
    return tensor.reshape(n**arity, n**arity)


def bits(array):
    """The IEEE bits of a complex or float array, so that equality sees signed zeros."""
    return np.ascontiguousarray(array).view(np.uint64)


def signed_zero_matrix(rows, cols, seed):
    """A random complex matrix with both signs of zero among its real and imaginary parts."""
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    entries.flat[::3] = entries.flat[::3].real
    entries.flat[1::5] = complex(-0.0, 0.0)
    entries.flat[2::7] = complex(0.0, -0.0)
    return entries


def loop_permutation_op(sigma, n):
    """The basis-vector loop that ``permutation_op`` replaced."""
    k = len(sigma)
    inverse = [0] * k
    for s, image in enumerate(sigma, start=1):
        inverse[image - 1] = s
    mat = np.zeros((n**k, n**k), dtype=np.complex128)
    for col, labels in enumerate(itertools.product(range(n), repeat=k)):
        row = 0
        for lab in (labels[inverse[s] - 1] for s in range(k)):
            row = row * n + lab
        mat[row, col] = 1.0
    return mat


def permutation_sum_antisymmetrizer(n, k):
    """The N!-term sum of dense permutation matrices ``antisymmetrizer`` replaced."""
    acc = np.zeros((n**k, n**k), dtype=np.complex128)
    for sigma in itertools.permutations(range(1, k + 1)):
        acc += permutation_sign(sigma) * permutation_op(sigma, n).entries
    return acc / math.factorial(k)


class TestInPlacePrimitives:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_embed_matches_kron_reference(self, n):
        for k in (1, 2):
            op = random_op(n, k, 10 * n + k)
            for arity in (a for a in range(k, 6) if n ** (2 * a) <= 2**21):
                for slots in itertools.permutations(range(1, arity + 1), k):
                    assert np.array_equal(embed(op, slots, arity).entries, kron_embed(op, slots, arity))

    @pytest.mark.parametrize("j", range(1, 5))
    def test_qdet_layout_is_built_from_small_grids(self, j):
        # the forward qdet route's layout at N = 4: 16^2 operator entries for each of
        # the 4^3 free indices; an index array over all 4^10 entries would be 8 MiB
        tracemalloc.start()
        try:
            layout = _embed_layout.__wrapped__(4, (j, 5), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert layout.size == 16**2 * 4**3
        assert not layout.flags.writeable
        assert np.unique(layout).size == layout.size

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_permutation_op_matches_loop_reference(self, n):
        for k in range(1, 5):
            for sigma in itertools.permutations(range(1, k + 1)):
                assert np.array_equal(permutation_op(sigma, n).entries, loop_permutation_op(sigma, n))


class TestResidualHelpers:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3), (4, 4)])
    def test_kron_is_bitwise_np_kron(self, shape):
        a = signed_zero_matrix(*shape, 1)
        b = signed_zero_matrix(shape[1], shape[1], 2)
        eye = np.eye(shape[1])
        negative_zeros = 0
        for left, right in ((a, b), (a, eye), (b, a), (a.T, b.T), (-eye, a)):
            expected = np.kron(left, right)
            got = _kron(left, right)
            assert got.shape == expected.shape
            assert np.array_equal(bits(got), bits(expected))
            for part_got, part in ((got.real, expected.real), (got.imag, expected.imag)):
                zeros = part == 0
                assert np.array_equal(np.signbit(part_got[zeros]), np.signbit(part[zeros]))
                negative_zeros += np.count_nonzero(np.signbit(part[zeros]))
        assert negative_zeros

    def test_kron_of_vectors_is_bitwise_np_kron(self):
        a = signed_zero_matrix(3, 3, 3)
        for left, right in ((a[0], a[1]), (np.diag(a), a[:, 2]), (a[0], np.ones(2))):
            assert np.array_equal(bits(_kron(left, right)), bits(np.kron(left, right)))

    def test_frobenius_is_bitwise_np_norm(self):
        entries = random_op(3, 2, 5).entries
        real = np.random.default_rng(6).standard_normal((7, 5))
        for x in (entries, entries.T, entries[::2, 1::3], entries.ravel(), real, real.T,
                  np.zeros((2, 2), complex)):
            assert _frobenius(x) == float(np.linalg.norm(x))
            assert type(_frobenius(x)) is float
        with np.errstate(over="ignore"):  # the squares overflow to inf in both
            assert _frobenius(entries * 1e200) == float(np.linalg.norm(entries * 1e200)) == math.inf


class TestPermutations:
    def test_sign_matches_inversion_parity(self):
        for sigma in itertools.permutations(range(1, 5)):
            inversions = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if sigma[i] > sigma[j]
            )
            assert permutation_sign(sigma) == (-1) ** inversions

    def test_swap_acts_on_product_states(self):
        swap = permutation_op((2, 1), 3)
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(
            swap.entries @ np.kron(u, v), np.kron(v, u), atol=1e-14
        )

    def test_composition_is_homomorphism(self):
        a = permutation_op((2, 3, 1), 2)
        b = permutation_op((3, 1, 2), 2)
        np.testing.assert_allclose(a.entries @ b.entries, np.eye(8), atol=1e-14)


class TestAntisymmetrizer:
    def test_projector(self):
        for n, k in ((2, 2), (3, 2), (3, 3), (4, 3)):
            a = antisymmetrizer(n, k)
            np.testing.assert_allclose(a.entries @ a.entries, a.entries, atol=1e-13)
            np.testing.assert_allclose(a.entries, a.entries.conj().T, atol=1e-13)

    def test_rank_is_binomial(self):
        from math import comb

        for n, k in ((2, 2), (3, 2), (3, 3), (4, 2)):
            assert spectral(antisymmetrizer(n, k)).rank == comb(n, k)

    def test_top_antisymmetrizer_is_rank_one(self):
        for n in (2, 3, 4):
            a = antisymmetrizer(n, n)
            assert spectral(a).rank == 1
            assert np.trace(a.entries) == pytest.approx(1.0)

    def test_kills_symmetric_states(self):
        a = antisymmetrizer(3, 2)
        sym = np.zeros(9)
        sym[0 * 3 + 0] = 1.0  # |00>
        np.testing.assert_allclose(a.entries @ sym, 0.0, atol=1e-14)

    def test_matches_permutation_sum(self):
        for n in range(2, 5):
            for k in range(2, n + 1):
                assert np.array_equal(antisymmetrizer(n, k).entries,
                                      permutation_sum_antisymmetrizer(n, k))

    def test_builds_no_permutation_matrix(self, monkeypatch):
        from elliptic_rmatrix import tensor_algebra

        calls = []
        real = tensor_algebra.permutation_op
        monkeypatch.setattr(tensor_algebra, "permutation_op",
                            lambda *args: calls.append(args) or real(*args))
        antisymmetrizer(4, 4)
        assert calls == []


class TestPartialOps:
    def test_partial_transpose_involution(self):
        op = random_op(2, 2, 21)
        back = partial_transpose(partial_transpose(op, 2), 2)
        np.testing.assert_allclose(back.entries, op.entries, atol=1e-14)

    def test_partial_transpose_both_slots_is_full_transpose(self):
        op = random_op(3, 2, 22)
        both = partial_transpose(partial_transpose(op, 1), 2)
        np.testing.assert_allclose(both.entries, op.entries.T, atol=1e-14)


class TestSpectral:
    def test_rank_and_kernel(self):
        entries = np.diag([1.0, 2.0, 0.0, 0.0]).astype(np.complex128)
        report = spectral(TensorOperator(2, 2, entries))
        assert report.rank == 2
        assert report.kernel_basis.shape == (4, 2)
        np.testing.assert_allclose(entries @ report.kernel_basis, 0.0, atol=1e-14)

    def test_eigenvalues_of_swap(self):
        report = spectral(permutation_op((2, 1), 2))
        assert sorted(np.round(report.eigenvalues.real, 12)) == [-1.0, 1.0, 1.0, 1.0]


class TestMatrixDump:
    def test_row_format_and_count(self):
        rows = list(matrix_dump_rows(TensorOperator(2, 2, np.eye(4))))
        assert len(rows) == 16
        assert rows[0] == "1, 1, 1, 0"
        assert rows[1] == "1, 2, 0, 0"

    def test_seventeen_significant_digits(self):
        entries = np.full((2, 2), 1 / 3, dtype=np.complex128)
        rows = list(matrix_dump_rows(TensorOperator(2, 1, entries)))
        assert rows[0] == "1, 1, 0.33333333333333331, 0"
