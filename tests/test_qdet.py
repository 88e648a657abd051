"""Quantum determinant: product route, permutation sum, closed form."""

from itertools import permutations

import numpy as np
import pytest

from elliptic_rmatrix import (
    KindError,
    LogComplex,
    ModelParams,
    PoleError,
    RKind,
    SizeError,
    TensorOperator,
    antisymmetrizer,
    build_r,
    centrality_witness,
    closed_form_q_spread,
    embed,
    inverse_product_residual,
    permutation_sign,
    qdet_closed_form,
    qdet_engine,
    qdet_product,
    qdet_sum_formula,
    verify_qdet,
)
from elliptic_rmatrix.property_suite import draw_log, draw_params

lc = LogComplex.from_complex


@pytest.fixture(params=[2, 3], ids=["N2", "N3"])
def params(request):
    return draw_params(np.random.default_rng(200 + request.param), request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(808)


def identity_tol(n: int) -> float:
    return 1e-8 if n == 2 else 1e-7


class TestThreeRoutes:
    def test_product_route_gives_identity(self, params, rng):
        result = verify_qdet(params, draw_log(rng), rng=rng)
        assert result.deviations["product_vs_identity"] < identity_tol(params.n)
        assert result.deviations["product_internal_consistency"] < identity_tol(params.n)

    def test_closed_form_values_are_one_and_equal(self, params, rng):
        values = qdet_closed_form(params, draw_log(rng))
        assert len(values) == params.n
        for v in values:
            assert abs(v - 1.0) < 1e-8
        spread = max(abs(v - values[0]) for v in values)
        assert spread < 1e-9

    def test_all_pairwise_deviations(self, params, rng):
        result = verify_qdet(params, draw_log(rng), rng=rng)
        tol = identity_tol(params.n)
        for key, value in result.deviations.items():
            budget = 1e-9 if key == "nonelliptic_sum_vs_identity" else tol
            assert value < budget, (key, value)

    def test_nonelliptic_sum_is_identity(self, params, rng):
        op = qdet_sum_formula(params, RKind.NON_ELLIPTIC, draw_log(rng))
        assert np.max(np.abs(op.entries - np.eye(params.n))) < 1e-9

    def test_inverse_product_confirms_kernel_projection(self, params, rng):
        assert inverse_product_residual(params, draw_log(rng)) < 1e-8

    def test_z_independence_over_five_points(self, params, rng):
        means = []
        for _ in range(5):
            values = qdet_closed_form(params, draw_log(rng))
            means.append(sum(values) / len(values))
        assert max(abs(m - means[0]) for m in means) < 1e-8

    def test_q_independence(self, params, rng):
        other_q = draw_log(rng, (0.3, 0.8))
        spread = closed_form_q_spread(params, draw_log(rng), other_q)
        assert spread < 1e-8


class TestHandExpansionN2:
    def test_two_term_permutation_sum(self, rng):
        # for N = 2 the sum route is literally L11(z) L22(z/q) - L12(z) L21(z/q)
        params = draw_params(np.random.default_rng(42), 2)
        z = draw_log(rng)
        v0 = build_r(params, RKind.ELLIPTIC_HAT, z).tensor_view()
        v1 = build_r(params, RKind.ELLIPTIC_HAT, z / params.log_q).tensor_view()
        hand = v0[0, :, 0, :] @ v1[1, :, 1, :] - v0[0, :, 1, :] @ v1[1, :, 0, :]
        got = qdet_sum_formula(params, RKind.ELLIPTIC_HAT, z).entries
        np.testing.assert_allclose(got, hand, atol=1e-13)
        np.testing.assert_allclose(hand, np.eye(2), atol=1e-10)


def leibniz(n, start, step):
    """The signed sum of ``qdet_engine._signed_sum``, term by term over S_N."""
    total = 0
    for sigma in permutations(range(1, n + 1)):
        acc, used = start, 0
        for ell, v in enumerate(sigma, start=1):
            acc, used = step(acc, ell, v, used), used + v
        total = total + permutation_sign(sigma) * acc
    return total


class TestSignedSum:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_integer_determinant_is_exact(self, n):
        x = np.random.default_rng(n).integers(-9, 10, (n, n)).tolist()
        step = lambda acc, ell, v, used: acc * x[ell - 1][v - 1]
        assert qdet_engine._signed_sum(n, 1, step) == leibniz(n, 1, step)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_routes_match_permutation_reference(self, n, monkeypatch):
        rng = np.random.default_rng(300 + n)
        params = draw_params(rng, n)
        z = draw_log(rng)
        kinds = (RKind.ELLIPTIC_HAT, RKind.NON_ELLIPTIC)
        closed = qdet_closed_form(params, z)
        sums = [qdet_sum_formula(params, kind, z).entries for kind in kinds]
        monkeypatch.setattr(qdet_engine, "_signed_sum", leibniz)
        reference = qdet_closed_form(params, z)
        assert max(abs(a - b) for a, b in zip(closed, reference)) <= 1e-10
        for kind, got in zip(kinds, sums):
            want = qdet_sum_formula(params, kind, z).entries
            assert np.max(np.abs(got - want)) <= 1e-10, kind

    @pytest.mark.parametrize("seed, n", [(503, 5), (602, 6)])
    def test_identity_at_large_n(self, seed, n):
        rng = np.random.default_rng(seed)
        params = draw_params(rng, n)
        z = draw_log(rng)
        assert max(abs(v - 1.0) for v in qdet_closed_form(params, z)) < 2e-9
        hat = qdet_sum_formula(params, RKind.ELLIPTIC_HAT, z).entries
        assert np.max(np.abs(hat - np.eye(n))) < 2e-9


def dense_routes(params, z):
    """The product and inverse routes on the full N^(N+1)-square A x I.

    Returns M = tr_{1..N} X for X = Rhat_{1,0}(z) ... Rhat_{N,0}(z q^{1-N}) (A x I),
    the internal residual ||X - A x M|| / ||X|| and the inverse residual
    ||Y - A x I|| / ||A x I|| for Y = Rhat_{N,0}^{-1} ... Rhat_{1,0}^{-1} (A x I).
    """
    n, arity = params.n, params.n + 1

    def factor(j):
        w = z / params.log_q ** (j - 1)
        return embed(build_r(params, RKind.ELLIPTIC_HAT, w), (j, arity), arity).entries

    a_small = antisymmetrizer(n, n).entries
    a_big = np.kron(a_small, np.eye(n))
    x = a_big
    for j in range(n, 0, -1):
        x = factor(j) @ x
    m = np.einsum("sisj->ij", x.reshape(n**n, n, n**n, n))
    internal = np.linalg.norm(x - np.kron(a_small, m)) / np.linalg.norm(x)
    y = a_big
    for j in range(1, n + 1):
        y = np.linalg.inv(factor(j)) @ y
    return m, internal, np.linalg.norm(y - a_big) / np.linalg.norm(a_big)


class TestRankOneColumns:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_routes_match_dense_reference(self, n):
        rng = np.random.default_rng(400 + n)
        params = draw_params(rng, n)
        z = draw_log(rng)
        m, internal = qdet_engine._product_with_residual(params, z)
        want_m, want_internal, want_inverse = dense_routes(params, z)
        assert np.max(np.abs(m.entries - want_m)) <= 1e-12
        assert abs(internal - want_internal) <= 1e-13
        assert abs(inverse_product_residual(params, z) - want_inverse) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unshifted_factors_fail_both_residuals(self, n, monkeypatch):
        # every factor at z instead of z q^{1-j}: the product no longer fuses
        rng = np.random.default_rng(400 + n)
        params = draw_params(rng, n)
        z = draw_log(rng)
        monkeypatch.setattr(qdet_engine, "_q_shifted", lambda params, log_z: [log_z] * params.n)
        assert qdet_engine._product_with_residual(params, z)[1] > 1e-3
        assert inverse_product_residual(params, z) > 1e-3


def scale_off_diagonal(build):
    """``build`` with every hat matrix's b != c entries scaled by 1 + 1e-4.

    Entry (a, c; b, d) is tensor_view()[a, c, b, d], so b != c compares axes 2 and 1.
    """

    def mutated(params, kind, log_z):
        op = build(params, kind, log_z)
        if kind is not RKind.ELLIPTIC_HAT:
            return op
        view = op.tensor_view().copy()
        view[:, ~np.eye(params.n, dtype=bool)] *= 1 + 1e-4
        return TensorOperator(params.n, 2, view.reshape(op.dim, op.dim))

    return mutated


class TestTwoSlotSolve:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_perturbed_builder_fails_like_dense_solve(self, n, monkeypatch):
        # a residual far above roundoff: each two-slot solve must act on the
        # slots the dense solve of the embedded factor acts on
        rng = np.random.default_rng(400 + n)
        params = draw_params(rng, n)
        z = draw_log(rng)
        mutated = scale_off_diagonal(build_r)
        monkeypatch.setattr(qdet_engine, "build_r", mutated)
        monkeypatch.setitem(globals(), "build_r", mutated)
        residual = inverse_product_residual(params, z)
        assert residual > 1e-6
        assert abs(residual - dense_routes(params, z)[2]) <= 1e-9 * residual

    def test_factors_are_not_embedded(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the inverse route must not build a dense operator")

        rng = np.random.default_rng(503)
        params = draw_params(rng, 3)
        z = draw_log(rng)
        monkeypatch.setattr(qdet_engine, "embed", refuse)
        assert inverse_product_residual(params, z) < 1e-8


class TestCentrality:
    def test_witness_commutes(self, params, rng):
        report = centrality_witness(params, draw_log(rng), draw_log(rng), rng=rng)
        assert report.passed
        assert report.name == "centrality-witness"


class TestGuards:
    def test_product_size_limit(self):
        for n in (6, 5):
            params = ModelParams(n, lc(0.4), lc(0.2))
            for route in (qdet_product, inverse_product_residual):
                with pytest.raises(SizeError):
                    route(params, lc(1.2 + 0.1j))

    def test_closed_form_size_limit(self):
        params = ModelParams(7, lc(0.4), lc(0.2))
        with pytest.raises(SizeError):
            qdet_closed_form(params, lc(1.2 + 0.1j))

    def test_sum_formula_kind_restriction(self, params):
        with pytest.raises(KindError):
            qdet_sum_formula(params, RKind.HOMOGENEOUS, lc(1.2 + 0.1j))

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_pole_guard(self, n):
        # q^2 z^2 = exp(2e-14) sits next to the zero of Theta_p(q^2 z^2) at 1,
        # where eta's guard on the same theta already raises
        params = draw_params(np.random.default_rng(7), n)
        with pytest.raises(PoleError):
            qdet_closed_form(params, LogComplex(-params.log_q.value + 1e-14))

    def test_pole_resample_needs_rng(self):
        from elliptic_rmatrix import PoleError

        params = draw_params(np.random.default_rng(11), 2)
        pole = params.log_q.inv()
        with pytest.raises(PoleError):
            verify_qdet(params, pole)
        result = verify_qdet(params, pole, rng=np.random.default_rng(1))
        assert result.deviations["product_vs_identity"] < 1e-8
        assert result.z_point.to_complex() != pytest.approx(pole.to_complex())


class TestResultStructure:
    def test_shapes_and_digest(self, params, rng):
        result = verify_qdet(params, draw_log(rng), rng=rng)
        n = params.n
        assert result.m_matrix.entries.shape == (n, n)
        assert result.sum_formula_matrix.entries.shape == (n, n)
        assert len(result.m_k_values) == n
        assert result.params_digest == params.digest()
        assert set(result.deviations) == {
            "product_internal_consistency",
            "product_vs_identity",
            "closed_form_vs_identity",
            "closed_form_spread",
            "product_vs_closed_form",
            "product_vs_sum_formula",
            "sum_formula_vs_closed_form",
            "nonelliptic_sum_vs_identity",
            "inverse_product",
        }


class TestSharedHatFactors:
    def test_one_hat_build_per_factor_per_point(self, monkeypatch, capsys):
        # the forward, inverse and permutation-sum routes share each point's N hat matrices
        from elliptic_rmatrix.cli import main

        kinds = []
        real_build = qdet_engine.build_r

        def counting_build(params, kind, log_z):
            kinds.append(kind)
            return real_build(params, kind, log_z)

        monkeypatch.setattr(qdet_engine, "build_r", counting_build)
        main(["qdet", "--n", "4", "--points", "2", "--seed", "1", "--format", "json"])
        capsys.readouterr()
        assert kinds.count(RKind.ELLIPTIC_HAT) == 8

    def test_routes_alone_equal_routes_with_shared_factors(self, params, rng):
        z = draw_log(rng)
        hats = qdet_engine._hat_factors(params, z)
        assert np.array_equal(qdet_engine._product_with_residual(params, z)[0].entries,
                              qdet_engine._product_with_residual(params, z, hats=hats)[0].entries)
        assert inverse_product_residual(params, z) == inverse_product_residual(params, z, hats=hats)
        assert np.array_equal(qdet_sum_formula(params, RKind.ELLIPTIC_HAT, z).entries,
                              qdet_sum_formula(params, RKind.ELLIPTIC_HAT, z, hats=hats).entries)
        with pytest.raises(KindError):
            qdet_sum_formula(params, RKind.NON_ELLIPTIC, z, hats=hats)


class TestClosedFormTables:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_offset_range_is_what_the_signed_sum_reads(self, n):
        # row l places value v with used = the sum of the values in rows 1..l-1,
        # and reads S_{l, c}^{v} with c = k + l(l-1)/2 - used, k = 1..N
        for ell in range(1, n + 1):
            read = set()
            for sigma in permutations(range(1, n + 1)):
                used, v = sum(sigma[: ell - 1]), sigma[ell - 1]
                for k in range(1, n + 1):
                    c = k + ell * (ell - 1) // 2 - used
                    read |= {c - ell, c - v, v - ell}
            assert set(qdet_engine._closed_form_offsets(n, ell)) == read
