"""Quantum determinant: product route, permutation sum, closed form."""

import cmath
import importlib.util
import json
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from elliptic_rmatrix import (
    CHECKS,
    KindError,
    ModelParams,
    PoleError,
    RKind,
    SizeError,
    antisymmetrizer,
    build_r,
    embed,
    inverse_product_residual,
    permutation_sign,
    principal_log,
    qdet_closed_form,
    qdet_engine,
    qdet_product,
    qdet_sum_formula,
    tolerance_for,
)
from elliptic_rmatrix.property_suite import draw_log, draw_params
from identities import closed_form_q_spread

lc = principal_log


@pytest.fixture(params=[2, 3], ids=["N2", "N3"])
def params(request):
    return draw_params(np.random.default_rng(200 + request.param), request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(808)


def identity_tol(n: int) -> float:
    return 1e-8 if n == 2 else 1e-7


ROWS = [
    "product_internal_consistency",
    "product_vs_identity",
    "closed_form_vs_identity",
    "closed_form_spread",
    "product_vs_closed_form",
    "product_vs_sum_formula",
    "sum_formula_vs_closed_form",
    "nonelliptic_sum_vs_identity",
    "inverse_product",
]


def deviations(params, log_z) -> dict[str, float]:
    """The qdet block's residuals at one point, by row suffix."""
    reports = CHECKS["qdet"].run(params, RKind.ELLIPTIC_HAT, (log_z,))
    return {r.name[len("qdet["):-1]: r.residual for r in reports}


class TestThreeRoutes:
    def test_product_route_gives_identity(self, params, rng):
        dev = deviations(params, draw_log(rng))
        assert dev["product_vs_identity"] < identity_tol(params.n)
        assert dev["product_internal_consistency"] < identity_tol(params.n)

    def test_closed_form_values_are_one_and_equal(self, params, rng):
        values = qdet_closed_form(params, draw_log(rng))
        assert len(values) == params.n
        for v in values:
            assert abs(v - 1.0) < 1e-8
        spread = max(abs(v - values[0]) for v in values)
        assert spread < 1e-9

    def test_all_pairwise_deviations(self, params, rng):
        tol = identity_tol(params.n)
        for key, value in deviations(params, draw_log(rng)).items():
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
        v1 = build_r(params, RKind.ELLIPTIC_HAT, z - params.log_q).tensor_view()
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
        w = z - (j - 1) * params.log_q
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


class TestClosedFormInverse:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_factor_inverse_matches_dense_inverse(self, n):
        # Rhat(w)^{-1} = P Rhat(1/w) P / U(w), against a numerical inverse of a
        # well-conditioned factor
        rng = np.random.default_rng(400 + n)
        params = draw_params(rng, n)
        w = draw_log(rng)
        factor = build_r(params, RKind.ELLIPTIC_HAT, w).entries
        assert np.linalg.cond(factor) < 1e3
        closed = (qdet_engine._r21(qdet_engine.build_r, params, RKind.ELLIPTIC_HAT, -w)
                  / qdet_engine.u_scalar(params, w))
        want = np.linalg.inv(factor)
        assert np.max(np.abs(closed - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("mutation", ["U scaled", "q-shift dropped", "U at unshifted z"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mutated_inverse_fails_the_row(self, n, mutation, monkeypatch):
        rng = np.random.default_rng(400 + n)
        params = draw_params(rng, n)
        z = draw_log(rng)
        assert deviations(params, z)["inverse_product"] <= 1e-12
        inverted = {-w for w in qdet_engine._q_shifted(params, z)}
        real_build, real_u = qdet_engine.build_r, qdet_engine.u_scalar
        if mutation == "U scaled":
            monkeypatch.setattr(qdet_engine, "u_scalar",
                                lambda params, w: real_u(params, w) * (1 + 1e-6))
        elif mutation == "q-shift dropped":  # every inverse built at 1/z, not 1/w_j
            monkeypatch.setattr(qdet_engine, "build_r", lambda params, kind, w: real_build(
                params, kind, -z if w in inverted else w))
        else:
            monkeypatch.setattr(qdet_engine, "u_scalar", lambda params, w: real_u(params, z))
        residual = deviations(params, z)["inverse_product"]
        assert residual > tolerance_for("qdet.inverse_product", n, {}), residual

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
        witness = CHECKS["centrality-witness"]
        report = witness.run(params, RKind.ELLIPTIC_HAT, (draw_log(rng), draw_log(rng)))
        assert report.passed
        assert report.name == "centrality-witness"

    def test_runner_calls_the_witness_by_its_module_name(self, monkeypatch, params, rng):
        calls = []
        real = qdet_engine.centrality_witness
        monkeypatch.setattr(qdet_engine, "centrality_witness",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        points = (draw_log(rng), draw_log(rng))
        report = CHECKS["centrality-witness"].run(params, RKind.ELLIPTIC_HAT, points)
        assert len(calls) == 1 and calls[0][-2:] == points
        assert report.sample_points == tuple(cmath.exp(p) for p in points)


class TestGuards:
    def test_product_size_limit(self):
        for n in (6, 5):
            params = ModelParams(n, lc(0.4), lc(0.2))
            for route in (qdet_product, inverse_product_residual):
                with pytest.raises(SizeError):
                    route(params, lc(1.2 + 0.1j))

    def test_closed_form_size_limit(self, monkeypatch):
        from elliptic_rmatrix import rmatrix_builders

        def refuse(*args, **kwargs):
            raise AssertionError("built")

        monkeypatch.setattr(qdet_engine, "build_r", refuse)
        monkeypatch.setattr(rmatrix_builders, "theta_array", refuse)
        # N^2 2^(N-1) and N^3 2^(N-1) entries first exceed the budget at N = 17 and 14
        with pytest.raises(SizeError, match="N = 17"):
            qdet_closed_form(ModelParams(17, lc(0.4), lc(0.2)), lc(1.2 + 0.1j))
        for kind in (RKind.ELLIPTIC_HAT, RKind.NON_ELLIPTIC):
            with pytest.raises(SizeError, match="N = 14"):
                qdet_sum_formula(ModelParams(14, lc(0.4), lc(0.2)), kind, lc(1.2 + 0.1j))

    def test_sums_past_n6_equal_the_identity(self):
        params = draw_params(np.random.default_rng(7), 7)
        log_z = draw_log(np.random.default_rng(8))
        n, eye, scale = 7, np.eye(7), np.sqrt(7)
        m_values = qdet_closed_form(params, log_z)
        hat_sum = qdet_sum_formula(params, RKind.ELLIPTIC_HAT, log_z).entries
        nonelliptic_sum = qdet_sum_formula(params, RKind.NON_ELLIPTIC, log_z).entries
        assert max(abs(v - 1.0) for v in m_values) < tolerance_for(
            "qdet.closed_form_vs_identity", n, {})
        assert np.linalg.norm(hat_sum - eye) / scale < tolerance_for(
            "qdet.sum_formula_vs_closed_form", n, {})
        assert np.linalg.norm(nonelliptic_sum - eye) / scale < tolerance_for(
            "qdet.nonelliptic_sum_vs_identity", n, {})

    def test_sum_formula_kind_restriction(self, params):
        with pytest.raises(KindError):
            qdet_sum_formula(params, RKind.HOMOGENEOUS, lc(1.2 + 0.1j))

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_pole_guard(self, n):
        # q^2 z^2 = exp(2e-14) sits next to the zero of Theta_p(q^2 z^2) at 1,
        # where eta's guard on the same theta already raises
        params = draw_params(np.random.default_rng(7), n)
        with pytest.raises(PoleError):
            qdet_closed_form(params, -params.log_q + 1e-14)


class TestBlockRows:
    def test_row_names_points_and_m_k_values(self, params, rng):
        log_z = draw_log(rng)
        reports = CHECKS["qdet"].run(params, RKind.ELLIPTIC_HAT, (log_z,))
        assert [r.name for r in reports] == [f"qdet[{row}]" for row in ROWS]
        for report in reports:
            assert report.sample_points == (cmath.exp(log_z),)
            assert report.detail["m_k_values"] == list(qdet_closed_form(params, log_z))
        assert [r.tolerance for r in reports] == [
            tolerance_for(f"qdet.{row}", params.n, {}) for row in ROWS]

    def test_runner_reaches_the_closed_form_by_its_module_name(self, monkeypatch, capsys):
        # rebinding qdet_engine.qdet_closed_form reaches the block in both commands
        real = qdet_engine.qdet_closed_form
        monkeypatch.setattr(qdet_engine, "qdet_closed_form",
                            lambda *args: tuple(m * (1 + 1e-6) for m in real(*args)))
        from elliptic_rmatrix.cli import main

        for argv in (["qdet", "--n", "2", "--points", "2"], ["verify", "--n", "2", "--points", "1"]):
            assert main([*argv, "--seed", "1", "--format", "json"]) == 1
            rows = json.loads(capsys.readouterr().out)["reports"]
            closed = [r for r in rows if r["check"] == "qdet[closed_form_vs_identity]"]
            assert len(closed) == 2 and not any(r["passed"] for r in closed)


class TestSharedHatFactors:
    def test_one_hat_build_per_factor_per_point(self, monkeypatch, capsys):
        # the forward and permutation-sum routes share each point's N hat matrices;
        # the inverse route's N factors are hat matrices at the inverted points
        from elliptic_rmatrix.cli import main

        kinds = []
        real_build = qdet_engine.build_r

        def counting_build(params, kind, log_z):
            kinds.append(kind)
            return real_build(params, kind, log_z)

        monkeypatch.setattr(qdet_engine, "build_r", counting_build)
        main(["qdet", "--n", "4", "--points", "2", "--seed", "1", "--format", "json"])
        capsys.readouterr()
        assert kinds.count(RKind.ELLIPTIC_HAT) == 2 * 4 * 2

    def test_one_antisymmetric_column_build_per_n(self, monkeypatch, params, rng):
        # every point and route at one N shares the read-only columns |a> x e_j
        qdet_engine._antisymmetric_columns.cache_clear()
        real, built = qdet_engine.antisymmetrizer, []
        monkeypatch.setattr(qdet_engine, "antisymmetrizer",
                            lambda n, k: built.append((n, k)) or real(n, k))
        for _ in range(2):
            CHECKS["qdet"].run(params, RKind.ELLIPTIC_HAT, (draw_log(rng),))
        inverse_product_residual(params, draw_log(rng))
        qdet_product(params, draw_log(rng))
        assert built == [(params.n, params.n)]
        columns = qdet_engine._antisymmetric_columns(params.n)
        assert not columns.flags.writeable
        assert np.array_equal(columns, qdet_engine._antisymmetric_columns.__wrapped__(params.n))

    def test_routes_alone_equal_routes_with_shared_factors(self, params, rng):
        z = draw_log(rng)
        hats = qdet_engine._hat_factors(params, z)
        assert np.array_equal(qdet_engine._product_with_residual(params, z)[0].entries,
                              qdet_engine._product_with_residual(params, z, hats=hats)[0].entries)
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


def _known_failing_argv() -> dict[str, list[str]]:
    """tools/identity_sweep.py's known failing qdet commands, by their --seed."""
    path = Path(__file__).resolve().parent.parent / "tools" / "identity_sweep.py"
    spec = importlib.util.spec_from_file_location("identity_sweep", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclass looks it up
    spec.loader.exec_module(module)
    return {argv[argv.index("--seed") + 1]: argv for argv in module.KNOWN_FAILING}


KNOWN_FAILING_ARGV = _known_failing_argv()


# The failing rows of each known failing draw, in report order (ROADMAP, known
# failing draws); a change that keeps every report moves none of them, and one
# that mends a draw shows here which rows it mends.  Since the inverse route
# inverts by unitarity, seven draws pass: their largest inverse_product residual
# is noted.
_INVERSE = "qdet[inverse_product]"
KNOWN_FAILING_ROWS = {
    "152062143": [],  # 4.0e-11
    "3328858614": [],  # 1.0e-10
    "1506946534": [],  # 2.7e-10
    "1242427736": ["qdet[closed_form_spread]", _INVERSE],  # 2.2e-9, 1.7e-8
    "88274865": [],  # 1.3e-10
    "4261092569": [],  # 1.1e-9
    "3533503040": [],  # 1.5e-9
    "3918328718": [],  # 1.1e-10
}


def test_known_failing_draws_are_the_sweep_list():
    assert set(KNOWN_FAILING_ARGV) == set(KNOWN_FAILING_ROWS)


@pytest.mark.parametrize("seed", sorted(KNOWN_FAILING_ROWS))
def test_known_failing_draw_fails_exactly_its_rows(capsys, seed):
    from elliptic_rmatrix.cli import main

    assert main(KNOWN_FAILING_ARGV[seed]) == (1 if KNOWN_FAILING_ROWS[seed] else 0)
    rows = json.loads(capsys.readouterr().out)["reports"]
    assert [row["check"] for row in rows if not row["passed"]] == KNOWN_FAILING_ROWS[seed]
