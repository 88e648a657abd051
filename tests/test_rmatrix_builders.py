"""Elliptic R-matrix entries, scalar prefactors, dressing matrices."""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from elliptic_rmatrix import (
    DomainError,
    KindError,
    LOG_ONE,
    LogComplex,
    ModelParams,
    PoleError,
    RKind,
    alpha_exponent,
    build_f,
    build_g,
    build_g_half,
    build_h,
    build_r,
    build_v,
    charge_sectors,
    embed,
    eta,
    kappa_inv,
    permutation_op,
    rho,
    s_coeff,
    spectral,
    tau,
    u_scalar,
)

lc = LogComplex.from_complex

# frozen oracles: explicit truncated lattice products (60x60 for the
# double-base symbols, 400 terms single-base) at the pinned point below
KAPPA_PARAMS = (3, 0.41 + 0.13j, 0.17 - 0.06j)
KAPPA_Z = 1.21 + 0.34j
KAPPA_ORACLE = 1.365695298050635 - 0.21440125282107114j
RHO_ORACLE = 0.24872477803154655 + 1.79648405162722j


@pytest.fixture
def params_n2():
    return ModelParams(2, lc(0.37 + 0.11j), lc(0.21 - 0.08j))


@pytest.fixture
def params_n3():
    return ModelParams(3, lc(0.41 + 0.13j), lc(0.17 - 0.06j))


def draw_z(rng):
    return lc(rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))


class TestModelParams:
    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            ModelParams(1, lc(0.3), lc(0.1))

    def test_rejects_nome_outside_disc(self):
        with pytest.raises(DomainError):
            ModelParams(2, lc(1.1), lc(0.1))
        with pytest.raises(DomainError):
            ModelParams(2, lc(0.3), lc(1.0 + 0j))

    def test_digest_deterministic_and_sensitive(self):
        a = ModelParams(2, lc(0.3), lc(0.1))
        b = ModelParams(2, lc(0.3), lc(0.1))
        c = ModelParams(2, lc(0.3), lc(0.11))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_genericity_flags_near_unit_q_power(self):
        clean = ModelParams(2, lc(0.4 + 0.1j), lc(0.2))
        assert clean.genericity_warnings() == []
        dirty = ModelParams(2, lc(0.99), lc(0.2), genericity_margin=0.05)
        assert any("q^2" in w for w in dirty.genericity_warnings())

    def test_genericity_grid_matches_power_loop(self):
        def loop_warnings(params):  # the Python power loop the numpy grid replaced
            margin, q, p, n = params.genericity_margin, params.q, params.p, params.n
            out = [f"q^{2 * k} within {margin:g} of 1"
                   for k in range(1, 2 * n + 1) if abs(q ** (2 * k) - 1.0) <= margin]
            for a in range(-2 * n, 2 * n + 1):
                for b in range(-2 * n, 2 * n + 1):
                    if (a or b) and abs(p**a * q**b - 1.0) <= margin:
                        out.append(f"p^{a} q^{b} within {margin:g} of 1")
            return out

        q = 0.6 * cmath.exp(0.3j)
        unit = cmath.exp(0.5j * math.pi)  # q^4 nears 1 at this phase
        panel = [
            (2, q, q**2 * (1 + 5e-5)),  # p q^-2 is 5e-5 from 1: fires
            (3, q, q**2 * (1 + 2e-4)),  # 2e-4 from 1: does not
            (6, q, q**3 * (1 - 3e-5j)),  # p^k q^-3k fires up to k = 3
            (6, q, 0.3 + 0.1j),
            (4, unit * (1 - 2e-5), 0.2 - 0.1j),  # q^4 fires, q^8 does not
        ]
        fired = 0
        for n, q_val, p_val in panel:
            params = ModelParams(n, lc(q_val), lc(p_val))
            expected = loop_warnings(params)
            assert params.genericity_warnings() == expected
            fired += bool(expected)
        assert fired == 3

    def test_kind_tags_round_trip(self):
        for kind in RKind:
            assert RKind.from_tag(kind.value) is kind
        with pytest.raises(KindError):
            RKind.from_tag("no-such-kind")


class TestScalars:
    def test_kappa_inv_frozen_oracle(self):
        n, q, p = KAPPA_PARAMS
        params = ModelParams(n, lc(q), lc(p))
        got = kappa_inv(params, lc(KAPPA_Z) ** 2)
        assert got == pytest.approx(KAPPA_ORACLE, rel=1e-12)

    def test_rho_frozen_oracle(self):
        n, q, p = KAPPA_PARAMS
        params = ModelParams(n, lc(q), lc(p))
        got = rho(params, lc(KAPPA_Z) ** 2)
        assert got == pytest.approx(RHO_ORACLE, rel=1e-12)

    def test_kappa_inv_unit_at_one(self, params_n3):
        from elliptic_rmatrix import LOG_ONE

        assert kappa_inv(params_n3, LOG_ONE) == pytest.approx(1.0, rel=1e-14)

    def test_eta_pole_at_inverse_q(self, params_n2):
        # Theta_p(q^2 z^2) in the denominator vanishes at z = 1/q
        with pytest.raises(PoleError):
            eta(params_n2, params_n2.log_q.inv())

    def test_kappa_inv_pole_at_q_squared(self, params_n3):
        # the denominator's (q^2 z^{-2}; p, q^{2N}) vanishes at z^2 = q^2
        with pytest.raises(PoleError, match="kappa denominator vanished"):
            kappa_inv(params_n3, params_n3.log_q**2)

    def test_hat_prefactor_pole_at_one(self, params_n3):
        from elliptic_rmatrix import LOG_ONE, rmatrix_builders

        # the denominator's Theta_{q^{2N}}(z^2) vanishes at z = 1
        with pytest.raises(PoleError, match="hat prefactor denominator vanished"):
            rmatrix_builders._hat_scalar_kappa(params_n3, LOG_ONE)

    def test_rho_pole_at_lattice_point(self, params_n3):
        from elliptic_rmatrix import LOG_ONE

        with pytest.raises(PoleError):
            rho(params_n3, LOG_ONE)  # (x; q^{2N}) vanishes at x = 1

    def test_s_coeff_periodic_in_c(self, params_n3):
        z = lc(1.3 + 0.2j)
        a, b = 2, 3
        v1 = s_coeff(params_n3, a, b, 1, z)
        v2 = s_coeff(params_n3, a, b, 1 + params_n3.n, z)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_s_coeff_common_shift_invariance(self, params_n3):
        z = lc(0.8 - 0.5j)
        v1 = s_coeff(params_n3, 1, 2, 3, z)
        v2 = s_coeff(params_n3, 2, 3, 4, z)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_s_coeff_index_bounds(self, params_n2):
        with pytest.raises(DomainError):
            s_coeff(params_n2, 0, 1, 1, lc(1.1))

    def test_u_scalar_symmetric_in_z_inversion(self, params_n2):
        # u(z) enters unitarity as R-hat(z) R-hat(1/z) = u(z) Id; the
        # scalar itself obeys u(z) = tau(q^(1/2)/z) tau(q^(1/2) z)
        z = lc(1.4 + 0.3j)
        direct = u_scalar(params_n2, z)
        q_half = params_n2.log_q**Fraction(1, 2)
        via_tau = tau(params_n2, q_half / z) * tau(params_n2, q_half * z)
        assert direct == pytest.approx(via_tau, rel=1e-12)


class TestDressingMatrices:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_clock_and_shift_algebra(self, n):
        params = ModelParams(n, lc(0.4 + 0.05j), lc(0.2))
        g = build_g(params).entries
        h = build_h(params).entries
        omega = params.omega()
        np.testing.assert_allclose(h @ g, omega * g @ h, atol=1e-13)
        np.testing.assert_allclose(np.linalg.matrix_power(g, n), np.eye(n), atol=1e-13)
        np.testing.assert_allclose(np.linalg.matrix_power(h, n), np.eye(n), atol=1e-13)

    def test_g_half_squares_to_g(self, params_n3):
        gh = build_g_half(params_n3).entries
        np.testing.assert_allclose(gh @ gh, build_g(params_n3).entries, atol=1e-13)
        gh_alt = build_g_half(params_n3, alternate=True).entries
        np.testing.assert_allclose(gh_alt @ gh_alt, build_g(params_n3).entries, atol=1e-13)

    def test_alpha_exponent_antisymmetric_rationals(self):
        for n in (2, 3, 4, 5):
            for i in range(1, n + 1):
                assert alpha_exponent(n, i, i) == 0
                for j in range(1, n + 1):
                    assert alpha_exponent(n, i, j) == -alpha_exponent(n, j, i)
                    assert isinstance(alpha_exponent(n, i, j), Fraction)

    def test_twist_is_identity_at_n2(self, params_n2):
        np.testing.assert_allclose(build_f(params_n2).entries, np.eye(4), atol=1e-14)

    def test_twist_diagonal_at_n3(self, params_n3):
        f = build_f(params_n3).entries
        np.testing.assert_allclose(f, np.diag(np.diag(f)), atol=1e-14)
        assert f[0, 0] == pytest.approx(1.0)

    def test_v_abelian_cocycle(self, params_n3):
        z, w = lc(1.2 + 0.4j), lc(0.7 - 0.3j)
        vz = build_v(params_n3, z).entries
        vw = build_v(params_n3, w).entries
        np.testing.assert_allclose(vz @ vw, vw @ vz, atol=1e-13)


class TestBuildR:
    def test_zero_pattern_mod_n(self, params_n3):
        n = params_n3.n
        view = build_r(params_n3, RKind.ELLIPTIC, lc(1.3 + 0.5j)).tensor_view()
        for a in range(n):
            for c in range(n):
                for b in range(n):
                    for d in range(n):
                        if (a + c - b - d) % n != 0:
                            assert view[a, c, b, d] == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_entry_off_charge_sectors(self, n):
        """Every kind conserves the Z_N charge: R and each of its three-slot
        embeddings are exactly zero between different charge sectors."""

        def off_sector(entries, k):
            labels = np.empty(n**k, dtype=int)
            labels[charge_sectors(n, k)] = np.arange(n)[:, None]
            return entries[labels[:, None] != labels[None, :]]

        rng = np.random.default_rng(40 + n)
        params = ModelParams(n, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
        for kind in (k for k in RKind if k.exists_at(n)):
            r = build_r(params, kind, draw_z(rng))
            assert np.count_nonzero(r.entries) > 0
            assert not np.any(off_sector(r.entries, 2)), kind
            for slots in ((1, 2), (1, 3), (2, 3)):
                assert not np.any(off_sector(embed(r, slots, 3).entries, 3)), (kind, slots)

    @pytest.mark.parametrize("n, q, p, z", [
        (2, 0.41 + 0.13j, 0.17 - 0.06j, 1.3 + 0.2j),
        (3, 0.41 + 0.13j, 0.17 - 0.06j, 1.3 + 0.2j),
        (4, 0.41 + 0.13j, 0.17 - 0.06j, 1.3 + 0.2j),
        # |z^2| near 3e4: the cancelled diagonal quotient is large, not a pole
        (6, 0.273 + 0.303j, 0.174 + 0.389j, 170 + 30j),
    ], ids=["2", "3", "4", "6-large-z"])
    def test_entries_are_eta_times_s_coeff(self, n, q, p, z):
        # the builder cancels the z^2 = 1 zero of the b = c entries; away
        # from z^2 = 1 every entry must still match the generic formula
        params = ModelParams(n, lc(q), lc(p))
        z = lc(z)
        view = build_r(params, RKind.ELLIPTIC, z).tensor_view()
        scale = eta(params, z)
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                for b in range(1, n + 1):
                    d = (a + c - b - 1) % n + 1
                    sign = (-1) ** ((a + c - b - d) // n)
                    want = scale * s_coeff(params, a, b, c, z) * sign
                    assert abs(view[a - 1, c - 1, b - 1, d - 1] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", [RKind.ELLIPTIC, RKind.ELLIPTIC_HAT])
    def test_theta_calls_per_build_linear_in_n(self, monkeypatch, kind):
        # the S thetas depend on the indices only through their differences,
        # so one build evaluates O(N) thetas, not O(N^3)
        from elliptic_rmatrix import rmatrix_builders

        calls = []
        real_theta = rmatrix_builders.theta

        def counting_theta(*args, **kwargs):
            calls.append(args)
            return real_theta(*args, **kwargs)

        monkeypatch.setattr(rmatrix_builders, "theta", counting_theta)
        for n in range(2, 9):
            params = ModelParams(n, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
            calls.clear()
            build_r(params, kind, lc(1.3 + 0.2j))
            assert len(calls) <= 6 * n, (n, len(calls))

    def test_regularity_elliptic_kinds(self, params_n2, params_n3):
        # the trigonometric family is normalized by rho, which itself has
        # a pole at x = 1, so regularity is an elliptic-side statement
        from elliptic_rmatrix import LOG_ONE

        for params in (params_n2, params_n3):
            perm = permutation_op((2, 1), params.n).entries
            kinds = [RKind.ELLIPTIC] + ([RKind.EIGHT_VERTEX] if params.n == 2 else [])
            for kind in kinds:
                got = build_r(params, kind, LOG_ONE).entries
                assert np.max(np.abs(got - perm)) < 1e-12, kind

    def test_eight_vertex_matches_elliptic_20_draws(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(20):
            q = lc(rng.uniform(0.3, 0.8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            p = lc(rng.uniform(0.05, 0.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            params = ModelParams(2, q, p)
            if params.genericity_warnings():
                continue
            z = draw_z(rng)
            a = build_r(params, RKind.ELLIPTIC, z)
            b = build_r(params, RKind.EIGHT_VERTEX, z)
            worst = max(worst, np.max(np.abs(a.entries - b.entries)) / a.frobenius())
        assert worst < 1e-12

    def test_eight_vertex_rejected_above_n2(self, params_n3):
        with pytest.raises(KindError):
            build_r(params_n3, RKind.EIGHT_VERTEX, lc(1.2))

    def test_hat_is_tau_times_plain(self, params_n3):
        z = lc(1.5 + 0.25j)
        plain = build_r(params_n3, RKind.ELLIPTIC, z).entries
        hat = build_r(params_n3, RKind.ELLIPTIC_HAT, z).entries
        scale = tau(params_n3, (params_n3.log_q ** Fraction(1, 2)) / z)
        assert np.max(np.abs(hat - scale * plain)) / np.max(np.abs(hat)) < 1e-12

    def test_hat_finite_and_rank_deficient_at_q(self, params_n2, params_n3):
        # tau has a zero and kappa a pole at z = q; their product is finite
        for params in (params_n2, params_n3):
            n = params.n
            hat_q = build_r(params, RKind.ELLIPTIC_HAT, params.log_q)
            assert np.all(np.isfinite(hat_q.entries))
            expected_rank = n * n - n * (n - 1) // 2
            assert spectral(hat_q).rank == expected_rank

    def test_transpose_symmetry_holds_only_at_n2(self, params_n2, params_n3):
        z = lc(1.1 + 0.6j)
        r2 = build_r(params_n2, RKind.ELLIPTIC, z).entries
        assert np.max(np.abs(r2 - r2.T)) / np.max(np.abs(r2)) < 1e-12
        r3 = build_r(params_n3, RKind.ELLIPTIC, z).entries
        assert np.max(np.abs(r3 - r3.T)) / np.max(np.abs(r3)) > 1e-3

    def test_trigonometric_kinds_ignore_p(self, params_n3):
        z = lc(1.25 - 0.45j)
        other = ModelParams(3, params_n3.log_q, lc(0.33 + 0.1j))
        for kind in (RKind.HOMOGENEOUS, RKind.PRINCIPAL, RKind.NON_ELLIPTIC):
            a = build_r(params_n3, kind, z).entries
            b = build_r(other, kind, z).entries
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_homogeneous_entries_hand_formula_n2(self, params_n2):
        # two-site check against the textbook six-vertex normalized form
        x = 1.44 + 0.31j
        q = params_n2.q
        scale = rho(params_n2, lc(x))
        got = build_r(params_n2, RKind.HOMOGENEOUS, lc(x)).entries
        expected = scale * np.array(
            [
                [1, 0, 0, 0],
                [0, q * (1 - x) / (1 - q * q * x), (1 - q * q) / (1 - q * q * x), 0],
                [0, x * (1 - q * q) / (1 - q * q * x), q * (1 - x) / (1 - q * q * x), 0],
                [0, 0, 0, 1],
            ],
            dtype=np.complex128,
        )
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_pole_guard_in_trigonometric_denominator(self, params_n2):
        bad = params_n2.log_q ** (-2)  # x = q^{-2} makes 1 - q^2 x vanish
        with pytest.raises(PoleError):
            build_r(params_n2, RKind.HOMOGENEOUS, bad)


# ---------------------------------------------------------------------------
# the entry loops as they were written with LogComplex ** Fraction powers,
# kept as references: the float-log forms must reproduce them bit for bit,
# the elliptic builder's array table and gather to within their rounding


def fraction_s_prefactor(params, a, b, c, log_z):
    n = params.n
    return (
        (log_z ** Fraction(2 * (b - a), n))
        * (params.log_q ** Fraction(2 * (c - b), n))
        * (params.log_p ** Fraction((b - a) * (c - b), n))
    ).to_complex()


def fraction_build_elliptic(params, log_z, scalar_kappa):
    from elliptic_rmatrix.rmatrix_builders import (
        _eta_common, _guard_den, _guard_scale, _theta_den, pochhammer_inf, theta,
    )

    n, lp, policy = params.n, params.log_p, params.policy
    z2 = log_z**2

    def theta_without_zero(base):
        return (
            pochhammer_inf(base * z2, (base,), policy)
            * pochhammer_inf(base * z2.inv(), (base,), policy)
            * pochhammer_inf(base, (base,), policy)
        )

    common = _eta_common(params, log_z, scalar_kappa)
    theta_p_z = theta(lp * z2, lp, policy)
    base, q2 = lp**n, params.log_q**2
    guard = _guard_scale(pochhammer_inf(base, (base,), policy))
    diag_ratio = theta_without_zero(lp) / _guard_den(theta_without_zero(base), guard, "diagonal", z2)
    # the S thetas one scalar theta per offset, as the entry loop read them
    num = {o: theta((lp ** (n + o)) * q2 * z2, base, policy) for o in range(1 - n, n)}
    den_q = {o: _theta_den((lp ** (n + o)) * q2, base, guard, policy, "den_q") for o in range(1 - n, n)}
    den_z = {o: _theta_den((lp ** (n + o)) * z2, base, guard, policy, "den_z")
             for o in range(1 - n, n) if o}
    mat = np.zeros((n * n, n * n), dtype=np.complex128)
    for a in range(1, n + 1):
        for c in range(1, n + 1):
            for b in range(1, n + 1):
                d = ((a + c - b - 1) % n) + 1
                sign = -1.0 if ((a + c - b - d) // n) & 1 else 1.0
                z_ratio = diag_ratio if b == c else theta_p_z / den_z[c - b]
                mat[(a - 1) * n + (c - 1), (b - 1) * n + (d - 1)] = (
                    common * sign * fraction_s_prefactor(params, a, b, c, log_z)
                    * num[c - a] * z_ratio / den_q[b - a]
                )
    return mat


def fraction_build_trigonometric(params, kind, log_z):
    from elliptic_rmatrix.rmatrix_builders import _rational_pole_guard

    n, lq = params.n, params.log_q
    q = lq.to_complex()
    log_x = log_z if kind is RKind.HOMOGENEOUS else log_z**2
    x = log_x.to_complex()
    den = _rational_pole_guard(q * q * x, kind.value)
    diag_base, exch_base = q * (1.0 - x) / den, (1.0 - q * q) / den
    mat = np.eye(n * n, dtype=np.complex128)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            pos_d, row_e, col_e = (i - 1) * n + (j - 1), (i - 1) * n + (j - 1), (j - 1) * n + (i - 1)
            if kind is RKind.HOMOGENEOUS:
                mat[pos_d, pos_d] = diag_base
                mat[row_e, col_e] = exch_base * (x if i > j else 1.0)
            else:
                exponent = Fraction(2 * (j - i) + (-n if i < j else n), n)
                mat[row_e, col_e] = exch_base * (log_z ** (1 + exponent)).to_complex()
                mat[pos_d, pos_d] = diag_base * (
                    (lq**exponent).to_complex() if kind is RKind.NON_ELLIPTIC else 1.0
                )
    return rho(params, log_x) * mat


def assert_entries_match(got, ref):
    # the same zero pattern exactly; the nonzero entries to the rounding of the
    # array theta table, np.exp prefactors and numpy's complex products
    # (measured at most 1.6e-15 relative over these draws)
    assert np.array_equal(got == 0, ref == 0)
    nonzero = ref != 0
    assert np.max(np.abs(got[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])) <= 6e-15


class TestFloatLogEntriesBitIdentical:
    @staticmethod
    def draws():
        rng = np.random.default_rng(2024)
        for n in range(2, 7):
            for _ in range(2):
                q = lc(rng.uniform(0.3, 0.8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
                p = lc(rng.uniform(0.05, 0.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
                yield ModelParams(n, q, p), draw_z(rng)

    def test_elliptic_kinds_match_fraction_loop(self):
        from elliptic_rmatrix.rmatrix_builders import _hat_scalar_kappa

        for params, z in self.draws():
            old = fraction_build_elliptic(params, z, kappa_inv(params, z**2))
            assert_entries_match(build_r(params, RKind.ELLIPTIC, z).entries, old)
            for point in (z, params.log_q):  # z = q: the hat's cancelled degeneracy
                old_hat = fraction_build_elliptic(params, point, _hat_scalar_kappa(params, point))
                new_hat = build_r(params, RKind.ELLIPTIC_HAT, point).entries
                assert np.all(np.isfinite(new_hat))
                assert_entries_match(new_hat, old_hat)

    def test_regularity_at_z_one(self):
        # R(1) = P: the cancelled z^2 = 1 zero leaves every off-P entry an
        # exact zero; the unit entries carry the rounding of eta's factors
        from elliptic_rmatrix import LOG_ONE

        for n in range(2, 7):
            params = ModelParams(n, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
            perm = permutation_op((2, 1), n).entries
            got = build_r(params, RKind.ELLIPTIC, LOG_ONE).entries
            assert_entries_match(got, fraction_build_elliptic(
                params, LOG_ONE, kappa_inv(params, LOG_ONE)))
            assert np.array_equal(got[perm == 0], perm[perm == 0])
            assert np.max(np.abs(got - perm)) < 1e-15

    def test_s_coeff_matches_fraction_prefactor(self):
        from elliptic_rmatrix.rmatrix_builders import s_theta_ratio

        for params, z in self.draws():
            n = params.n
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    for c in range(-n, 2 * n + 1):
                        old = fraction_s_prefactor(params, a, b, c, z) * s_theta_ratio(
                            params, a, b, c, z)
                        assert s_coeff(params, a, b, c, z) == old

    def test_trigonometric_and_dressing_match_fraction_powers(self):
        for params, z in self.draws():
            n, lq = params.n, params.log_q
            for kind in (RKind.HOMOGENEOUS, RKind.PRINCIPAL, RKind.NON_ELLIPTIC):
                old = fraction_build_trigonometric(params, kind, z)
                assert np.array_equal(build_r(params, kind, z).entries, old)
            old_v = [(z ** Fraction(n + 1 - 2 * i, n)).to_complex() for i in range(1, n + 1)]
            assert np.array_equal(build_v(params, z).entries, np.diag(old_v))
            old_f = [
                (lq ** alpha_exponent(n, i, j)).to_complex() if i != j else 1.0
                for i in range(1, n + 1) for j in range(1, n + 1)
            ]
            assert np.array_equal(build_f(params).entries, np.diag(old_f))

    def test_pole_error_when_an_s_denominator_vanishes(self):
        # den_q(-1) = Theta_{p^N}(p^{N-1} q^2) vanishes at q^2 = p, and
        # den_z(-1) = Theta_{p^N}(p^{N-1} z^2) at z^2 = p
        lp = lc(0.17 - 0.06j)
        for n in (2, 3, 6):
            with pytest.raises(PoleError, match="q-dependent"):
                build_r(ModelParams(n, lp**0.5, lp), RKind.ELLIPTIC, lc(1.3 + 0.2j))
            with pytest.raises(PoleError, match="z-dependent"):
                build_r(ModelParams(n, lc(0.41 + 0.13j), lp), RKind.ELLIPTIC, lp**0.5)

    def test_n6_build_cost_budget(self, monkeypatch):
        # a counter, not a timer: the entry loop makes no LogComplex per
        # entry (1,224 per build with Fraction powers) and O(N) thetas
        from elliptic_rmatrix import rmatrix_builders

        made, thetas = [0], [0]
        real_post_init, real_theta = LogComplex.__post_init__, rmatrix_builders.theta

        def counting_post_init(self):
            made[0] += 1
            real_post_init(self)

        def counting_theta(*args, **kwargs):
            thetas[0] += 1
            return real_theta(*args, **kwargs)

        params = ModelParams(6, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
        z = lc(1.3 + 0.2j)
        monkeypatch.setattr(LogComplex, "__post_init__", counting_post_init)
        monkeypatch.setattr(rmatrix_builders, "theta", counting_theta)
        build_r(params, RKind.ELLIPTIC, z)
        assert made[0] <= 200
        assert thetas[0] <= 6 * params.n - 1


# ---------------------------------------------------------------------------
# kappa and the hat scalar as they were written with double-base Pochhammer
# products, kept as references for the elliptic gamma forms


def double_poch(log_z, log_a, log_b, policy):
    """(z; a, b)_inf = prod_i (z a^i; b)_inf, the lattice loop pochhammer_inf ran for two bases."""
    from elliptic_rmatrix.special_functions import _poch

    a, b = log_a.to_complex(), log_b.to_complex()
    result, t = 1.0 + 0j, log_z.to_complex()
    while abs(t) >= policy.abs_floor:
        result *= _poch(t, b, policy.abs_floor, policy.max_terms)
        t *= a
    return result


def double_base_kappa_inv(params, log_z2):
    n, lq, lp, policy = params.n, params.log_q, params.log_p, params.policy
    big_q = lq ** (2 * n)
    q2 = lq**2
    mixed = lp * (lq ** (2 * n - 2))

    def quad(log_x2):
        inv = log_x2.inv()
        return (
            double_poch(big_q * inv, lp, big_q, policy)
            * double_poch(q2 * log_x2, lp, big_q, policy)
            * double_poch(lp * inv, lp, big_q, policy)
            * double_poch(mixed * log_x2, lp, big_q, policy)
        )

    return quad(log_z2) / quad(log_z2.inv())


def double_base_hat_scalar_kappa(params, log_z):
    from elliptic_rmatrix import pochhammer_inf, theta

    n, lq, lp, policy = params.n, params.log_q, params.log_p, params.policy
    big_q = lq ** (2 * n)
    z2 = log_z**2
    z2inv = z2.inv()
    q2 = lq**2
    mixed = lp * (lq ** (2 * n - 2))
    pref = (((lq**0.5) / log_z) ** Fraction(2 - 2 * n, n)).to_complex()
    num = (
        pochhammer_inf((lq ** (2 * n - 2)) * z2, (big_q,), policy)
        * pochhammer_inf(big_q, (big_q,), policy)
        * double_poch(big_q * z2inv, lp, big_q, policy)
        * double_poch(q2 * z2, lp, big_q, policy)
        * double_poch(lp * z2inv, lp, big_q, policy)
        * double_poch(mixed * z2, lp, big_q, policy)
    )
    den = (
        theta(z2, big_q, policy)
        * double_poch(lp * q2 * z2inv, lp, big_q, policy)
        * double_poch(big_q * z2, lp, big_q, policy)
        * double_poch(lp * z2, lp, big_q, policy)
        * double_poch(mixed * z2inv, lp, big_q, policy)
    )
    return pref * num / den


class TestEllipticGammaScalars:
    @staticmethod
    def draws():
        rng = np.random.default_rng(16)
        for i in range(240):
            q = lc(rng.uniform(0.3, 0.8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            p = lc(rng.uniform(0.05, 0.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            yield ModelParams(2 + i % 4, q, p), draw_z(rng)

    def test_match_double_base_products_240_draws(self):
        from elliptic_rmatrix.rmatrix_builders import _hat_scalar_kappa

        def rel(new, old):
            return abs(new - old) / abs(old)

        worst_kappa = worst_hat = worst_hat_q = 0.0
        for params, z in self.draws():
            worst_kappa = max(worst_kappa, rel(kappa_inv(params, z**2),
                                               double_base_kappa_inv(params, z**2)))
            worst_hat = max(worst_hat, rel(_hat_scalar_kappa(params, z),
                                           double_base_hat_scalar_kappa(params, z)))
            q = params.log_q  # the hat's cancelled degeneracy
            worst_hat_q = max(worst_hat_q, rel(_hat_scalar_kappa(params, q),
                                               double_base_hat_scalar_kappa(params, q)))
        # measured over these draws: 1.2e-14, 1.2e-14 and 1.3e-14
        assert worst_kappa < 2e-14
        assert worst_hat < 2e-14
        assert worst_hat_q < 2e-14

    def test_kappa_inv_exactly_one_at_z_one(self):
        from elliptic_rmatrix import LOG_ONE

        for n in range(2, 6):
            for p in (0.17 - 0.06j, 0.85 + 0.3j):  # no shift, and a p-shifted series
                assert kappa_inv(ModelParams(n, lc(0.41 + 0.13j), lc(p)), LOG_ONE) == 1.0

    def test_kappa_inv_zero_at_p(self, params_n3):
        # the numerator's (p z^{-2}; p, q^{2N}) vanishes at z^2 = p: a value, not a pole
        assert kappa_inv(params_n3, params_n3.log_p) == 0


class TestParamsConstants:
    """The values that depend on (N, q, p) alone, kept with each ModelParams."""

    Q_DEPENDENT = ("log_q", "log_q2", "log_big_q", "log_sqrt_q", "poch_big_q", "guard_big_q",
                   "theta_q2", "rho_prefactor")

    @staticmethod
    def build_all(params, z):
        return [build_r(params, kind, z).entries for kind in (RKind.ELLIPTIC, RKind.ELLIPTIC_HAT)] \
            + [rho(params, z)]

    def test_params_differing_only_in_q_share_no_value(self):
        lp, z = lc(0.17 - 0.06j), lc(1.3 + 0.2j)
        one, two = (ModelParams(3, lc(q), lp) for q in (0.41 + 0.13j, 0.52 - 0.2j))
        built = [self.build_all(params, z) for params in (one, two)]
        # fresh instances in the other order build the same matrices
        again = [self.build_all(dataclasses.replace(params), z) for params in (two, one)][::-1]
        for first, second in zip(built, again):
            assert all(np.array_equal(a, b) for a, b in zip(first, second))
        c1, c2 = one._constants, two._constants
        assert c1 is not c2
        for name in self.Q_DEPENDENT:
            assert getattr(c1, name) != getattr(c2, name), name
        offsets = range(-2, 3)
        t1, t2 = c1.q_table(offsets), c2.q_table(offsets)
        assert not np.shares_memory(t1.den_q, t2.den_q)
        assert not np.any(t1.den_q == t2.den_q)
        q_logs = c1.gather.powers[1], c2.gather.powers[1]  # 0 where c = b
        assert np.array_equal(q_logs[0] != q_logs[1], q_logs[0] != 0)
        assert np.array_equal(c1.gather.powers[2], c2.gather.powers[2])  # the p logs

    def test_equality_and_hash_ignore_the_constants(self):
        params = ModelParams(3, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
        before, copy = hash(params), dataclasses.replace(params)
        build_r(params, RKind.ELLIPTIC, lc(1.3 + 0.2j))
        assert "_constants" in vars(params)
        assert params == dataclasses.replace(params) == copy
        assert hash(params) == before == hash(copy) == hash(dataclasses.replace(params))
        assert "_constants" not in vars(dataclasses.replace(params))

    def test_den_q_pole_raises_on_every_build(self):
        # den_q(-1) = Theta_{p^N}(p^{N-1} q^2) vanishes at q^2 = p
        lp = lc(0.17 - 0.06j)
        for n in (2, 3, 6):
            params = ModelParams(n, lp**0.5, lp)
            errors = []
            for kind, z in ((RKind.ELLIPTIC, lc(1.3 + 0.2j)), (RKind.ELLIPTIC, lc(1.3 + 0.2j)),
                            (RKind.ELLIPTIC_HAT, lc(0.7 - 0.9j))):
                with pytest.raises(PoleError, match=r"in S \(q-dependent theta\)") as info:
                    build_r(params, kind, z)
                errors.append((str(info.value), info.value.argument))
            assert errors == [errors[0]] * 3
            assert errors[0][1] == cmath.exp((n - 1) * lp.value + (lp**0.5 * lp**0.5).value)

    def test_eta_guard_fires_before_den_q(self):
        # q = p: den_q(-2) = Theta_{p^N}(p^{N-2} q^2) vanishes for every z, and eta's
        # Theta_p(q^2 z^2) at z = 1; eta's guard comes first, before and after
        # the den_q table exists
        lp = lc(0.17 - 0.06j)
        params = ModelParams(3, lp, lp)
        for z in (LOG_ONE, lc(1.3 + 0.2j), LOG_ONE):
            with pytest.raises(PoleError) as info:
                build_r(params, RKind.ELLIPTIC, z)
            if z is LOG_ONE:
                assert str(info.value) == "denominator theta vanished in eta"
                assert info.value.argument == (lp**2).to_complex()
            else:
                assert str(info.value) == "denominator theta vanished in S (q-dependent theta)"
                assert info.value.argument == (lp**3).to_complex()
