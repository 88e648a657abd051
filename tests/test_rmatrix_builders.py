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
    ModelParams,
    PoleError,
    RKind,
    TruncationError,
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
    principal_log,
    rho,
    spectral,
    tau,
    u_scalar,
)
from elliptic_rmatrix.rmatrix_builders import (
    _s_exponents,
    _s_powers,
    _s_prefactor,
    _SThetas,
    _twice_n_alpha,
)

lc = principal_log


# The entry coefficient S_{a,c}^{b}(z) one entry at a time: the scalar reference
# that the elliptic builder's gather is compared against.  It reads the builder's
# own theta table and power helpers, so it checks the gather, not those.


def s_coeff(params: ModelParams, a: int, b: int, c: int, log_z: complex) -> complex:
    """Entry coefficient S_{a,c}^{b}(z) of the elliptic R-matrix.

    S_{a,c}^{b}(z) = z^{2(b-a)/N} q^{2(c-b)/N} p^{(b-a)(c-b)/N} Theta_{p^N}(p^{N+c-a} q^2 z^2)
        / [Theta_{p^N}(p^{N+c-b} z^2) Theta_{p^N}(p^{N+b-a} q^2)]

    a, b label rows/columns in 1..N; c may be any integer (the value is
    N-periodic in c and invariant under a common shift of a, b, c).  The
    integer offsets enter the p-powers directly, with no reduction mod N.
    """
    n = params.n
    if not (1 <= a <= n and 1 <= b <= n):
        raise DomainError(f"indices a, b must lie in 1..{n}, got a={a}, b={b}")
    powers = _s_powers(_s_exponents(n, a, b, c), params.log_q, params.log_p)
    offsets = (c - a, c - b, b - a)
    thetas = _SThetas(params, log_z, range(min(offsets), max(offsets) + 1))
    return complex(_s_prefactor(powers, log_z)) * thetas.ratio(a, b, c)


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

    @pytest.mark.parametrize("name", ["log_q", "log_p"])
    @pytest.mark.parametrize("bad", [complex("nan"), complex(-math.inf, 0.0),
                                     complex(-1.0, math.inf)])
    def test_rejects_a_non_finite_log(self, name, bad):
        # a log of -inf stands for 0 and a nan for nothing: both would pass |q| < 1
        logs = {"log_q": lc(0.3), "log_p": lc(0.1), name: bad}
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            ModelParams(2, **logs)

    def test_coerces_logs_to_complex(self):
        params = ModelParams(2, -1, np.float64(-2.5))
        assert type(params.log_q) is complex and type(params.log_p) is complex
        assert params == ModelParams(2, -1 + 0j, -2.5 + 0j)

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
    def test_kappa_inv_unit_at_one(self, params_n3):
        assert kappa_inv(params_n3, 0j) == pytest.approx(1.0, rel=1e-14)

    def test_eta_pole_at_inverse_q(self, params_n2):
        # Theta_p(q^2 z^2) in the denominator vanishes at z = 1/q
        with pytest.raises(PoleError):
            eta(params_n2, -params_n2.log_q)

    def test_kappa_inv_pole_at_q_squared(self, params_n3):
        # the denominator's (q^2 z^{-2}; p, q^{2N}) vanishes at z^2 = q^2
        with pytest.raises(PoleError, match="denominator theta vanished in elliptic gamma"):
            kappa_inv(params_n3, 2 * params_n3.log_q)

    def test_hat_prefactor_pole_at_one(self, params_n3):
        from elliptic_rmatrix import rmatrix_builders

        # the denominator's Theta_{q^{2N}}(z^2) vanishes at z = 1
        with pytest.raises(PoleError, match="denominator theta vanished in hat prefactor"):
            rmatrix_builders._hat_scalar_kappa(params_n3, 0j)

    def test_rho_pole_at_lattice_point(self, params_n3):
        with pytest.raises(PoleError):
            rho(params_n3, 0j)  # (x; q^{2N}) vanishes at x = 1

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
        q_half = 0.5 * params_n2.log_q
        via_tau = tau(params_n2, q_half - z) * tau(params_n2, q_half + z)
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

    def test_twice_n_alpha_antisymmetric_integers(self):
        # 2N alpha_{ij}: alpha_{ij} = 1/2 + (i - j)/N above the diagonal
        for n in (2, 3, 4, 5):
            for i in range(1, n + 1):
                assert _twice_n_alpha(n, i, i) == 0
                for j in range(1, n + 1):
                    assert _twice_n_alpha(n, i, j) == -_twice_n_alpha(n, j, i)
                    assert isinstance(_twice_n_alpha(n, i, j), int)
                    if i < j:
                        alpha = Fraction(_twice_n_alpha(n, i, j), 2 * n)
                        assert alpha == Fraction(1, 2) + Fraction(i - j, n)
        with pytest.raises(DomainError):
            _twice_n_alpha(3, 0, 1)

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
        for params in (params_n2, params_n3):
            perm = permutation_op((2, 1), params.n).entries
            kinds = [RKind.ELLIPTIC] + ([RKind.EIGHT_VERTEX] if params.n == 2 else [])
            for kind in kinds:
                got = build_r(params, kind, 0j).entries
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
            worst = max(worst, np.max(np.abs(a.entries - b.entries)) / np.linalg.norm(a.entries))
        assert worst < 1e-12

    def test_eight_vertex_rejected_above_n2(self, params_n3):
        with pytest.raises(KindError):
            build_r(params_n3, RKind.EIGHT_VERTEX, lc(1.2))

    def test_hat_is_tau_times_plain(self, params_n3):
        z = lc(1.5 + 0.25j)
        plain = build_r(params_n3, RKind.ELLIPTIC, z).entries
        hat = build_r(params_n3, RKind.ELLIPTIC_HAT, z).entries
        scale = tau(params_n3, 0.5 * params_n3.log_q - z)
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
        bad = -2 * params_n2.log_q  # x = q^{-2} makes 1 - q^2 x vanish
        with pytest.raises(PoleError):
            build_r(params_n2, RKind.HOMOGENEOUS, bad)

    def test_regularity_at_z_one(self):
        # R(1) = P: the cancelled z^2 = 1 zero leaves every off-P entry an
        # exact zero; the unit entries carry the rounding of eta's factors
        for n in range(2, 7):
            params = ModelParams(n, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
            perm = permutation_op((2, 1), n).entries
            got = build_r(params, RKind.ELLIPTIC, 0j).entries
            assert np.array_equal(got[perm == 0], perm[perm == 0])
            assert np.max(np.abs(got - perm)) < 1e-15

    def test_pole_error_when_an_s_denominator_vanishes(self):
        # den_q(-1) = Theta_{p^N}(p^{N-1} q^2) vanishes at q^2 = p, and
        # den_z(-1) = Theta_{p^N}(p^{N-1} z^2) at z^2 = p
        lp = lc(0.17 - 0.06j)
        for n in (2, 3, 6):
            with pytest.raises(PoleError, match="q-dependent"):
                build_r(ModelParams(n, 0.5 * lp, lp), RKind.ELLIPTIC, lc(1.3 + 0.2j))
            with pytest.raises(PoleError, match="z-dependent"):
                build_r(ModelParams(n, lc(0.41 + 0.13j), lp), RKind.ELLIPTIC, 0.5 * lp)

    def test_n6_build_cost_budget(self, monkeypatch):
        # a counter, not a timer: the entry loop makes O(N) scalar thetas
        from elliptic_rmatrix import rmatrix_builders

        thetas = [0]
        real_theta = rmatrix_builders.theta

        def counting_theta(*args, **kwargs):
            thetas[0] += 1
            return real_theta(*args, **kwargs)

        params = ModelParams(6, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
        z = lc(1.3 + 0.2j)
        monkeypatch.setattr(rmatrix_builders, "theta", counting_theta)
        build_r(params, RKind.ELLIPTIC, z)
        assert thetas[0] <= 6 * params.n - 1


class TestExponentRule:
    """Every fractional exponent is one int/int quotient, which rounds once, so it
    holds the bits of the float nearest its exact rational; a form such as
    2 / n - 2 rounds twice and misses them (at N = 3 and 7, for one)."""

    def test_int_quotients_equal_the_exact_rationals(self):
        for n in range(2, 65):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    twice = _twice_n_alpha(n, i, j)
                    assert twice / (2 * n) == float(Fraction(twice, 2 * n))
                    assert (2 * i - 2 * j + n) / n == float(Fraction(2 * i - 2 * j + n, n))

    def test_constants_hold_the_exact_rationals(self):
        for n in range(2, 9):
            params = ModelParams(n, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
            c = params._constants
            assert c.eta_power == float(Fraction(2, n))
            assert c.tau_power == float(Fraction(2, n) - 2)
            assert c.rho_prefactor == cmath.exp(float(Fraction(1, n) - 1) * params.log_q)


class TestEllipticGammaScalars:
    def test_kappa_inv_exactly_one_at_z_one(self):
        # with and without a p-shifted series; not everywhere: at N = 6, q = 0.5 + 0.2i,
        # p = 0.9 e^{2i} the shift's equal thetas divide to 1 + 3.6e-17i (oracle's z = 1 class)
        panel = [(n, 0.41 + 0.13j, p) for n in range(2, 6) for p in (0.17 - 0.06j, 0.85 + 0.3j)]
        panel += [(2, 0.45 + 0.3j, 0.3 - 0.2j), (3, 0.5 * cmath.exp(1.0j), 0.9 * cmath.exp(0.5j)),
                  (4, 0.62 - 0.1j, 0.05 + 0.6j), (5, 0.7j, -0.75 + 0.1j)]
        for n, q, p in panel:
            assert kappa_inv(ModelParams(n, lc(q), lc(p)), 0j) == 1.0, (n, q, p)

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

    def test_gather_index_arrays_are_built_once_per_n(self):
        from elliptic_rmatrix import rmatrix_builders

        lp = lc(0.17 - 0.06j)
        one, two = (ModelParams(3, lc(q), lp) for q in (0.41 + 0.13j, 0.52 - 0.2j))
        g1, g2 = one._constants.gather, two._constants.gather
        for name in ("flat", "sign", "num_at", "z_at", "q_at"):
            assert getattr(g1, name) is getattr(g2, name), name
            assert not getattr(g1, name).flags.writeable, name
        # the powers are each parameter set's own, as the uncached exponents give them
        a, c, b = (i.ravel() for i in np.indices((3, 3, 3)))
        fresh = rmatrix_builders._s_powers(rmatrix_builders._s_exponents(3, a, b, c),
                                           one.log_q, one.log_p)
        assert all(np.array_equal(x, y) for x, y in zip(g1.powers, fresh))
        assert g1.powers[0] is g2.powers[0] and not g1.powers[0].flags.writeable

    def test_equality_and_hash_ignore_the_constants(self):
        params = ModelParams(3, lc(0.41 + 0.13j), lc(0.17 - 0.06j))
        before, copy = hash(params), dataclasses.replace(params)
        build_r(params, RKind.ELLIPTIC, lc(1.3 + 0.2j))
        assert "_constants" in vars(params)
        assert params == dataclasses.replace(params) == copy
        assert hash(params) == before == hash(copy) == hash(dataclasses.replace(params))
        assert "_constants" not in vars(dataclasses.replace(params))

    def test_gamma_bases_belong_to_one_params(self):
        lq, z = lc(0.41 + 0.13j), lc(1.3 + 0.2j)
        one, two = (ModelParams(3, lq, lc(p)) for p in (0.17 - 0.06j, 0.85 + 0.3j))
        for params in (one, two):
            kappa_inv(params, 2 * z)
        g1, g2 = one._constants.gamma, two._constants.gamma
        assert g1 is not g2 and g1.lp != g2.lp and g1.big_q == g2.big_q
        assert g1.k.size and not np.shares_memory(g1.den, g2.den)
        copy = dataclasses.replace(one)
        assert "_constants" not in vars(copy)
        assert copy._constants.gamma is not g1 and copy._constants.gamma.k.size == 0
        assert kappa_inv(copy, 2 * z) == kappa_inv(one, 2 * z)

    def test_gamma_base_error_raises_at_every_use(self):
        # |p|^MAX_TERMS above the floor: TruncationError from the bases, kept nowhere
        params = ModelParams(3, lc(0.41 + 0.13j), lc(0.995))
        for _ in range(2):
            with pytest.raises(TruncationError, match="elliptic gamma base"):
                kappa_inv(params, lc(1.3 + 0.2j))
        assert "gamma" not in vars(params._constants)

    def test_den_q_pole_raises_on_every_build(self):
        # den_q(-1) = Theta_{p^N}(p^{N-1} q^2) vanishes at q^2 = p
        lp = lc(0.17 - 0.06j)
        for n in (2, 3, 6):
            params = ModelParams(n, 0.5 * lp, lp)
            errors = []
            for kind, z in ((RKind.ELLIPTIC, lc(1.3 + 0.2j)), (RKind.ELLIPTIC, lc(1.3 + 0.2j)),
                            (RKind.ELLIPTIC_HAT, lc(0.7 - 0.9j))):
                with pytest.raises(PoleError, match=r"in S \(q-dependent theta\)") as info:
                    build_r(params, kind, z)
                errors.append((str(info.value), info.value.argument))
            assert errors == [errors[0]] * 3
            assert errors[0][1] == cmath.exp((n - 1) * lp + (0.5 * lp + 0.5 * lp))

    def test_eta_guard_fires_before_den_q(self):
        # q = p: den_q(-2) = Theta_{p^N}(p^{N-2} q^2) vanishes for every z, and eta's
        # Theta_p(q^2 z^2) at z = 1; eta's guard comes first, before and after
        # the den_q table exists
        lp = lc(0.17 - 0.06j)
        params = ModelParams(3, lp, lp)
        for z in (0j, lc(1.3 + 0.2j), 0j):
            with pytest.raises(PoleError) as info:
                build_r(params, RKind.ELLIPTIC, z)
            if z == 0:
                assert str(info.value) == "denominator theta vanished in eta"
                assert info.value.argument == cmath.exp(2 * lp)
            else:
                assert str(info.value) == "denominator theta vanished in S (q-dependent theta)"
                assert info.value.argument == cmath.exp(3 * lp)
