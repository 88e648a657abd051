"""Identity battery: every check passes at generic points, canaries fail."""

import json
import math

import numpy as np
import pytest

import elliptic_rmatrix.property_suite as ps
from elliptic_rmatrix import (
    DomainError,
    LogComplex,
    ModelParams,
    PoleError,
    PropertyReport,
    RKind,
    SingularError,
    TensorOperator,
    build_r,
    check_antisymmetry,
    check_crossing,
    check_crossing_unitarity,
    check_evaluated_ll,
    check_gauge_relation,
    check_h_invariance,
    check_kernel_structure,
    check_nsigma,
    check_p_to_zero,
    check_quasi_periodicity,
    check_regularity,
    check_spectrum_nonelliptic,
    check_transpose_symmetry,
    check_twist_relation,
    check_unitarity,
    check_ybe,
    embed,
    effective_pass,
    run_suite,
)
from elliptic_rmatrix.cli import _build_parser, main
from elliptic_rmatrix.property_suite import draw_log, draw_params

lc = LogComplex.from_complex


@pytest.fixture(params=[2, 3], ids=["N2", "N3"])
def params(request):
    return draw_params(np.random.default_rng(100 + request.param), request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(555)


class TestIndividualChecks:
    def test_ybe_all_kinds(self, params, rng):
        kinds = list(RKind) if params.n == 2 else [k for k in RKind if k is not RKind.EIGHT_VERTEX]
        for kind in kinds:
            report = check_ybe(params, kind, draw_log(rng), draw_log(rng), draw_log(rng))
            assert report.passed, (kind, report.residual)
            assert report.name == f"ybe[{kind.value}]"
            assert len(report.sample_points) == 3

    def test_unitarity_all_kinds(self, params, rng):
        kinds = list(RKind) if params.n == 2 else [k for k in RKind if k is not RKind.EIGHT_VERTEX]
        for kind in kinds:
            report = check_unitarity(params, kind, draw_log(rng))
            assert report.passed, (kind, report.residual)
        hat = check_unitarity(params, RKind.ELLIPTIC_HAT, draw_log(rng))
        assert hat.detail["u_cross_check"] < 1e-10

    def test_regularity(self, params):
        assert check_regularity(params).passed

    def test_crossing(self, params, rng):
        assert check_crossing(params, draw_log(rng)).passed

    def test_antisymmetry(self, params, rng):
        assert check_antisymmetry(params, draw_log(rng)).passed

    def test_quasi_periodicity_records_branch(self, params, rng):
        report = check_quasi_periodicity(params, draw_log(rng))
        assert report.passed
        assert report.detail["g_half_branch"] in ("principal", "alternate")

    def test_h_invariance_dressed_generator(self, params, rng):
        report = check_h_invariance(params, draw_log(rng))
        assert report.passed
        assert report.detail["generator"] == "g^{1/2} h g^{-1/2}"

    def test_crossing_unitarity_covers_both_normalizations(self, params, rng):
        report = check_crossing_unitarity(params, draw_log(rng))
        assert report.passed
        assert set(report.detail) >= {"elliptic", "elliptic-hat"}

    def test_evaluated_ll(self, params, rng):
        assert check_evaluated_ll(params, draw_log(rng)).passed

    def test_gauge_relation(self, params, rng):
        assert check_gauge_relation(params, draw_log(rng), draw_log(rng)).passed

    def test_twist_relation(self, params, rng):
        report = check_twist_relation(params, draw_log(rng))
        assert report.passed
        if params.n == 2:
            assert report.residual == 0.0  # the twist is trivial at N = 2


class TestKernelAndSpectrum:
    def test_kernel_structure_details(self, params):
        report = check_kernel_structure(params)
        assert report.passed
        n = params.n
        assert report.detail["expected_rank"] == n * n - n * (n - 1) // 2
        assert report.detail["rank"] == report.detail["expected_rank"]
        for key in (
            "kernel_residual",
            "column_symmetry_residual",
            "kernel_in_antisymmetric_subspace",
        ):
            assert report.detail[key] < 1e-10

    def test_spectrum_nonelliptic(self, params):
        assert check_spectrum_nonelliptic(params).passed


class TestPToZero:
    def test_two_rate_structure(self, params, rng):
        report = check_p_to_zero(params, draw_log(rng))
        assert report.passed
        full = report.detail["residual_sequence"]
        support = report.detail["support_residual_sequence"]
        assert report.detail["monotone"]
        assert all(b < a for a, b in zip(full, full[1:]))
        # off-support entries die like p^(1/N): visible but slow
        assert full[-1] < full[0]
        # on-support entries die like p and carry the headline residual
        assert report.residual == support[-1]
        assert report.residual < 1e-5
        assert abs(report.detail["fitted_scalar"] - 1.0) < 1e-6

    def test_rejects_non_decreasing_sequence(self, params):
        with pytest.raises(DomainError):
            check_p_to_zero(params, lc(1.2), p_sequence=(1e-4, 1e-2))

    def test_non_monotone_would_fail(self, params, rng):
        # single-element sequence is trivially monotone; sanity-check the
        # gate by asserting the recorded flag drives the residual choice
        report = check_p_to_zero(params, draw_log(rng), p_sequence=(1e-6, 1e-8))
        assert report.detail["monotone"] is True


class TestNsigma:
    def test_exact_zero_through_s5(self):
        report = check_nsigma(5)
        assert report.residual == 0.0
        assert report.tolerance == 0.0
        assert report.passed


def fraction_nsigma(n_max, alpha):
    """The exact-rational n_sigma loop that the integer form replaced."""
    from fractions import Fraction
    from itertools import permutations

    worst = Fraction(0)
    for n in range(2, n_max + 1):
        for sigma in permutations(range(1, n + 1)):
            total = Fraction(ps._inversions(sigma))
            total += Fraction(2, n) * sum(Fraction(i * (sigma[i - 1] - i)) for i in range(1, n + 1))
            total += sum(
                alpha(n, sigma[i - 1], sigma[j - 1]) - alpha(n, i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            )
            worst = max(worst, abs(total))
    return float(worst)


class TestNsigmaIntegerForm:
    def test_matches_fraction_loop_through_s6(self):
        from elliptic_rmatrix import alpha_exponent

        for n_max in range(2, 7):
            report = check_nsigma(n_max)
            assert report.residual == fraction_nsigma(n_max, alpha_exponent) == 0.0
        assert check_nsigma(5).detail["permutations_checked"] == 152

    def test_perturbed_exponent_matches_fraction_loop(self, monkeypatch):
        from fractions import Fraction

        real = ps._twice_n_alpha

        def perturbed(n, i, j):  # alpha_13 off by 1/(2N), antisymmetric
            shift = {(1, 3): 1, (3, 1): -1}.get((i, j), 0)
            return real(n, i, j) + shift

        monkeypatch.setattr(ps, "_twice_n_alpha", perturbed)
        for n_max in range(3, 7):
            report = check_nsigma(n_max)
            expected = fraction_nsigma(n_max, lambda n, i, j: Fraction(perturbed(n, i, j), 2 * n))
            assert report.residual == expected > 0.0
            assert not report.passed


class TestCanary:
    def test_transpose_symmetry_is_genuine_pass_at_n2(self, rng):
        params2 = draw_params(np.random.default_rng(102), 2)
        report = check_transpose_symmetry(params2, draw_log(rng))
        assert report.passed
        assert report.detail["canary"] is False
        assert effective_pass(report)

    def test_transpose_symmetry_fails_loudly_at_n3(self, rng):
        params3 = draw_params(np.random.default_rng(103), 3)
        report = check_transpose_symmetry(params3, draw_log(rng))
        assert not report.passed
        assert report.detail["canary"] is True
        assert report.residual > ps.CANARY_MARGIN
        assert effective_pass(report)  # a loud failure is the desired outcome

    def test_quiet_canary_is_not_effective(self):
        report = PropertyReport(
            name="transpose-symmetry",
            params_digest="x",
            sample_points=(),
            residual=1e-6,
            tolerance=1e-8,
            passed=False,
            runtime_ms=0.0,
            detail={"canary": True},
        )
        assert not effective_pass(report)


class TestInversionGuard:
    def test_singular_matrix_refused(self):
        with pytest.raises(SingularError, match="matrix inversion in x"):
            ps._inv(np.zeros((4, 4)), "x")


class TestResampling:
    def test_pole_propagates_without_rng(self):
        params = draw_params(np.random.default_rng(7), 2)
        pole = params.log_q.inv()  # z = 1/q sits on a theta zero
        with pytest.raises(PoleError):
            check_unitarity(params, RKind.ELLIPTIC, pole)

    def test_pole_resampled_with_rng(self):
        params = draw_params(np.random.default_rng(7), 2)
        pole = params.log_q.inv()
        report = check_unitarity(params, RKind.ELLIPTIC, pole, rng=np.random.default_rng(0))
        assert report.passed
        assert report.sample_points[0] != pytest.approx(pole.to_complex())


def _scale_largest(entries):
    entries.flat[np.argmax(np.abs(entries))] *= 1 + 1e-6


def _leak(entries):
    # row (0, 0) has charge 0 and column (0, 1) charge 1
    entries[0, 1] = 1e-6 * np.abs(entries).max()


class TestYbeChargeSectors:
    """check_ybe multiplies charge-sector blocks and guards the entries off them."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_products(self, n):
        rng = np.random.default_rng(60 + n)
        params = draw_params(rng, n)
        for kind in (k for k in ps.CHECKS["ybe"].kinds if k.exists_at(n)):
            z1, z2, z3 = (draw_log(rng) for _ in range(3))
            r12, r13, r23 = (
                embed(build_r(params, kind, lz), slots, 3).entries
                for lz, slots in ((z1 / z2, (1, 2)), (z1 / z3, (1, 3)), (z2 / z3, (2, 3)))
            )
            lhs, rhs = r12 @ r13 @ r23, r23 @ r13 @ r12
            dense = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
            report = check_ybe(params, kind, z1, z2, z3)
            assert report.passed
            assert abs(report.residual - dense) <= 1e-16, (kind, report.residual, dense)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("mutate", [_scale_largest, _leak], ids=["in-sector", "off-sector"])
    def test_mutated_builder_fails(self, monkeypatch, n, mutate):
        rng = np.random.default_rng(70 + n)
        params = draw_params(rng, n)
        points = tuple(draw_log(rng) for _ in range(3))
        kinds = [k for k in ps.CHECKS["ybe"].kinds if k.exists_at(n)]
        assert all(check_ybe(params, kind, *points).passed for kind in kinds)
        real = ps.build_r

        def build_r(params, kind, log_z):
            entries = real(params, kind, log_z).entries.copy()
            mutate(entries)
            return TensorOperator(params.n, 2, entries)

        monkeypatch.setattr(ps, "build_r", build_r)
        for kind in kinds:
            report = check_ybe(params, kind, *points)
            assert not report.passed, (kind, report.residual)


def loop_evaluated_ll(params, lz):
    """check_evaluated_ll's residual as it was written: one pair of block
    products per (i, j, k, l) and per (i, j, l)."""
    n = params.n
    top = build_r(params, RKind.ELLIPTIC_HAT, lz)
    bot = build_r(params, RKind.ELLIPTIC_HAT, lz / params.log_q)
    v_top, v_bot = top.tensor_view(), bot.tensor_view()
    scale = np.linalg.norm(top.entries) * np.linalg.norm(bot.entries) / (n * n)

    def blk(view, i, j):
        return view[i, :, j, :]

    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    combo = (blk(v_top, i, j) @ blk(v_bot, k, l) - blk(v_top, i, l) @ blk(v_bot, k, j)
                             - blk(v_top, k, l) @ blk(v_bot, i, j) + blk(v_top, k, j) @ blk(v_bot, i, l))
                    worst = max(worst, float(np.linalg.norm(combo)))
            for l in range(n):
                combo = blk(v_top, i, j) @ blk(v_bot, i, l) - blk(v_top, i, l) @ blk(v_bot, i, j)
                worst = max(worst, float(np.linalg.norm(combo)))
    return worst / max(scale, 1e-300)


class TestEvaluatedLlEinsum:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_block_loop(self, n):
        rng = np.random.default_rng(80 + n)
        params = draw_params(rng, n)
        for _ in range(3):
            lz = draw_log(rng)
            report = check_evaluated_ll(params, lz)
            assert report.passed
            assert abs(report.residual - loop_evaluated_ll(params, lz)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scaled_block_of_the_shifted_factor_fails(self, monkeypatch, n):
        rng = np.random.default_rng(90 + n)
        params = draw_params(rng, n)
        lz = draw_log(rng)
        assert check_evaluated_ll(params, lz).passed
        real = ps.build_r

        def build_r(params, kind, log_z):
            entries = real(params, kind, log_z).entries.copy()
            if log_z == lz / params.log_q:  # the z/q factor: its block E_12 scaled
                entries[:n, n:2 * n] *= 1 + 1e-6
            return TensorOperator(params.n, 2, entries)

        monkeypatch.setattr(ps, "build_r", build_r)
        report = check_evaluated_ll(params, lz)
        assert not report.passed, report.residual


def _pole_on_first_build(monkeypatch) -> list:
    """Make ``property_suite.build_r`` raise PoleError on its first call only."""
    real = ps.build_r
    calls = []

    def build_r(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise PoleError("synthetic pole")
        return real(*args, **kwargs)

    monkeypatch.setattr(ps, "build_r", build_r)
    return calls


_RUNNABLE = [key for key, check in ps.CHECKS.items() if check.run is not None]


class TestSampledHelper:
    """Every table entry resamples, or refuses to, through the one helper, ``_sampled``."""

    @staticmethod
    def _run(key, rng):
        check = ps.CHECKS[key]
        params = draw_params(np.random.default_rng(7), 2)
        points = tuple(draw_log(np.random.default_rng(8)) for _ in check.points)
        kind = check.kinds[0] if check.kinds else RKind.ELLIPTIC
        return points, check.run(params, kind, points, None, rng)

    @pytest.mark.parametrize("key", _RUNNABLE)
    def test_pole_propagates_without_rng(self, monkeypatch, key):
        calls = _pole_on_first_build(monkeypatch)
        if key == "nsigma":  # exact arithmetic, no matrix to build
            assert self._run(key, None)[1].passed and calls == []
            return
        with pytest.raises(PoleError):
            self._run(key, None)

    @pytest.mark.parametrize("key", _RUNNABLE)
    def test_pole_resampled_with_rng(self, monkeypatch, key):
        calls = _pole_on_first_build(monkeypatch)
        if key == "nsigma":
            assert self._run(key, np.random.default_rng(0))[1].passed and calls == []
        elif ps.CHECKS[key].points:
            points, report = self._run(key, np.random.default_rng(0))
            assert len(report.sample_points) == len(points)
            for old, new in zip(points, report.sample_points):
                assert new != pytest.approx(old.to_complex())
        else:  # a fixed point (z = 1 or z = q) has nothing to redraw
            with pytest.raises(PoleError):
                self._run(key, np.random.default_rng(0))


class TestReportInvariants:
    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError):
            PropertyReport(
                name="x",
                params_digest="",
                sample_points=(),
                residual=1.0,
                tolerance=1e-8,
                passed=True,
                runtime_ms=0.0,
            )

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            PropertyReport(
                name="x",
                params_digest="",
                sample_points=(),
                residual=-1.0,
                tolerance=1e-8,
                passed=False,
                runtime_ms=0.0,
            )


class TestRunSuite:
    def test_everything_passes_at_n2_and_n3(self):
        for n in (2, 3):
            reports = run_suite(n, seed=20, n_points=2)
            assert reports
            bad = [r for r in reports if not effective_pass(r)]
            assert bad == []
            names = {r.name for r in reports}
            assert "p-to-zero" in names
            assert "nsigma" in names

    def test_shared_params_reuse_digest(self):
        params = draw_params(np.random.default_rng(31), 2)
        reports = run_suite(2, seed=32, n_points=2, params=params)
        digests = {r.params_digest for r in reports if r.params_digest and ":" not in r.params_digest}
        assert digests == {params.digest()}

    def test_deterministic_for_fixed_seed(self):
        a = run_suite(2, seed=9, n_points=1)
        b = run_suite(2, seed=9, n_points=1)
        assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]

    def test_safe_mode_converts_errors(self, monkeypatch):
        def boom(*args, **kwargs):
            raise PoleError("synthetic failure")

        monkeypatch.setattr(ps, "check_crossing", boom)  # the table calls it by this name
        reports = ps.run_suite(2, seed=4, n_points=1, safe=True)
        errors = [r for r in reports if r.name == "crossing:error"]
        assert errors and not errors[0].passed
        assert math.isinf(errors[0].residual)
        assert "PoleError" in errors[0].detail["error"]

    def test_unsafe_mode_raises(self, monkeypatch):
        def boom(*args, **kwargs):
            raise PoleError("synthetic failure")

        monkeypatch.setattr(ps, "check_crossing", boom)
        with pytest.raises(PoleError):
            ps.run_suite(2, seed=4, n_points=1, safe=False)

    def test_tolerance_override_forces_failure(self):
        reports = run_suite(2, seed=6, n_points=1, tolerances={"ybe": 1e-30})
        ybe = [r for r in reports if r.name.startswith("ybe")]
        assert ybe and all(not r.passed for r in ybe)
        assert all(r.tolerance == 1e-30 for r in ybe)


def _table_key(report_name: str) -> str:
    """The CHECKS key of a report name: "ybe[elliptic]" -> "ybe", "qdet[x]" -> "qdet.x"."""
    head, _, inner = report_name.partition("[")
    return f"qdet.{inner.rstrip(']')}" if head == "qdet" else head


class TestCheckTable:
    def test_scan_choices_are_the_entries_with_kinds(self, capsys):
        parser = _build_parser()
        for key, check in ps.CHECKS.items():
            if check.kinds:
                assert parser.parse_args(["scan", "--check", key]).check == key
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(["scan", "--check", key])

    def test_suite_report_names_resolve_to_scoped_entries(self):
        names = [r.name for n in (2, 3) for r in run_suite(n, seed=5, n_points=1)]
        scoped = {key for key, check in ps.CHECKS.items() if check.scope is not None}
        assert {_table_key(name) for name in names} == scoped

    def test_each_tolerance_key_reaches_its_own_rows(self, capsys):
        overrides = {key: 10.0 ** -(20 + i) for i, key in enumerate(ps.CHECKS)}
        argv = ["verify", "--n", "3", "--seed", "5", "--points", "1", "--format", "json"]
        argv += [f"--tol={key}={value!r}" for key, value in overrides.items()]
        assert main(argv) == 1
        rows = json.loads(capsys.readouterr().out)["reports"]
        assert {_table_key(row["check"]) for row in rows} == set(ps.CHECKS)
        for row in rows:
            assert row["tolerance"] == overrides[_table_key(row["check"])], row["check"]

    def test_entries_are_consistent(self):
        for key, check in ps.CHECKS.items():
            assert all(0 <= i < 4 for i in check.points), key
            assert (check.run is None) == (check.scope is None), key
