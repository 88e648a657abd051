"""Identity battery: every check passes at generic points, canaries fail."""

import cmath
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import elliptic_rmatrix.property_suite as ps
import elliptic_rmatrix.rmatrix_builders as rmatrix_builders
from elliptic_rmatrix import (
    CHECKS,
    DomainError,
    ModelParams,
    PoleError,
    PropertyReport,
    RKind,
    TensorOperator,
    build_r,
    charge_sectors,
    embed,
    effective_pass,
    principal_log,
    run_suite,
)
from elliptic_rmatrix.cli import _build_parser, main
from elliptic_rmatrix.property_suite import draw_log, draw_params

lc = principal_log


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
            report = CHECKS["ybe"].run(params, kind, (draw_log(rng), draw_log(rng), draw_log(rng)))
            assert report.passed, (kind, report.residual)
            assert report.name == f"ybe[{kind.value}]"
            assert len(report.sample_points) == 3

    def test_unitarity_all_kinds(self, params, rng):
        kinds = list(RKind) if params.n == 2 else [k for k in RKind if k is not RKind.EIGHT_VERTEX]
        for kind in kinds:
            report = CHECKS["unitarity"].run(params, kind, (draw_log(rng),))
            assert report.passed, (kind, report.residual)
        hat = CHECKS["unitarity"].run(params, RKind.ELLIPTIC_HAT, (draw_log(rng),))
        assert hat.detail["u_cross_check"] < 1e-10

    def test_regularity(self, params):
        assert CHECKS["regularity"].run(params, RKind.ELLIPTIC).passed

    def test_crossing(self, params, rng):
        assert CHECKS["crossing"].run(params, RKind.ELLIPTIC, (draw_log(rng),)).passed

    def test_antisymmetry(self, params, rng):
        assert CHECKS["antisymmetry"].run(params, RKind.ELLIPTIC, (draw_log(rng),)).passed

    def test_quasi_periodicity(self, params, rng):
        assert CHECKS["quasi-periodicity"].run(params, RKind.ELLIPTIC, (draw_log(rng),)).passed

    def test_h_invariance_dressed_generator(self, params, rng):
        report = CHECKS["h-invariance"].run(params, RKind.ELLIPTIC, (draw_log(rng),))
        assert report.passed
        assert report.detail["generator"] == "g^{1/2} h g^{-1/2}"

    def test_crossing_unitarity_covers_both_normalizations(self, params, rng):
        report = CHECKS["crossing-unitarity"].run(params, RKind.ELLIPTIC, (draw_log(rng),))
        assert report.passed
        assert set(report.detail) >= {"elliptic", "elliptic-hat"}

    def test_evaluated_ll(self, params, rng):
        assert CHECKS["evaluated-ll"].run(params, RKind.ELLIPTIC, (draw_log(rng),)).passed

    def test_gauge_relation(self, params, rng):
        points = (draw_log(rng), draw_log(rng))
        assert CHECKS["gauge-relation"].run(params, RKind.ELLIPTIC, points).passed

    def test_twist_relation(self, params, rng):
        report = CHECKS["twist-relation"].run(params, RKind.ELLIPTIC, (draw_log(rng),))
        assert report.passed
        if params.n == 2:
            assert report.residual == 0.0  # the twist is trivial at N = 2


class TestKernelAndSpectrum:
    def test_kernel_structure_details(self, params):
        report = CHECKS["kernel-structure"].run(params, RKind.ELLIPTIC)
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
        assert CHECKS["spectrum-nonelliptic"].run(params, RKind.ELLIPTIC).passed


class TestPToZero:
    def test_two_rate_structure(self, params, rng):
        report = CHECKS["p-to-zero"].run(params, RKind.ELLIPTIC, (draw_log(rng),))
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
            CHECKS["p-to-zero"].run(params, RKind.ELLIPTIC, (lc(1.2),), p_sequence=(1e-4, 1e-2))

    def test_non_monotone_would_fail(self, params, rng):
        # single-element sequence is trivially monotone; sanity-check the
        # gate by asserting the recorded flag drives the residual choice
        report = CHECKS["p-to-zero"].run(params, RKind.ELLIPTIC, (draw_log(rng),),
                                         p_sequence=(1e-6, 1e-8))
        assert report.detail["monotone"] is True


def nsigma(n_max: int):
    """The nsigma row through the table; the parameters it runs at are not read."""
    return CHECKS["nsigma"].run(draw_params(np.random.default_rng(7), 2), RKind.ELLIPTIC,
                                n_max=n_max)


class TestNsigma:
    def test_exact_zero_through_s5(self):
        report = nsigma(5)
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
        from fractions import Fraction

        def alpha(n, i, j):  # the exact twist exponent alpha_{ij}
            return Fraction(rmatrix_builders._twice_n_alpha(n, i, j), 2 * n)

        for n_max in range(2, 7):
            report = nsigma(n_max)
            assert report.residual == fraction_nsigma(n_max, alpha) == 0.0
        assert nsigma(5).detail["permutations_checked"] == 152

    def test_perturbed_exponent_matches_fraction_loop(self, monkeypatch):
        from fractions import Fraction

        real = ps._twice_n_alpha

        def perturbed(n, i, j):  # alpha_13 off by 1/(2N), antisymmetric
            shift = {(1, 3): 1, (3, 1): -1}.get((i, j), 0)
            return real(n, i, j) + shift

        monkeypatch.setattr(ps, "_twice_n_alpha", perturbed)
        for n_max in range(3, 7):
            report = nsigma(n_max)
            expected = fraction_nsigma(n_max, lambda n, i, j: Fraction(perturbed(n, i, j), 2 * n))
            assert report.residual == expected > 0.0
            assert not report.passed


class TestCanary:
    def test_transpose_symmetry_is_genuine_pass_at_n2(self, rng):
        params2 = draw_params(np.random.default_rng(102), 2)
        report = CHECKS["transpose-symmetry"].run(params2, RKind.ELLIPTIC, (draw_log(rng),))
        assert report.passed
        assert report.detail["canary"] is False
        assert effective_pass(report)

    def test_transpose_symmetry_fails_loudly_at_n3(self, rng):
        params3 = draw_params(np.random.default_rng(103), 3)
        report = CHECKS["transpose-symmetry"].run(params3, RKind.ELLIPTIC, (draw_log(rng),))
        assert not report.passed
        assert report.detail["canary"] is True
        assert report.residual > ps.CANARY_MARGIN
        assert effective_pass(report)  # a loud failure is the desired outcome

    def test_quiet_canary_is_not_effective(self):
        report = PropertyReport(
            name="transpose-symmetry",
            sample_points=(),
            residual=1e-6,
            tolerance=1e-8,
            passed=False,
            runtime_ms=0.0,
            detail={"canary": True},
        )
        assert not effective_pass(report)


class TestPoles:
    def test_pole_propagates(self):
        params = draw_params(np.random.default_rng(7), 2)
        pole = -params.log_q  # z = 1/q sits on a theta zero
        with pytest.raises(PoleError):
            CHECKS["unitarity"].run(params, RKind.ELLIPTIC, (pole,))


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
                for lz, slots in ((z1 - z2, (1, 2)), (z1 - z3, (1, 3)), (z2 - z3, (2, 3)))
            )
            lhs, rhs = r12 @ r13 @ r23, r23 @ r13 @ r12
            dense = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
            report = CHECKS["ybe"].run(params, kind, (z1, z2, z3))
            assert report.passed
            assert abs(report.residual - dense) <= 1e-16, (kind, report.residual, dense)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_flat_gather_matches_row_column_gather(self, n):
        rng = np.random.default_rng(80 + n)
        params = draw_params(rng, n)
        blocks, off_sector = ps._ybe_indices(n)
        assert not (blocks.flags.writeable or off_sector.flags.writeable)
        sectors = charge_sectors(n, 3)
        labels = np.empty(n * n, dtype=np.intp)
        labels[charge_sectors(n, 2)] = np.arange(n)[:, None]
        r = build_r(params, RKind.ELLIPTIC, draw_log(rng))
        for slots in ((1, 2), (1, 3), (2, 3)):
            entries = embed(r, slots, 3).entries
            gathered = entries.ravel().take(blocks)
            assert gathered.tobytes() == entries[sectors[:, :, None], sectors[:, None, :]].tobytes()
        off = labels[:, None] != labels[None, :]
        assert np.array_equal(np.flatnonzero(off), off_sector)
        assert not np.any(r.entries.ravel().take(off_sector))  # the builders scatter into zeros

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("mutate", [_scale_largest, _leak], ids=["in-sector", "off-sector"])
    def test_mutated_builder_fails(self, monkeypatch, n, mutate):
        rng = np.random.default_rng(70 + n)
        params = draw_params(rng, n)
        points = tuple(draw_log(rng) for _ in range(3))
        kinds = [k for k in ps.CHECKS["ybe"].kinds if k.exists_at(n)]
        assert all(CHECKS["ybe"].run(params, kind, points).passed for kind in kinds)
        real = ps.build_r

        def build_r(params, kind, log_z, **kwargs):
            entries = real(params, kind, log_z, **kwargs).entries.copy()
            mutate(entries)
            return TensorOperator(params.n, 2, entries)

        monkeypatch.setattr(ps, "build_r", build_r)
        for kind in kinds:
            report = CHECKS["ybe"].run(params, kind, points)
            assert not report.passed, (kind, report.residual)


def loop_evaluated_ll(params, lz):
    """check_evaluated_ll's residual as it was written: one pair of block
    products per (i, j, k, l) and per (i, j, l)."""
    n = params.n
    top = build_r(params, RKind.ELLIPTIC_HAT, lz)
    bot = build_r(params, RKind.ELLIPTIC_HAT, lz - params.log_q)
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
            report = CHECKS["evaluated-ll"].run(params, RKind.ELLIPTIC, (lz,))
            assert report.passed
            assert abs(report.residual - loop_evaluated_ll(params, lz)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scaled_block_of_the_shifted_factor_fails(self, monkeypatch, n):
        rng = np.random.default_rng(90 + n)
        params = draw_params(rng, n)
        lz = draw_log(rng)
        assert CHECKS["evaluated-ll"].run(params, RKind.ELLIPTIC, (lz,)).passed
        real = ps.build_r

        def build_r(params, kind, log_z, **kwargs):
            entries = real(params, kind, log_z, **kwargs).entries.copy()
            if log_z == lz - params.log_q:  # the z/q factor: its block E_12 scaled
                entries[:n, n:2 * n] *= 1 + 1e-6
            return TensorOperator(params.n, 2, entries)

        monkeypatch.setattr(ps, "build_r", build_r)
        report = CHECKS["evaluated-ll"].run(params, RKind.ELLIPTIC, (lz,))
        assert not report.passed, report.residual

    def test_peak_memory_at_n8_is_two_and_a_half_n6_arrays(self):
        # the size budget counts one N^6 array; four is formed in place and prod
        # released before the norms, which allocate one more
        n = 8
        rng = np.random.default_rng(8)
        params, lz = draw_params(rng, n), draw_log(rng)
        tracemalloc.start()
        try:
            CHECKS["evaluated-ll"].run(params, RKind.ELLIPTIC, (lz,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 16 * n**6


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


_RUNNABLE = [key for key, check in ps.CHECKS.items() if check.scope is not None]


class TestSampledHelper:
    """A PoleError leaves every table entry through the one runner, ``Check.run``."""

    @staticmethod
    def _run(key):
        check = ps.CHECKS[key]
        params = draw_params(np.random.default_rng(7), 2)
        points = tuple(draw_log(np.random.default_rng(8)) for _ in check.drawn)
        kind = check.kinds[0] if check.kinds else RKind.ELLIPTIC
        return check.run(params, kind, points)

    @pytest.mark.parametrize("key", _RUNNABLE)
    def test_pole_propagates(self, monkeypatch, key):
        calls = _pole_on_first_build(monkeypatch)
        if key == "nsigma":  # exact arithmetic, no matrix to build
            assert self._run(key).passed and calls == []
            return
        with pytest.raises(PoleError):
            self._run(key)

    @pytest.mark.parametrize("key", _RUNNABLE)
    def test_reports_at_the_points_it_is_given(self, key):
        # nothing redraws a point: the rows carry the drawn points, or the fixed
        # point (z = 1 or z = q) of an entry that draws none
        check = ps.CHECKS[key]
        params = draw_params(np.random.default_rng(7), 2)
        rng = np.random.default_rng(8)
        points = tuple(draw_log(rng) for _ in check.drawn)
        kind = check.kinds[0] if check.kinds else RKind.ELLIPTIC
        reports = check.run(params, kind, points)
        fixed = {ps.AT_ONE: 1.0, ps.AT_Q: cmath.exp(params.log_q)}
        want = (tuple(cmath.exp(p) for p in points) if points
                else tuple(fixed[i] for i in check.points))
        for report in reports if isinstance(reports, list) else [reports]:
            assert report.sample_points == want, report.name


class TestReportInvariants:
    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError):
            PropertyReport(
                name="x",
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

    def test_shared_params_reach_every_check(self, monkeypatch):
        params = draw_params(np.random.default_rng(31), 2)
        seen = []
        real = ps.Check.run

        def run(self, run_params, *args, **kwargs):
            seen.append(run_params)
            return real(self, run_params, *args, **kwargs)

        monkeypatch.setattr(ps.Check, "run", run)
        run_suite(2, seed=32, n_points=2, params=params)
        assert seen and all(p is params for p in seen)

    def test_deterministic_for_fixed_seed(self):
        a = run_suite(2, seed=9, n_points=1)
        b = run_suite(2, seed=9, n_points=1)
        assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]

    def test_a_raising_check_is_an_error_row(self, monkeypatch):
        def boom(*args, **kwargs):
            raise PoleError("synthetic failure")

        monkeypatch.setattr(ps, "check_crossing", boom)  # the table calls it by this name
        reports = ps.run_suite(2, seed=4, n_points=1)
        errors = [r for r in reports if r.name == "crossing:error"]
        assert errors and not errors[0].passed
        assert math.isinf(errors[0].residual)
        assert "PoleError" in errors[0].detail["error"]

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
        # "qdet" names the group of the qdet rows, each of which reads its own key first
        assert {_table_key(row["check"]) for row in rows} == set(ps.CHECKS) - {"qdet"}
        for row in rows:
            assert row["tolerance"] == overrides[_table_key(row["check"])], row["check"]

    def test_entries_are_consistent(self):
        groups = {key.partition(".")[0] for key in ps.CHECKS if "." in key}
        for key, check in ps.CHECKS.items():
            assert all(ps.Z1 <= i <= ps.AT_Q for i in check.points), key
            # entries without a name hold the tolerance of one row of a multi-row check
            assert (check.name is None) == (check.residual is None), key
            assert check.scope is None or check.residual is not None, key
            # only a group's multi-row check has no tolerance of its own
            assert (check.tolerance is None) == (key in groups), key
            if check.name is not None:
                assert check.name.partition("[")[0] == key.partition(".")[0], key


def _scaled_hat_builds(monkeypatch, n):
    real = ps.build_r

    def build_r(params, kind, log_z, **kwargs):
        op = real(params, kind, log_z, **kwargs)
        if kind is not RKind.ELLIPTIC_HAT:
            return op
        entries = op.entries.copy()
        _scale_largest(entries)
        return TensorOperator(params.n, 2, entries)

    monkeypatch.setattr(ps, "build_r", build_r)


def _scaled_u(monkeypatch, n):
    real = ps.u_scalar
    monkeypatch.setattr(ps, "u_scalar", lambda params, log_z: real(params, log_z) * (1 + 1e-6))


def _alternate_g_half(monkeypatch, n):
    # every omega^{i/2} on its other branch: entry i times (-1)^i
    real = ps.build_g_half
    sign = (-1.0) ** np.arange(1, n + 1)
    monkeypatch.setattr(
        ps, "build_g_half", lambda params: TensorOperator(n, 1, real(params).entries * sign)
    )


def _identity_h(monkeypatch, n):
    monkeypatch.setattr(ps, "build_h", lambda params: TensorOperator(n, 1, np.eye(n, dtype=complex)))


# At even N the alternate branch turns G into -G, which the conjugation cancels.
_MUTATIONS = [
    (n, mutate)
    for n in (2, 3, 4)
    for mutate in (_scaled_hat_builds, _scaled_u, _alternate_g_half, _identity_h)
    if mutate is not _alternate_g_half or n == 3
]


class TestClosedFormInverses:
    """The suite inverts nothing numerically: its closed-form inverses assume
    unitarity and the dressing matrices, so a mutation of either still fails."""

    @pytest.mark.parametrize(
        "n, mutate", _MUTATIONS, ids=[f"N{n}-{m.__name__.strip('_')}" for n, m in _MUTATIONS]
    )
    def test_mutation_fails_a_row(self, monkeypatch, n, mutate):
        def failed():
            reports = run_suite(n, 7, n_points=4)
            return [r.name for r in reports if not r.detail.get("canary") and not r.passed]

        assert failed() == []
        mutate(monkeypatch, n)
        assert failed()

    def test_crossing_has_one_implementation(self, params, rng):
        lz = draw_log(rng)
        both = CHECKS["crossing-unitarity"].run(params, RKind.ELLIPTIC, (lz,))
        crossing = CHECKS["crossing"].run(params, RKind.ELLIPTIC, (lz,))
        assert crossing.residual == both.detail["elliptic"]
        assert both.residual == max(both.detail["elliptic"], both.detail["elliptic-hat"])

    @pytest.mark.parametrize("n", [3, 6])
    def test_ill_conditioned_scan_cell_passes(self, capsys, n):
        # cell [1, 2] has cond(Rhat) ~ 1e8 at N = 3; a numerical inverse of
        # Rhat21(1/z) left 1.2e-8 (N = 3) and 6.4e-7 (N = 6) there
        argv = ["scan", "--n", str(n), "--check", "quasi-periodicity", "--kind", "elliptic",
                "--grid", "3x3", "--seed", "1", "--format", "json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["reports"]
        assert len(rows) == 9
        assert max(row["residual"] for row in rows) <= 1e-13


# The scan draws that fail at every revision so far (ROADMAP, known failing draws):
# unitarity at cell [1, 2] of the seed-1 3x3 grid, where max(|R12| |R21|) is about
# 3e7 and the identity cancels; residuals 4.13e-8, 3.49e-8, 9.81e-7 and 9.67e-7.
KNOWN_FAILING_SCANS = [(3, "elliptic"), (3, "elliptic-hat"), (6, "elliptic"), (6, "elliptic-hat")]


def known_failing_scan_argv(n: int, kind: str) -> list[str]:
    return ["scan", "--n", str(n), "--check", "unitarity", "--kind", kind,
            "--grid", "3x3", "--seed", "1", "--format", "json"]


@pytest.mark.parametrize("n, kind", KNOWN_FAILING_SCANS)
def test_known_failing_scan_fails_exactly_its_row(capsys, n, kind):
    assert main(known_failing_scan_argv(n, kind)) == 1
    rows = json.loads(capsys.readouterr().out)["reports"]
    assert len(rows) == 9
    failed = [(row["check"], row["detail"]["cell"]) for row in rows if not row["passed"]]
    assert failed == [(f"unitarity[{kind}]", [1, 2])]


# the verify-n3 workload's first invocation at bench seed 1 (bench/run.py's ellr_argv)
VERIFY_N3_ARGV = [
    "verify", "--n", "3", "--points", "10", "--format", "json", "--seed", "2142019524",
    "--q=-0.51516495763854764-0.19262675416793329i",
    "--p=-0.22064090143665704-0.16414198918381429i",
]

_PARAMETER_ONLY = {
    "regularity": "check_regularity",
    "kernel-structure": "check_kernel_structure",
    "spectrum-nonelliptic": "check_spectrum_nonelliptic",
}


def _counted_builds(monkeypatch) -> list:
    """Record each successful ``property_suite.build_r`` call as (context number,
    params, kind, log z), numbering the PointContexts in order of creation."""
    real_build, real_init = ps.build_r, ps.PointContext.__init__
    contexts, builds = [0], []

    def init(self):
        contexts[0] += 1
        real_init(self)

    def build_r(params, kind, log_z, **kwargs):
        op = real_build(params, kind, log_z, **kwargs)
        builds.append((contexts[0], params, kind, log_z))
        return op

    monkeypatch.setattr(ps.PointContext, "__init__", init)
    monkeypatch.setattr(ps, "build_r", build_r)
    return builds


def _counted_tables(monkeypatch) -> list:
    """Record each z-table a PointContext computes as (context number, params,
    log z), numbering the PointContexts in order of creation."""
    real_tables, real_init = ps._ZTables, ps.PointContext.__init__
    contexts, tables = [0], []

    def init(self):
        contexts[0] += 1
        real_init(self)

    def z_tables(params, z):
        computed = real_tables(params, z)
        tables.append((contexts[0], params, z))
        return computed

    monkeypatch.setattr(ps.PointContext, "__init__", init)
    monkeypatch.setattr(ps, "_ZTables", z_tables)
    return tables


class TestPointContext:
    def test_verify_builds_each_matrix_once_per_point(self, monkeypatch, capsys):
        builds = _counted_builds(monkeypatch)
        assert main(VERIFY_N3_ARGV) == 0
        capsys.readouterr()
        assert len(set(builds)) == len(builds)
        # the suite's share of the call's 404 builds (481 before the memo, 465 of
        # them in the suite); the qdet block builds through qdet_engine
        assert len(builds) == 388
        assert {point for point, *_ in builds} == set(range(1, 12))  # 10 points, then "once"

    def test_verify_computes_each_z_table_once_per_point(self, monkeypatch, capsys):
        tables = _counted_tables(monkeypatch)
        builds = _counted_builds(monkeypatch)
        assert main(VERIFY_N3_ARGV) == 0
        capsys.readouterr()
        assert len(set(tables)) == len(tables)
        elliptic = [(point, params, z) for point, params, kind, z in builds
                    if kind in (RKind.ELLIPTIC, RKind.ELLIPTIC_HAT)]
        # every elliptic-kind build of the suite reads its point's table; the
        # second kind at a (params, z) finds it computed
        assert set(tables) == set(elliptic)
        # the suite's 196 elliptic-kind builds read 126 tables; the qdet block
        # builds its 10 hat matrices through qdet_engine, without a context
        assert (len(elliptic), len(tables)) == (196, 126)

    def test_json_equals_a_run_without_the_memo(self, monkeypatch, capsys):
        assert main(VERIFY_N3_ARGV) == 0
        memoised = capsys.readouterr().out
        monkeypatch.setattr(ps.PointContext, "build",
                            lambda self, params, kind, log_z: ps.build_r(params, kind, log_z))
        assert main(VERIFY_N3_ARGV) == 0
        assert capsys.readouterr().out == memoised

    def test_parameter_only_entries_are_the_table_entries_without_points(self):
        assert {key for key, check in ps.CHECKS.items()
                if check.scope == "point" and not check.drawn} == set(_PARAMETER_ONLY)

    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed-params", "fresh-params"])
    def test_parameter_only_checks_run_once_per_suite_with_fixed_params(self, monkeypatch, fixed):
        calls = []
        for function in _PARAMETER_ONLY.values():
            real = getattr(ps, function)
            monkeypatch.setattr(ps, function,
                                lambda *a, _real=real, **k: calls.append(_real) or _real(*a, **k))
        params = draw_params(np.random.default_rng(31), 3) if fixed else None
        reports = run_suite(3, seed=32, n_points=3, params=params)
        assert len(calls) == 3 * (1 if fixed else 3)
        for key, function in _PARAMETER_ONLY.items():
            rows = [r for r in reports if r.name.partition("[")[0] == key]
            assert len(rows) == 3, key
            if fixed:  # the first run's report, equal to a fresh run's at every point
                fresh = ps.CHECKS[key].run(params, RKind.ELLIPTIC)
                for row in rows:
                    assert row is rows[0]
                    assert (row.residual, row.detail, row.sample_points) == (
                        fresh.residual, fresh.detail, fresh.sample_points)

    def test_a_build_that_raises_is_not_kept(self, monkeypatch):
        calls = _pole_on_first_build(monkeypatch)
        params = draw_params(np.random.default_rng(33), 3)
        lz = draw_log(np.random.default_rng(34))
        context = ps.PointContext()
        with pytest.raises(PoleError):
            context.build(params, RKind.ELLIPTIC, lz)
        op = context.build(params, RKind.ELLIPTIC, lz)
        assert context.build(params, RKind.ELLIPTIC, lz) is op
        assert len(calls) == 2

    def test_a_table_that_raises_is_not_kept(self, monkeypatch):
        real, calls = ps._ZTables, []

        def z_tables(params, z):
            calls.append(z)
            if len(calls) == 1:
                raise PoleError("first table", argument=1.0)
            return real(params, z)

        monkeypatch.setattr(ps, "_ZTables", z_tables)
        params = draw_params(np.random.default_rng(37), 3)
        lz = draw_log(np.random.default_rng(38))
        context = ps.PointContext()
        with pytest.raises(PoleError):
            context.build(params, RKind.ELLIPTIC, lz)
        context.build(params, RKind.ELLIPTIC_HAT, lz)
        context.build(params, RKind.ELLIPTIC, lz)
        assert len(calls) == 2

    def test_the_kind_scalar_raises_before_the_table_is_computed(self, monkeypatch):
        tables = _counted_tables(monkeypatch)

        def kappa_pole(params, log_z2):
            raise PoleError("kappa denominator vanished", argument=1.0)

        monkeypatch.setattr(rmatrix_builders, "kappa_inv", kappa_pole)
        params = draw_params(np.random.default_rng(39), 3)
        lz = draw_log(np.random.default_rng(40))
        context = ps.PointContext()
        with pytest.raises(PoleError, match="kappa"):
            context.build(params, RKind.ELLIPTIC, lz)
        assert tables == []
        context.build(params, RKind.ELLIPTIC_HAT, lz)
        assert len(tables) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_shared_tables_give_the_bits_of_a_build_alone(self, n):
        rng = np.random.default_rng(41 + n)
        params = draw_params(rng, n)
        context = ps.PointContext()
        plain, hat = RKind.ELLIPTIC, RKind.ELLIPTIC_HAT
        for lz, kinds in ((draw_log(rng), (plain, hat)), (draw_log(rng), (hat, plain))):
            for kind in kinds:
                alone = build_r(params, kind, lz).entries
                assert np.array_equal(context.build(params, kind, lz).entries, alone), (kind, lz)
        # at z = q the hat kind is finite, and the plain kind's kappa has a pole,
        # its gamma quotient's, that still fires with the table computed
        lq = params.log_q
        alone = build_r(params, hat, lq).entries
        assert np.array_equal(context.build(params, hat, lq).entries, alone)
        with pytest.raises(PoleError, match="elliptic gamma"):
            context.build(params, plain, lq)

    def test_key_carries_the_params(self):
        params = draw_params(np.random.default_rng(35), 3)
        shrunk = dataclasses.replace(params, log_p=principal_log(1e-4))
        lz = draw_log(np.random.default_rng(36))
        context = ps.PointContext()
        here, there = (context.build(pr, RKind.ELLIPTIC_HAT, lz) for pr in (params, shrunk))
        assert not np.array_equal(here.entries, there.entries)
        assert np.array_equal(there.entries, build_r(shrunk, RKind.ELLIPTIC_HAT, lz).entries)
