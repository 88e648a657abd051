"""Acceptance gate: the nine headline guarantees, one pass/fail line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers so a teed pytest log doubles as the acceptance record.
"""

import cmath
import math
import time

import numpy as np

from elliptic_rmatrix import (
    CHECKS,
    ModelParams,
    RKind,
    build_r,
    principal_log,
    run_suite,
)
from elliptic_rmatrix.cli import main
from elliptic_rmatrix.property_suite import draw_log, draw_params
from identities import closed_form_q_spread, theta_shift_residual

lc = principal_log


def emit(criterion: int, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    return passed


def test_criterion_1_theta_self_tests():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        a = lc(rng.uniform(0.05, 0.6) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        z = lc(rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        worst = max(worst, theta_shift_residual(z, a, int(rng.integers(1, 4))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 1.0
    assert emit(1, ok, f"theta identities, 50 draws, worst {worst:.2e} (< 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_2_eight_vertex_cross_check():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    done = 0
    while done < 20:
        params = draw_params(rng, 2)
        z = draw_log(rng)
        a = build_r(params, RKind.ELLIPTIC, z).entries
        b = build_r(params, RKind.EIGHT_VERTEX, z).entries
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(a))))
        done += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 5.0
    assert emit(2, ok, f"N=2 elliptic vs 8-vertex, 20 draws, worst {worst:.2e} (< 1e-12), {elapsed:.2f}s (< 5s)")


def test_criterion_3_identity_suite():
    started = time.perf_counter()
    families = (
        "ybe[",
        "unitarity[",
        "regularity[",
        "crossing",
        "antisymmetry",
        "quasi-periodicity",
        "h-invariance[",
        "crossing-unitarity",
    )
    worst = 0.0
    counted = {f: 0 for f in families}
    for n in (2, 3):
        for report in run_suite(n, seed=303, n_points=10):
            for family in families:
                if report.name.startswith(family):
                    if family == "crossing" and report.name.startswith("crossing-unitarity"):
                        continue
                    counted[family] += 1
                    worst = max(worst, report.residual)
                    break
    rng = np.random.default_rng(304)
    params4 = draw_params(rng, 4)
    n4 = CHECKS["ybe"].run(params4, RKind.ELLIPTIC, (draw_log(rng), draw_log(rng), draw_log(rng)))
    worst = max(worst, n4.residual)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 60.0 and all(c >= 10 for c in counted.values())
    assert emit(
        3,
        ok,
        f"8-check suite N=2,3 x10 points + YBE N=4, worst {worst:.2e} (< 1e-8), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_kernel_rank_spectrum():
    ok = True
    pieces = []
    for n in (2, 3, 4):
        params = draw_params(np.random.default_rng(400 + n), n)
        kernel = CHECKS["kernel-structure"].run(params, RKind.ELLIPTIC)
        spectrum = CHECKS["spectrum-nonelliptic"].run(params, RKind.ELLIPTIC)
        expected_rank = n * n - n * (n - 1) // 2
        rank_ok = kernel.detail["rank"] == expected_rank
        kernel_ok = kernel.detail["kernel_residual"] < 1e-9
        colsym_ok = kernel.detail["column_symmetry_residual"] < 1e-11
        spec_ok = spectrum.residual < 1e-9
        ok = ok and rank_ok and kernel_ok and colsym_ok and spec_ok
        pieces.append(
            f"N={n} rank {kernel.detail['rank']}/{expected_rank}"
            f" kern {kernel.detail['kernel_residual']:.1e}"
            f" colsym {kernel.detail['column_symmetry_residual']:.1e}"
            f" spectrum {spectrum.residual:.1e}"
        )
    assert emit(4, ok, "R-hat(q) kernel facts: " + "; ".join(pieces))


def test_criterion_5_gradations():
    ok = True
    worst = 0.0
    for n in (2, 3):
        rng = np.random.default_rng(500 + n)
        params = draw_params(rng, n)
        gauge = CHECKS["gauge-relation"].run(params, RKind.ELLIPTIC, (draw_log(rng), draw_log(rng)))
        twist = CHECKS["twist-relation"].run(params, RKind.ELLIPTIC, (draw_log(rng),))
        worst = max(worst, gauge.residual, twist.residual)
        ok = ok and gauge.residual < 1e-10 and twist.residual < 1e-10
    nsigma = CHECKS["nsigma"].run(params, RKind.ELLIPTIC, n_max=5)
    ok = ok and nsigma.residual == 0.0
    assert emit(
        5,
        ok,
        f"gauge/twist worst {worst:.2e} (< 1e-10); n_sigma over S_2..S_5 exactly {nsigma.residual}",
    )


def test_criterion_6_p_to_zero():
    ok = True
    pieces = []
    for n in (2, 3):
        rng = np.random.default_rng(600 + n)
        params = draw_params(rng, n)
        report = CHECKS["p-to-zero"].run(params, RKind.ELLIPTIC, (draw_log(rng),))
        seq = report.detail["residual_sequence"]
        monotone = all(b < a for a, b in zip(seq, seq[1:]))
        scalar = report.detail["fitted_scalar"]
        ok = ok and monotone and report.passed
        pieces.append(
            f"N={n} residuals {seq[0]:.1e}->{seq[-1]:.1e}"
            f" support {report.residual:.1e} s={scalar.real:.9f}{scalar.imag:+.1e}i"
        )
    assert emit(6, ok, "p->0 monotone with fitted scalar recorded: " + "; ".join(pieces))


def test_criterion_7_quantum_determinant():
    ok = True
    pieces = []
    n3_elapsed = 0.0
    for n in (2, 3):
        started = time.perf_counter()
        rng = np.random.default_rng(700 + n)
        params = draw_params(rng, n)
        z = draw_log(rng)
        reports = CHECKS["qdet"].run(params, RKind.ELLIPTIC_HAT, (z,))
        dev = {r.name[len("qdet["):-1]: r.residual for r in reports}
        identity_tol = 1e-8 if n == 2 else 1e-7
        z_used = lc(reports[0].sample_points[0])
        q_spread = closed_form_q_spread(params, z_used, draw_log(rng, (0.3, 0.8)))
        three_way = max(
            dev["product_vs_closed_form"],
            dev["product_vs_sum_formula"],
            dev["sum_formula_vs_closed_form"],
        )
        ok = (
            ok
            and dev["product_vs_identity"] < identity_tol
            and dev["closed_form_vs_identity"] < 1e-8
            and dev["closed_form_spread"] < 1e-8
            and q_spread < 1e-8
            and three_way < 1e-7
            and dev["nonelliptic_sum_vs_identity"] < 1e-9
        )
        elapsed = time.perf_counter() - started
        if n == 3:
            n3_elapsed = elapsed
            ok = ok and elapsed < 120.0
        pieces.append(
            f"N={n} M-vs-I {dev['product_vs_identity']:.1e} m_k-vs-1 "
            f"{dev['closed_form_vs_identity']:.1e} 3way {three_way:.1e} "
            f"q-indep {q_spread:.1e} nonell {dev['nonelliptic_sum_vs_identity']:.1e}"
        )
    assert emit(7, ok, "; ".join(pieces) + f"; N=3 block {n3_elapsed:.2f}s (< 120s)")


def test_criterion_8_canary():
    rng = np.random.default_rng(800)
    params = draw_params(rng, 3)
    report = CHECKS["transpose-symmetry"].run(params, RKind.ELLIPTIC, (draw_log(rng),))
    ok = (not report.passed) and report.residual > 1e-3
    assert emit(
        8, ok, f"R^(t1 t2) != R at N=3: residual {report.residual:.2e} (> 1e-3), reported as failure"
    )


def test_criterion_9_determinism(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--n", "2", "--seed", "909", "--points", "2", "--format", "json"]
    code1 = main(args + ["--out", str(f1)])
    code2 = main(args + ["--out", str(f2)])
    identical = f1.read_bytes() == f2.read_bytes()
    ok = identical and code1 == 0 and code2 == 0
    assert emit(
        9,
        ok,
        f"same-seed verify runs byte-identical: {identical} ({f1.stat().st_size} bytes each)",
    )
