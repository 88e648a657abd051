"""The float64 pipeline against the independent 50-digit oracle of tests/oracle.py.

Each class of point has a bound for each group of values - scalars (theta, 1/kappa,
the hat scalar, tau, U, rho, the powers of V and F; relative), matrix entries (largest
entry error over the largest entry) and the closed-form m_k - at most five times the
largest error measured on the class, which is noted beside it, and held at each point
of the class as a test of its own."""

import ast
import cmath
import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from elliptic_rmatrix import ModelParams, RKind, principal_log, qdet_engine, rmatrix_builders
from elliptic_rmatrix.cli import main
from elliptic_rmatrix.special_functions import theta, theta_array
from oracle import DIGITS, Oracle
from oracle import theta as oracle_theta
from test_property_suite import KNOWN_FAILING_SCANS, known_failing_scan_argv
from test_qdet import KNOWN_FAILING_ARGV

# each scalar through its module, so that a patched one is compared; the oracle's method
SCALARS = {
    "kappa_inv": (lambda params, z: rmatrix_builders.kappa_inv(params, 2 * z), "kappa_inv"),
    "hat scalar": (lambda params, z: rmatrix_builders._hat_scalar_kappa(params, z), "hat_scalar"),
    "tau": (lambda params, z: rmatrix_builders.tau(params, z), "tau"),
    "U": (lambda params, z: rmatrix_builders.u_scalar(params, z), "u"),
    "rho": (lambda params, z: rmatrix_builders.rho(params, z), "rho"),
}

# (N, q, p, z) at generic points: N = 2..6, |p| up to 0.9
GENERIC = [
    (2, 0.45 + 0.3j, 0.3 - 0.2j, 1.3 + 0.4j),
    (3, 0.5 * cmath.exp(1.0j), 0.9 * cmath.exp(0.5j), 0.8 - 0.5j),
    (3, 0.41 + 0.13j, 0.17 - 0.06j, 1.21 + 0.34j),
    (4, 0.62 - 0.1j, 0.05 + 0.6j, -1.1 + 0.9j),
    (5, 0.7j, -0.75 + 0.1j, 0.6 + 0.3j),
    (6, 0.5 + 0.2j, 0.9 * cmath.exp(2.0j), 0.9 + 0.7j),
]
# the gamma-bound case of tier-1's qdet tests: the hat scalar reaches 6.3e41 at z
# and 1/kappa 3.7e41, and exp(log series) loses digits with the size of the log
GAMMA_BOUND = (3, 0.3 + 0.1j, 0.9j, 0.0449 * cmath.exp(0.3j))
# a relative step off a lattice point: each guarded denominator is then 1e-10 to
# 7e-10 of its scale, 100 to 700 times POLE_GUARD, and float64 keeps about 1e-16 / NEAR
NEAR = 1e-10


def logs(n, q, p, z):
    return n, principal_log(q), principal_log(p), principal_log(z)


GENERIC_LOGS = [logs(*point) for point in GENERIC]
oracle = functools.lru_cache(maxsize=None)(Oracle)  # one per (N, log q, log p)


def rel(got, want) -> float:
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpc(complex(got)) - want) / abs(want))


def matrix_rel(got: np.ndarray, want) -> float:
    with mpmath.workdps(DIGITS):
        scale = max(abs(w) for row in want for w in row)
        return float(max(abs(mpmath.mpc(complex(g)) - w)
                         for g_row, w_row in zip(got, want) for g, w in zip(g_row, w_row)) / scale)


KINDS = {kind.value for kind in RKind}


def group(value) -> str:
    """The group of values whose bound ``value`` is held to."""
    return "entries" if value in KINDS else "m_k" if value == "m_k" else "scalars"


def errors(point, values) -> dict[str, tuple[float, str]]:
    """The largest error of each group of ``values`` at ``point``, (N, log q, log p, log z)
    and, where the oracle takes other logs than the pipeline, those three; with the value
    that sets it. ``values`` names SCALARS, kinds, "theta", "V", "F" and "m_k"."""
    n, log_q, log_p, log_z, *exact = point
    exact_q, exact_p, exact_z = exact[0] if exact else (log_q, log_p, log_z)
    params, model = ModelParams(n, log_q, log_p), oracle(n, exact_q, exact_p)
    found: dict[str, tuple[float, str]] = {}

    def add(error, name):
        found[group(name)] = max(found.get(group(name), (0.0, "")), (error, name))

    for name in values:
        if name in SCALARS:
            ours, theirs = SCALARS[name]
            add(rel(ours(params, log_z), getattr(model, theirs)(exact_z)), name)
        elif name in KINDS:
            got = rmatrix_builders.build_r(params, RKind.from_tag(name), log_z).entries
            add(matrix_rel(got, model.entries(name, log_z)), name)
        elif name == "theta":
            args = np.array([log_z, -log_z, log_q + 2 * log_z])
            for base in (log_p, n * log_p, 2 * n * log_q):
                with mpmath.workdps(DIGITS):
                    want = [oracle_theta(mpmath.exp(mpmath.mpc(u)), mpmath.exp(base)) for u in args]
                for got in ([theta(complex(u), base) for u in args], theta_array(args, base)):
                    add(max(map(rel, got, want)), name)
        elif name in ("V", "F"):
            got = rmatrix_builders.build_v(params, log_z) if name == "V" else rmatrix_builders.build_f(params)
            want = model.v(log_z) if name == "V" else model.f()
            add(max(map(rel, np.diag(got.entries), want)), name)
        else:
            got = qdet_engine.qdet_closed_form(params, log_z)
            add(max(map(rel, got, model.m(log_z))), name)
    return found


def generic_class():
    return [(point, ["theta", *SCALARS, "V", "F", "m_k", *(k.value for k in RKind if k.exists_at(point[0]))])
            for point in GENERIC_LOGS]


def z_one_class():
    """The plain kinds' regularity point, R(1) = P; the hat and rho have poles there.
    1/kappa(1) is 1, and the pipeline's is 1 exactly but at the N = 6 point, 1 + 3.6e-17i."""
    return [((n, lq, lp, 0j), ["kappa_inv", "elliptic", *(["eightvertex"] if n == 2 else [])])
            for n, lq, lp, _ in GENERIC_LOGS]


def z_q_class():  # the hat's degeneration point, where tau's zero meets kappa's pole
    return [((n, lq, lp, lq), ["hat scalar", "tau", "rho", "elliptic-hat", "homogeneous",
                               "principal", "nonelliptic"])
            for n, lq, lp, _ in GENERIC_LOGS]


def near_pole_class():
    """Next to the lattice points that the guards watch: eta's Theta_p(q^2 z^2) at z = 1/q,
    S's Theta_{p^N}(p^{N-1} z^2) at z^2 = p, the hat's Theta_Q(z^2) at z = 1, and kappa's
    Gamma(q^2 z^{-2}) at z = q, with the Gamma p-shift's theta_Q guard."""
    return [((n, lq, lp, at + NEAR), values)
            for n, lq, lp, _ in GENERIC_LOGS[:5]
            for at, values in ((-lq, ["elliptic", "elliptic-hat"]), (lp / 2, ["elliptic", "elliptic-hat"]),
                               (0j, ["hat scalar", "U", "elliptic-hat"]),
                               (lq, ["kappa_inv", "elliptic"]))]


def gamma_bound_class():
    """1/kappa at z and the hat scalar at w = z q^-j, j = 0..2, next to the q-shifted points
    the qdet routes build; at the float inputs themselves, the oracle taking their logs at
    50 digits, so principal_log's rounding is part of the error."""
    n, q, p, z = GAMMA_BOUND
    with mpmath.workdps(DIGITS):
        exact = [mpmath.log(mpmath.mpc(x)) for x in (q, p)]
        return [(logs(n, q, p, w) + ((*exact, mpmath.log(mpmath.mpc(w))),), [value])
                for w, value in [(z, "kappa_inv")] + [(z * q**-j, "hat scalar") for j in range(3)]]


@functools.lru_cache(maxsize=None)
def report_rows(argv: tuple[str, ...]) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return json.loads(out.getvalue())["reports"]


def row_point(row, z):
    """(N, log q, log p, log z) of a report row's parameters at its sample point z."""
    params = row["params"]
    return logs(params["N"], complex(*params["q"]), complex(*params["p"]), complex(*z))


def qdet_point(seed, i):
    """The i-th point of a known failing qdet draw, as its report prints it."""
    rows = [row for row in report_rows(tuple(KNOWN_FAILING_ARGV[seed])) if row["sample_points"]]
    return row_point(rows[0], list(dict.fromkeys(tuple(row["sample_points"][0]) for row in rows))[i])


def scan_point(n, kind, sign):
    """A known failing scan's failing cell at z (sign 1) or 1/z (sign -1), from its report."""
    row = next(row for row in report_rows(tuple(known_failing_scan_argv(n, kind))) if not row["passed"])
    n, lq, lp, lz = row_point(row, *row["sample_points"])
    return n, lq, lp, sign * lz


def known_failing_class():
    """Every known failing draw: the closed form at each point of the qdet draws, and
    at the failing cells of the scans the matrices whose unitarity fails, at z and 1/z.
    Each point is a function, called when it is compared, since its command runs then."""
    return ([(functools.partial(qdet_point, seed, i), ["m_k"]) for seed, argv in KNOWN_FAILING_ARGV.items()
             for i in range(int(argv[argv.index("--points") + 1]))]
            + [(functools.partial(scan_point, n, kind, sign), [kind])
               for n, kind in KNOWN_FAILING_SCANS for sign in (1, -1)])


# class: (its points, {group: (bound, the largest error measured)})
CLASSES = {
    "generic": (generic_class, {"scalars": (2e-14, 5.3e-15), "entries": (3e-14, 8.9e-15),
                                "m_k": (1e-13, 2.7e-14)}),
    "z = 1": (z_one_class, {"scalars": (1e-16, 3.6e-17), "entries": (5e-15, 1.7e-15)}),
    "z = q": (z_q_class, {"scalars": (5e-15, 1.7e-15), "entries": (2e-14, 6.6e-15)}),
    "next to a pole": (near_pole_class, {"scalars": (5e-7, 1.7e-7), "entries": (1e-5, 2.4e-6)}),
    "gamma bound": (gamma_bound_class, {"scalars": (1e-13, 6.7e-14)}),
    "known failing": (known_failing_class, {"entries": (1.5e-14, 3.5e-15), "m_k": (1e-8, 2.1e-9)}),
}


@pytest.mark.parametrize("name, point, values", [
    pytest.param(name, point, values, id=f"{name}-{i}")
    for name, (points, _) in CLASSES.items() for i, (point, values) in enumerate(points())])
def test_pipeline_matches_the_oracle(name, point, values):
    point = point() if callable(point) else point
    bounds = CLASSES[name][1]
    for group_name, (error, value) in errors(point, values).items():
        assert error <= bounds[group_name][0], (group_name, value, error)


@pytest.mark.parametrize("name", CLASSES)
def test_a_class_compares_exactly_the_groups_it_bounds(name):
    points, bounds = CLASSES[name]
    assert {group(value) for _, values in points() for value in values} == set(bounds)


def test_the_oracle_closed_form_is_one():
    # the determinant is 1: the oracle's own m_k, summed over S_N at 50 digits, say so
    for n, lq, lp, lz in GENERIC_LOGS:
        with mpmath.workdps(DIGITS):
            assert max(abs(m - 1) for m in oracle(n, lq, lp).m(lz)) < 1e-20


def test_oracle_imports_nothing_but_mpmath_and_the_standard_library():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.add(node.module.partition(".")[0])
    assert "mpmath" in imported and imported - {"mpmath"} <= sys.stdlib_module_names, imported


# each mutation moves a value of the generic class past its bound
def scaled_hat_scalar(monkeypatch):
    real = rmatrix_builders._hat_scalar_kappa
    monkeypatch.setattr(rmatrix_builders, "_hat_scalar_kappa", lambda *args: real(*args) * (1 + 1e-10))


def ratio_offset_by_one(monkeypatch):
    def ratio(self, a, b, c):  # num read one offset up, wrapping at the table's end
        i, j, k = c - a - self.start, c - b - self.start, b - a - self.start
        num = complex(self.num[(i + 1) % self.num.size])
        return num / (complex(self.den_z[j]) * complex(self.den_q[k]))
    monkeypatch.setattr(rmatrix_builders._SThetas, "ratio", ratio)


def q_shift_dropped(monkeypatch):
    real = qdet_engine._q_shifted
    monkeypatch.setattr(qdet_engine, "_q_shifted", lambda params, z: [z] + real(params, z)[:-1])


@pytest.mark.parametrize("mutate, group", [
    (scaled_hat_scalar, "entries"), (ratio_offset_by_one, "m_k"), (q_shift_dropped, "m_k")])
def test_a_mutation_fails_the_generic_class(monkeypatch, mutate, group):
    mutate(monkeypatch)
    bound = CLASSES["generic"][1][group][0]
    assert any(errors(point, values)[group][0] > bound for point, values in generic_class()[:2])
