"""Command-line front door for batch verification and matrix dumps.

Five subcommands: ``verify`` runs the full identity suite plus the quantum
determinant block for one N; ``matrix`` dumps any R-matrix kind entrywise;
``qdet`` evaluates the determinant routes over z-points; ``limits`` tables
the p -> 0 residuals; ``scan`` re-runs a named check over a (|q|, |p|)
grid.  Reports serialize to json, csv, or text with a format-stable field
set, carry the seed and library version, and are byte-identical across runs
with the same seed (timings are zeroed unless --timings is given).

Exit codes: 0 success; 1 at least one check failed (or a must-fail canary
failed to fail); 2 configuration error; 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EllipticRMatrixError,
    KindError,
    PoleError,
    SizeError,
    TruncationError,
)
from .special_functions import ABS_FLOOR, MAX_TERMS, principal_log
from .tensor_algebra import matrix_dump_rows
from .rmatrix_builders import ModelParams, RKind, build_r
from .property_suite import (
    CANARY_MARGIN,
    CHECKS,
    P_MODULUS,
    Q_MODULUS,
    Z_MODULUS,
    PropertyReport,
    draw_log,
    draw_params,
    effective_pass,
    error_report,
    run_suite,
)
from .qdet_engine import _check_product_cap

__all__ = ["RunConfig", "main", "parse_complex_literal"]

# scan's largest arrays have N^6 complex entries: ybe's embedded three-slot
# factors and evaluated-ll's block products; 2^24 entries are 256 MiB
MAX_SCAN_ENTRIES = 2**24


@dataclass
class RunConfig:
    """Parsed command-line invocation."""

    command: str
    n: int = 2
    q: complex | None = None  # None = draw from the sampling annulus
    p: complex | None = None
    z: complex | None = None
    w: complex | None = None
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    fmt: str = "text"
    kind: str = "elliptic"
    p_seq: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-8)
    grid: tuple[int, int] = (4, 4)
    check: str = "ybe"
    points: int | None = None
    timings: bool = False


def parse_complex_literal(text: str) -> complex | None:
    """Parse "a+bi" (decimal reals, i or j suffix) or "random" (-> None)."""
    stripped = text.strip().lower()
    if stripped == "random":
        return None
    normalized = stripped.replace(" ", "").replace("i", "j")
    try:
        value = complex(normalized)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex literal {text!r}; expected a+bi or random") from exc
    if not cmath.isfinite(value):
        raise ConfigError(f"complex literal {text!r} is not finite in float64")
    return value


def _format_complex(value: complex) -> str:
    return f"{value.real:.17g}{value.imag:+.17g}i"


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


_JSON_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_NAMES = {None: "null", True: "true", False: "false"}


def _json_float(value: float) -> str:
    """A float as json writes it: ``float.__repr__``, with NaN and the
    infinities by their JavaScript names."""
    text = float.__repr__(value)
    return _JSON_SPECIAL_FLOATS.get(text, text)


def _json_scalar(obj) -> str | None:
    """json's text for a string, number, bool or None (subclasses included), else None."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _JSON_NAMES[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    return None


def _json_key(key) -> str:
    """A dict key as json converts it to a string."""
    if isinstance(key, str):
        return key
    text = _json_scalar(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return text


# the exact scalar types by their writers; subclasses go through _json_scalar
_JSON_WRITERS = {
    str: encode_basestring_ascii,
    float: _json_float,
    int: int.__repr__,
    bool: _JSON_NAMES.__getitem__,
    type(None): _JSON_NAMES.__getitem__,
}
_OPEN = object()  # marks a container whose text is being formed


def _json_dumps(document) -> str:
    """``json.dumps(document, sort_keys=True, indent=2)``, byte for byte.

    json runs its pure-Python encoder whenever ``indent`` is set; this writer
    joins strings instead, and forms the text of each container once, so a
    sub-object that recurs at one depth, such as the parameters every row
    of a report shares, is serialized once.  Scalars are written as json
    writes them (:func:`_json_scalar`); dict keys are converted as json
    converts them, after sorting.
    """
    texts: dict[int, object] = {}  # id -> (depth, text), or _OPEN
    writer = _JSON_WRITERS.get
    # layout[d]: a container at depth d opens with first, joins with sep, closes with last
    layout: list[tuple[str, str, str]] = []

    def encode(obj, depth: int) -> str:
        write = writer(type(obj))
        if write is not None:
            return write(obj)
        is_dict = isinstance(obj, dict)
        if not is_dict and not isinstance(obj, (list, tuple)):
            text = _json_scalar(obj)
            if text is None:
                raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
            return text
        if not obj:
            return "{}" if is_dict else "[]"
        seen = texts.get(id(obj))
        if seen is not None:
            if seen is _OPEN:
                raise ValueError("Circular reference detected")
            if seen[0] == depth:
                return seen[1]
        texts[id(obj)] = _OPEN
        while len(layout) <= depth:
            inner = "\n" + "  " * (len(layout) + 1)
            layout.append((inner, "," + inner, "\n" + "  " * len(layout)))
        first, sep, last = layout[depth]
        sub = depth + 1
        # the exact scalar types inline, everything else through encode
        if is_dict:
            text = "{" + first + sep.join([
                encode_basestring_ascii(k if type(k) is str else _json_key(k)) + ": "
                + (write(v) if (write := writer(type(v))) is not None else encode(v, sub))
                for k, v in sorted(obj.items())
            ]) + last + "}"
        else:
            text = "[" + first + sep.join([
                write(v) if (write := writer(type(v))) is not None else encode(v, sub)
                for v in obj
            ]) + last + "]"
        texts[id(obj)] = (depth, text)
        return text

    return encode(document, 0)


def _tolerance_names(args: argparse.Namespace) -> list[str]:
    """The ``--tol`` names the command reads."""
    if args.command == "verify":
        return sorted(CHECKS)
    if args.command == "qdet":
        return ["qdet", *sorted(k for k in CHECKS if k.startswith("qdet."))]
    if args.command == "limits":
        return ["p-to-zero"]
    if args.command == "scan":
        return [args.check]
    return []  # matrix reads no tolerance


def _parse_tolerances(args: argparse.Namespace) -> dict[str, float]:
    overrides: dict[str, float] = {}
    names = _tolerance_names(args)
    for item in args.tol or []:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        if name not in names:
            raise ConfigError(f"unknown --tol name {name!r} for {args.command}; "
                              f"choose from {', '.join(names) or 'none'}")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol value is not a number: {item!r}") from exc
        if not (math.isfinite(overrides[name]) and overrides[name] >= 0.0):
            raise ConfigError(f"--tol value must be finite and non-negative, got {item!r}")
    return overrides


_LOG_FLOAT_MIN = math.log(sys.float_info.min)  # the smallest normal float64
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _product_log_peak(log_arg: float, log_base: float) -> float:
    """log of the largest running value of (x; b)_inf = prod_k (1 - x b^k) at
    ln|x| = ``log_arg`` >= 0 and ln|b| = ``log_base`` < 0: the product of the
    factors |x b^k| >= 1, k = 0 .. m - 1."""
    m = math.floor(log_arg / -log_base) + 1
    return m * log_arg + log_base * (m * (m - 1) / 2)


def _gamma_shift_log_peak(log_arg: float, log_p: float, log_big_q: float) -> float:
    """log of the largest running product of the theta_Q(w) = (w; Q)(Q/w; Q)
    factors that the elliptic gamma's p-shift multiplies at ln|x| = ``log_arg``,
    with ln|p| = ``log_p`` and ln|Q| = ``log_big_q``: the peaks of both
    products summed over its steps w = x p^j, j between 0 and its m."""
    m = round(((log_p + log_big_q) / 2 - log_arg) / log_p)
    peak = 0.0
    for j in range(min(m, 0), max(m, 0)):
        log_w = log_arg + j * log_p
        for log_x in (log_w, log_big_q - log_w):
            if log_x > 0.0:
                peak += _product_log_peak(log_x, log_big_q)
    return peak


def _gamma_quotient_log_peak(log_z: float, n: int, log_q: float, log_p: float) -> float:
    """log of the largest running product that kappa_inv's or the hat scalar's
    gamma quotient forms at ln|z| = ``log_z``, with theta_Q(z^2) on top.

    Both quotients are Gamma(p z^2) / Gamma(p z^-2) times Gamma(x) /
    Gamma(q^2 z^2), x = q^2 z^-2 or p q^2 z^-2; the shifts of one such pair
    multiply into the same running product, zeros or poles.
    """
    big_q, q2, z2 = 2 * n * log_q, 2 * log_q, 2 * log_z

    def shift(log_arg: float) -> float:
        return _gamma_shift_log_peak(log_arg, log_p, big_q)

    first = shift(log_p + z2) + shift(log_p - z2)
    second = max(shift(q2 - z2), shift(log_p + q2 - z2)) + shift(q2 + z2)
    return max(first, second) + _product_log_peak(abs(z2), big_q)


def _check_float_range(config: RunConfig, params: ModelParams) -> None:
    """ConfigError, naming the option, when a --q, --p or --z literal puts what
    the builders form outside float64.

    The builders form the Pochhammer bases Q = q^{2N} and p^N, and powers
    of q and p down to their inverses, so both must be normal floats.  Their
    thetas multiply out factors (1 - x b^k) at arguments x = z^{+-2} q^{+-2}
    times powers of p; the running product must stay finite at the largest
    |ln|x|| = 2 |ln|z|| + 2 |ln|q|| for the base nearest 1, p or Q.  A drawn
    z lies in the sampling annulus, so |ln|z|| <= ln 2 stands for it.  A
    base whose products need more than ``MAX_TERMS`` factors is left to the
    builders' TruncationError.

    The elliptic gamma's p-shift multiplies one theta_Q per step into one
    running product, so the gamma quotients' products must stay finite too,
    at both ends of the ln|w| the builds span: w = z, and for ``qdet`` and
    ``verify``'s qdet rows also w = z q^{-j}, j < N.
    """
    n, log_q, log_p = params.n, params.log_q.real, params.log_p.real
    if config.q is not None and 2 * n * log_q < _LOG_FLOAT_MIN:
        raise ConfigError(f"--q: |q|^{2 * n} underflows float64; at N = {n} |q| must be at "
                          f"least {math.exp(_LOG_FLOAT_MIN / (2 * n)):.3g}")
    if config.p is not None and n * log_p < _LOG_FLOAT_MIN:
        raise ConfigError(f"--p: |p|^{n} underflows float64; at N = {n} |p| must be at "
                          f"least {math.exp(_LOG_FLOAT_MIN / n):.3g}")
    if config.z == 0:
        raise ConfigError("--z must be nonzero")
    z_range = (tuple(map(math.log, Z_MODULUS)) if config.z is None
               else (math.log(abs(config.z)),) * 2)
    log_z = max(map(abs, z_range))
    log_base = max(log_p, 2 * n * log_q)
    if MAX_TERMS * log_base >= math.log(ABS_FLOOR):
        return  # the base's products outrun MAX_TERMS: TruncationError's to report
    peak = _product_log_peak(2 * log_z - 2 * log_q, log_base)
    what = "theta products"
    if peak <= _LOG_FLOAT_MAX:
        spread = -(n - 1) * log_q if config.command in ("qdet", "verify") else 0.0
        lowest, highest = z_range[0], z_range[1] + spread
        peak = max(_gamma_quotient_log_peak(w, n, log_q, log_p) for w in (lowest, highest))
        what = "elliptic gamma's p-shift products"
    if peak > _LOG_FLOAT_MAX:
        given = [name for name, value in (("--q", config.q), ("--p", config.p), ("--z", config.z))
                 if value is not None]
        raise ConfigError(f"{'/'.join(given)}: the {what} at |q| = {math.exp(log_q):.3g}, "
                          f"|p| = {math.exp(log_p):.3g} and |z| or 1/|z| up to {math.exp(log_z):.3g} "
                          f"reach exp({peak:.4g}), beyond float64's exp({_LOG_FLOAT_MAX:.4g})")


def _resolve_params(config: RunConfig, rng: np.random.Generator) -> ModelParams:
    """Build ModelParams from literals or seeded draws; validate early."""
    if config.q is None and config.p is None:
        # redraw until clean of near-degeneracies, like the test suite does
        params = draw_params(rng, config.n)
        _check_float_range(config, params)
        return params
    if config.q is None:
        log_q = draw_log(rng, Q_MODULUS)
    else:
        if abs(config.q) >= 1.0 or config.q == 0:
            raise ConfigError(f"|q| must lie in (0, 1), got {abs(config.q):.6g}")
        log_q = principal_log(config.q)
    if config.p is None:
        log_p = draw_log(rng, P_MODULUS)
    else:
        if abs(config.p) >= 1.0 or config.p == 0:
            raise ConfigError(f"|p| must lie in (0, 1), got {abs(config.p):.6g}")
        log_p = principal_log(config.p)
    # user-pinned parameters get a coarse margin: warn loudly, still run
    params = ModelParams(config.n, log_q, log_p, genericity_margin=0.05)
    _check_float_range(config, params)
    for warning in params.genericity_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    return params


def _resolve_point(literal: complex | None, rng: np.random.Generator) -> complex:
    return draw_log(rng) if literal is None else principal_log(literal)


def _params_payload(params: ModelParams) -> dict:
    return {
        "N": params.n,
        "q": [params.q.real, params.q.imag],
        "p": [params.p.real, params.p.imag],
    }


def _report_row(report: PropertyReport, params_payload: dict, config: RunConfig) -> dict:
    return {
        "check": report.name,
        "params": params_payload,
        "sample_points": [[z.real, z.imag] for z in report.sample_points],
        "residual": report.residual,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "runtime_ms": report.runtime_ms if config.timings else 0.0,
        "seed": config.seed,
        "version": __version__,
        "detail": _jsonable(report.detail),
    }


def _config_payload(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "N": config.n,
        "q": "random" if config.q is None else _format_complex(config.q),
        "p": "random" if config.p is None else _format_complex(config.p),
        "z": "random" if config.z is None else _format_complex(config.z),
        "w": "random" if config.w is None else _format_complex(config.w),
        "seed": config.seed,
        "tolerances": dict(config.tolerances),
        "format": config.fmt,
        "version": __version__,
    }


def _emit_text(payload: str, config: RunConfig) -> None:
    if config.output_path:  # created empty by _config_from_args, so this run's own file
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_reports(rows: list[dict], config: RunConfig) -> None:
    if config.fmt == "json":
        document = {"config": _config_payload(config), "reports": rows}
        _emit_text(_json_dumps(document) + "\n", config)
        return
    if config.fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["check", "N", "q", "p", "sample_points", "residual",
             "tolerance", "passed", "runtime_ms", "seed", "version", "detail"]
        )
        for row in rows:
            params = row["params"]
            writer.writerow(
                [
                    row["check"],
                    params["N"],
                    _format_complex(complex(*params["q"])),
                    _format_complex(complex(*params["p"])),
                    ";".join(_format_complex(complex(*pt)) for pt in row["sample_points"]),
                    f"{row['residual']:.17g}",
                    f"{row['tolerance']:.17g}",
                    row["passed"],
                    f"{row['runtime_ms']:.17g}",
                    row["seed"],
                    row["version"],
                    json.dumps(row["detail"], sort_keys=True),
                ]
            )
        _emit_text(buffer.getvalue(), config)
        return
    lines = []
    for row in rows:
        verdict = "PASS" if row["passed"] else "FAIL"
        if row.get("detail", {}).get("canary"):
            verdict = "CANARY-OK" if row["residual"] > CANARY_MARGIN else "CANARY-BAD"
        lines.append(
            f"{verdict:10s} {row['check']:42s} residual {row['residual']:.3e}"
            f"  tolerance {row['tolerance']:.1e}"
        )
    n_canary = sum(1 for row in rows if row.get("detail", {}).get("canary"))
    n_checks = len(rows) - n_canary
    n_pass = sum(
        1 for row in rows if not row.get("detail", {}).get("canary") and row["passed"]
    )
    lines.append(f"{n_pass}/{n_checks} checks passed; {n_canary} must-fail canaries")
    _emit_text("\n".join(lines) + "\n", config)


def _qdet_rows(
    params: ModelParams, config: RunConfig, rng: np.random.Generator, n_points: int
) -> list[PropertyReport]:
    """The table's qdet rows at each of ``n_points`` points, then, over two or
    more points, the spread of m across them."""
    reports: list[PropertyReport] = []
    m_k_values = []
    for _ in range(n_points):
        rows = CHECKS["qdet"].run(params, RKind.ELLIPTIC_HAT, (_resolve_point(config.z, rng),),
                                  tolerances=config.tolerances, rng=rng)
        m_k_values.append(rows[0].detail["m_k_values"])
        reports += rows
    if n_points > 1:
        reports += CHECKS["qdet.z_spread"].run(params, RKind.ELLIPTIC_HAT,
                                               tolerances=config.tolerances, m_k_values=m_k_values)
    return reports


def run_verify(config: RunConfig) -> int:
    _check_product_cap(config.n)
    rng = np.random.default_rng(config.seed)
    params = _resolve_params(config, rng)
    reports = run_suite(
        config.n,
        config.seed,
        n_points=config.points,
        tolerances=config.tolerances,
        params=params,
    )
    reports += _qdet_rows(params, config, rng, 2)
    points = (draw_log(rng), draw_log(rng))
    reports.append(CHECKS["centrality-witness"].run(params, RKind.ELLIPTIC_HAT, points,
                                                    tolerances=config.tolerances, rng=rng))
    payload = _params_payload(params)
    _emit_reports([_report_row(r, payload, config) for r in reports], config)
    return 0 if all(effective_pass(r) for r in reports) else 1


def run_matrix(config: RunConfig) -> int:
    if config.fmt != "text":
        raise ConfigError(f"matrix writes a text dump only; it takes no --format {config.fmt}")
    if config.timings:
        raise ConfigError("matrix writes a text dump only; it takes no --timings")
    rng = np.random.default_rng(config.seed)
    params = _resolve_params(config, rng)
    log_z = _resolve_point(config.z, rng)
    kind = RKind.from_tag(config.kind)
    op = build_r(params, kind, log_z)
    bad = int(np.count_nonzero(~np.isfinite(op.entries)))
    if bad:
        raise DomainError(f"the {kind.value} matrix has {bad} entries beyond float64 at "
                          f"z = {_format_complex(cmath.exp(log_z))} for these (q, p)")
    header = [
        f"# kind: {kind.value}",
        f"# n: {params.n}",
        f"# q: {_format_complex(params.q)}",
        f"# p: {_format_complex(params.p)}",
        f"# z: {_format_complex(cmath.exp(log_z))}",
        f"# policy: abs_floor={ABS_FLOOR:g}, max_terms={MAX_TERMS}",
        f"# version: {__version__}",
        f"# seed: {config.seed}",
        "# columns: i, j, re, im",
    ]
    _emit_text("\n".join(header) + "\n" + "\n".join(matrix_dump_rows(op)) + "\n", config)
    return 0


def run_qdet(config: RunConfig) -> int:
    _check_product_cap(config.n)
    if config.z is not None and config.points not in (None, 1):
        raise ConfigError(f"qdet --z evaluates that one point; it takes no --points {config.points}")
    rng = np.random.default_rng(config.seed)
    params = _resolve_params(config, rng)
    reports = _qdet_rows(params, config, rng, config.points or (1 if config.z is not None else 5))
    payload = _params_payload(params)
    _emit_reports([_report_row(r, payload, config) for r in reports], config)
    return 0 if all(effective_pass(r) for r in reports) else 1


def run_limits(config: RunConfig) -> int:
    if config.p is not None:
        raise ConfigError("limits builds at each --p-seq value; it takes no --p")
    rng = np.random.default_rng(config.seed)
    params = _resolve_params(config, rng)
    payload = _params_payload(params)
    log_z = _resolve_point(config.z, rng)
    report = CHECKS["p-to-zero"].run(
        params,
        RKind.ELLIPTIC,
        (log_z,),
        tolerances=config.tolerances,
        rng=rng,
        p_sequence=config.p_seq,
    )
    rows = [_report_row(report, payload, config)]
    if config.fmt == "text":
        table = ["# p, full_residual, support_residual"]
        for p_val, full, support in zip(
            report.detail["p_sequence"],
            report.detail["residual_sequence"],
            report.detail["support_residual_sequence"],
        ):
            table.append(f"{p_val:.3e}, {full:.6e}, {support:.6e}")
        table.append(
            f"fitted scalar at smallest p: {_format_complex(report.detail['fitted_scalar'])}"
        )
        verdict = "PASS" if report.passed else "FAIL"
        table.append(f"{verdict} p-to-zero residual {report.residual:.3e} tolerance {report.tolerance:.1e}")
        _emit_text("\n".join(table) + "\n", config)
    else:
        _emit_reports(rows, config)
    return 0 if report.passed else 1


def run_scan(config: RunConfig) -> int:
    if config.q is not None or config.p is not None:
        raise ConfigError("scan draws (q, p) in every grid cell; it takes no --q or --p")
    if config.n**6 > MAX_SCAN_ENTRIES:
        raise SizeError(f"scan at N = {config.n} forms arrays of N^6 = {config.n**6:,} complex "
                        f"entries; the budget is {MAX_SCAN_ENTRIES:,} (N <= 16)")
    rng = np.random.default_rng(config.seed)
    kind = RKind.from_tag(config.kind)
    check = CHECKS[config.check]
    if kind not in check.kinds:
        accepted = ", ".join(k.value for k in check.kinds)
        raise ConfigError(f"--check {config.check} takes --kind {accepted}, not {kind.value}")
    if not kind.exists_at(config.n):
        raise ConfigError(f"--kind {kind.value} has no matrix at N = {config.n}")
    rows_q, rows_p = config.grid
    q_lo, q_hi = Q_MODULUS
    p_lo, p_hi = P_MODULUS
    rows: list[dict] = []
    passed = True
    for iq in range(rows_q):
        for ip in range(rows_p):
            # one (q, p) drawn per rectangle of the modulus grid
            q_mod = q_lo + (q_hi - q_lo) * (iq + rng.uniform(0, 1)) / rows_q
            p_mod = p_lo + (p_hi - p_lo) * (ip + rng.uniform(0, 1)) / rows_p
            for _ in range(9):  # re-spin phases if the cell drew a degenerate pair
                params = ModelParams(
                    config.n, draw_log(rng, (q_mod, q_mod)), draw_log(rng, (p_mod, p_mod))
                )
                if not params.genericity_warnings():
                    break
            points = tuple(draw_log(rng) for _ in check.drawn)
            try:
                report = check.run(params, kind, points, tolerances=config.tolerances, rng=rng)
            except EllipticRMatrixError as exc:
                report = error_report(config.check, exc)
            report.detail["cell"] = [iq, ip]
            passed = passed and effective_pass(report)
            rows.append(_report_row(report, _params_payload(params), config))
    _emit_reports(rows, config)
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellr",
        description="Elliptic R-matrix verification suite and matrix dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--n", type=int, default=2, help="local dimension N")
        cmd.add_argument("--q", default="random", help='complex literal "a+bi" or "random"')
        cmd.add_argument("--p", default="random", help='complex literal "a+bi" or "random"')
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--tol", action="append", metavar="NAME=VALUE",
                         help="tolerance override, repeatable")
        cmd.add_argument("--out", dest="output_path", help="output file (write-once)")
        cmd.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                         default="text")
        cmd.add_argument("--timings", action="store_true",
                         help="record wall-clock runtime_ms in reports")

    verify = sub.add_parser("verify", help="run every check for one N")
    common(verify)
    verify.add_argument("--points", type=int, default=10, help="random points per check")

    matrix = sub.add_parser("matrix", help="dump one R-matrix entrywise")
    common(matrix)
    matrix.add_argument("--kind", choices=[k.value for k in RKind], default="elliptic")
    matrix.add_argument("--z", default="random")

    qdet = sub.add_parser("qdet", help="quantum determinant over z-points")
    common(qdet)
    qdet.add_argument("--z", default="random")
    qdet.add_argument("--points", type=int, help="random z-points (default 5; one with --z)")

    limits = sub.add_parser("limits", help="p -> 0 residual table")
    common(limits)
    limits.add_argument("--z", default="random")
    limits.add_argument("--p-seq", dest="p_seq", default="1e-2,1e-4,1e-6,1e-8",
                        help="comma-separated decreasing p values")

    scan = sub.add_parser("scan", help="re-run a named check over a (|q|,|p|) grid")
    common(scan)
    scan.add_argument("--check", choices=sorted(k for k, c in CHECKS.items() if c.kinds),
                      default="ybe")
    scan.add_argument("--kind", choices=[k.value for k in RKind], default="elliptic")
    scan.add_argument("--grid", default="4x4", help="ROWSxCOLS rectangles")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.n = args.n
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    config.seed = args.seed
    config.tolerances = _parse_tolerances(args)
    config.output_path = args.output_path
    config.fmt = args.fmt
    config.timings = args.timings
    config.q = parse_complex_literal(args.q)
    config.p = parse_complex_literal(args.p)
    if hasattr(args, "z"):
        config.z = parse_complex_literal(args.z)
    if hasattr(args, "kind"):
        config.kind = args.kind
    if hasattr(args, "points"):
        if args.points is not None and args.points < 1:
            raise ConfigError(f"--points must be positive, got {args.points}")
        config.points = args.points
    if hasattr(args, "check"):
        config.check = args.check
    if hasattr(args, "p_seq"):
        try:
            config.p_seq = tuple(float(v) for v in args.p_seq.split(","))
        except ValueError as exc:
            raise ConfigError(f"--p-seq must be comma-separated floats, got {args.p_seq!r}") from exc
    if hasattr(args, "grid"):
        try:
            rows, _, cols = args.grid.lower().partition("x")
            config.grid = (int(rows), int(cols))
        except ValueError as exc:
            raise ConfigError(f"--grid must look like 4x4, got {args.grid!r}") from exc
        if config.grid[0] < 1 or config.grid[1] < 1:
            raise ConfigError("--grid dimensions must be positive")
    if config.n < 2:
        raise ConfigError("N must be at least 2")
    if config.output_path:
        # created here, before any computation, and only if absent ("x"), so
        # write-once holds for the whole run; _run removes it if the command raises
        try:
            open(config.output_path, "x").close()
        except FileExistsError:
            raise ConfigError(
                f"refusing to overwrite existing output {config.output_path!r}") from None
        except OSError as exc:
            raise ConfigError(
                f"cannot create output {config.output_path!r}: {exc.strerror}") from None
    return config


_RUNNERS = {
    "verify": run_verify,
    "matrix": run_matrix,
    "qdet": run_qdet,
    "limits": run_limits,
    "scan": run_scan,
}


def _run(config: RunConfig) -> int:
    """The command's exit status; a raising command leaves no output file behind."""
    try:
        return _RUNNERS[config.command](config)
    except BaseException:
        if config.output_path:
            os.remove(config.output_path)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(_config_from_args(args))
    except (ConfigError, DomainError, KindError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, TruncationError, ConvergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
