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
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

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
from .special_functions import LogComplex
from .tensor_algebra import matrix_dump_rows
from .rmatrix_builders import ModelParams, RKind, build_r
from .property_suite import (
    CANARY_MARGIN,
    CHECKS,
    P_MODULUS,
    Q_MODULUS,
    PropertyReport,
    check_p_to_zero,
    draw_log,
    draw_params,
    effective_pass,
    error_report,
    run_suite,
    tolerance_for,
)
from .qdet_engine import _check_product_cap, centrality_witness, verify_qdet

__all__ = ["RunConfig", "main", "parse_complex_literal"]


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
        return complex(normalized)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex literal {text!r}; expected a+bi or random") from exc


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


def _tolerance_names(args: argparse.Namespace) -> list[str]:
    """The ``--tol`` names the command reads."""
    if args.command == "verify":
        return sorted([*CHECKS, "qdet"])
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
    return overrides


def _resolve_params(config: RunConfig, rng: np.random.Generator) -> ModelParams:
    """Build ModelParams from literals or seeded draws; validate early."""
    if config.q is None and config.p is None:
        # redraw until clean of near-degeneracies, like the test suite does
        return draw_params(rng, config.n)
    if config.q is None:
        log_q = draw_log(rng, Q_MODULUS)
    else:
        if abs(config.q) >= 1.0 or config.q == 0:
            raise ConfigError(f"|q| must lie in (0, 1), got {abs(config.q):.6g}")
        log_q = LogComplex.from_complex(config.q)
    if config.p is None:
        log_p = draw_log(rng, P_MODULUS)
    else:
        if abs(config.p) >= 1.0 or config.p == 0:
            raise ConfigError(f"|p| must lie in (0, 1), got {abs(config.p):.6g}")
        log_p = LogComplex.from_complex(config.p)
    # user-pinned parameters get a coarse margin: warn loudly, still run
    params = ModelParams(config.n, log_q, log_p, genericity_margin=0.05)
    for warning in params.genericity_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    return params


def _resolve_point(literal: complex | None, rng: np.random.Generator) -> LogComplex:
    return draw_log(rng) if literal is None else LogComplex.from_complex(literal)


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
    if config.output_path:
        if os.path.exists(config.output_path):
            raise ConfigError(f"refusing to overwrite existing output {config.output_path!r}")
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_reports(rows: list[dict], config: RunConfig) -> None:
    if config.fmt == "json":
        document = {"config": _config_payload(config), "reports": rows}
        _emit_text(json.dumps(document, sort_keys=True, indent=2) + "\n", config)
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


def _qdet_reports(
    params: ModelParams, config: RunConfig, rng: np.random.Generator, n_points: int
) -> list[PropertyReport]:
    """The qdet deviation rows of each point, then the spread of m over the points."""
    reports: list[PropertyReport] = []
    m_means: list[complex] = []
    total_ms = 0.0
    for _ in range(n_points):
        log_z = _resolve_point(config.z, rng)
        started = time.perf_counter()
        result = verify_qdet(params, log_z, rng=rng)
        runtime_ms = (time.perf_counter() - started) * 1000.0
        total_ms += runtime_ms
        m_means.append(sum(result.m_k_values) / len(result.m_k_values))
        z_used = (result.z_point.to_complex(),)
        detail = {"m_k_values": list(result.m_k_values)}
        for key, value in result.deviations.items():
            tolerance = tolerance_for(f"qdet.{key}", params.n, config.tolerances)
            reports.append(PropertyReport.from_residual(
                f"qdet[{key}]", result.params_digest, z_used, value, tolerance, runtime_ms, detail
            ))
    spread = max(abs(m - m_means[0]) for m in m_means)
    tolerance = tolerance_for("qdet.z_spread", params.n, config.tolerances)
    reports.append(PropertyReport.from_residual(
        "qdet[z_spread]", params.digest(), (), spread, tolerance, total_ms, {"points": n_points}
    ))
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
        safe=True,
    )
    reports.extend(_qdet_reports(params, config, rng, 2))
    tolerance = config.tolerances.get("centrality-witness")
    reports.append(
        centrality_witness(params, draw_log(rng), draw_log(rng), tolerance=tolerance, rng=rng)
    )
    payload = _params_payload(params)
    _emit_reports([_report_row(r, payload, config) for r in reports], config)
    return 0 if all(effective_pass(r) for r in reports) else 1


def run_matrix(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    params = _resolve_params(config, rng)
    log_z = _resolve_point(config.z, rng)
    kind = RKind.from_tag(config.kind)
    op = build_r(params, kind, log_z)
    policy = params.policy
    header = [
        f"# kind: {kind.value}",
        f"# n: {params.n}",
        f"# q: {_format_complex(params.q)}",
        f"# p: {_format_complex(params.p)}",
        f"# z: {_format_complex(log_z.to_complex())}",
        f"# policy: abs_floor={policy.abs_floor:g}, max_terms={policy.max_terms}",
        f"# version: {__version__}",
        f"# seed: {config.seed}",
        "# columns: i, j, re, im",
    ]
    _emit_text("\n".join(header) + "\n" + "\n".join(matrix_dump_rows(op)) + "\n", config)
    return 0


def run_qdet(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    params = _resolve_params(config, rng)
    n_points = 1 if config.z is not None else config.points
    reports = _qdet_reports(params, config, rng, n_points)
    payload = _params_payload(params)
    _emit_reports([_report_row(r, payload, config) for r in reports], config)
    return 0 if all(effective_pass(r) for r in reports) else 1


def run_limits(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    params = _resolve_params(config, rng)
    payload = _params_payload(params)
    log_z = _resolve_point(config.z, rng)
    report = check_p_to_zero(
        params,
        log_z,
        p_sequence=config.p_seq,
        tolerance=config.tolerances.get("p-to-zero"),
        rng=rng,
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
    rng = np.random.default_rng(config.seed)
    kind = RKind.from_tag(config.kind)
    check = CHECKS[config.check]
    if kind not in check.kinds:
        accepted = ", ".join(k.value for k in check.kinds)
        raise ConfigError(f"--check {config.check} takes --kind {accepted}, not {kind.value}")
    if not kind.exists_at(config.n):
        raise ConfigError(f"--kind {kind.value} has no matrix at N = {config.n}")
    tolerance = config.tolerances.get(config.check)
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
            points = tuple(draw_log(rng) for _ in check.points)
            try:
                report = check.run(params, kind, points, tolerance=tolerance, rng=rng)
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
    qdet.add_argument("--points", type=int, default=5)

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
        if args.points < 1:
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
    return config


_RUNNERS = {
    "verify": run_verify,
    "matrix": run_matrix,
    "qdet": run_qdet,
    "limits": run_limits,
    "scan": run_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _RUNNERS[config.command](config)
    except (ConfigError, DomainError, KindError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, TruncationError, ConvergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
