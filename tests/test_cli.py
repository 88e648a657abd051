"""Command-line interface: parsing, exit codes, report serialization."""

import cmath
import csv
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_rmatrix import ConfigError, PoleError, cli
from elliptic_rmatrix.cli import main, parse_complex_literal

REPORT_FIELDS = {
    "check",
    "params",
    "sample_points",
    "residual",
    "tolerance",
    "passed",
    "runtime_ms",
    "seed",
    "version",
    "detail",
}


class TestLiteralParsing:
    def test_cartesian_forms(self):
        assert parse_complex_literal("1.5+0.5i") == 1.5 + 0.5j
        assert parse_complex_literal("1.5-0.5j") == 1.5 - 0.5j
        assert parse_complex_literal("0.3") == 0.3 + 0j
        assert parse_complex_literal("-2i") == -2j

    def test_random_sentinel(self):
        assert parse_complex_literal("random") is None
        assert parse_complex_literal("RANDOM") is None

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_complex_literal("one plus two eye")


class TestExitCodes:
    def test_nome_outside_disc_is_config_error(self, capsys):
        assert main(["verify", "--n", "3", "--p", "1.2"]) == 2
        assert "must lie in (0, 1)" in capsys.readouterr().err

    def test_bad_tol_syntax(self, capsys):
        assert main(["verify", "--tol", "ybe"]) == 2

    def test_bad_grid(self, capsys):
        assert main(["scan", "--grid", "4by4"]) == 2

    def test_n_below_two(self, capsys):
        assert main(["verify", "--n", "1"]) == 2

    @pytest.mark.parametrize("argv, largest", [
        (["verify", "--points", "1"], 4),
        (["qdet", "--points", "1"], 4),
        (["scan", "--check", "ybe", "--grid", "1x1"], 16),
        (["matrix"], 64),
        (["limits"], 64),
    ], ids=lambda value: value[0] if isinstance(value, list) else str(value))
    def test_one_above_the_largest_n_is_refused_before_any_build(
            self, capsys, monkeypatch, tmp_path, argv, largest):
        from elliptic_rmatrix import property_suite, qdet_engine, rmatrix_builders, tensor_algebra

        def refuse(*args, **kwargs):
            raise AssertionError("built")

        for module in (cli, property_suite, qdet_engine, rmatrix_builders):
            monkeypatch.setattr(module, "build_r", refuse)
        for module in (property_suite, qdet_engine, tensor_algebra):
            monkeypatch.setattr(module, "embed", refuse)
        monkeypatch.setattr(cli, "run_suite", refuse)
        command, n = argv[0], largest + 1
        target = tmp_path / "r.txt"
        assert main([command, "--n", str(n), *argv[1:], "--seed", "1", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"N = {n} " in captured.err
        assert f"budget is {tensor_algebra.MAX_ENTRIES:,}" in captured.err
        assert not target.exists()
        # the same check passes at the largest N, without running the command
        tensor_algebra._check_entries(command, largest, cli._LARGEST_ARRAY[command](largest))

    def test_numerical_error_exits_three(self, capsys):
        # the terms of (p; p)_inf at |p| = 0.999 stay above the floor past 4096 terms
        assert main(["matrix", "--n", "2", "--p", "0.999", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        last = captured.err.splitlines()[-1]
        assert last.startswith("numerical error:")
        assert "after 4096 terms" in last
        assert captured.out == ""

    def test_pole_exits_three(self, capsys):
        # the hat prefactor's Theta_{q^{2N}}(z^2) vanishes at z = 1
        argv = ["matrix", "--n", "3", "--kind", "elliptic-hat", "--z", "1+0i", "--seed", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "numerical error: denominator theta vanished in hat prefactor")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["qdet", "--n", "2", "--q", "0.5", "--p", "0.2", "--z", "2", "--seed", "1"],
        ["limits", "--n", "2", "--q", "0.5", "--z", "2", "--seed", "1"],
    ])
    def test_pinned_z_at_a_pole_exits_three(self, capsys, argv):
        # z = 1/q is a theta zero, and a pinned --z is never redrawn
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("numerical error:")

    @pytest.mark.parametrize("command", ["matrix", "verify", "qdet", "scan", "limits"])
    def test_negative_seed_is_config_error(self, capsys, command):
        assert main([command, "--n", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: --seed must be non-negative, got -1"]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["verify", "qdet"])
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_non_positive_points_rejected(self, capsys, command, points):
        assert main([command, "--n", "2", "--points", points]) == 2
        captured = capsys.readouterr()
        assert "--points must be positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("p_seq", ["1e-4,1e-2", "1e-2,1e-2", "1.5,1e-2", "1e-2,0"])
    def test_bad_p_sequence_rejected(self, capsys, p_seq):
        assert main(["limits", "--n", "2", "--seed", "1", "--p-seq", p_seq]) == 2
        captured = capsys.readouterr()
        assert "p_sequence must decrease strictly within (0, 1)" in captured.err
        assert captured.out == ""

    def test_unknown_tol_name_rejected(self, capsys):
        assert main(["verify", "--n", "2", "--points", "1", "--tol", "ybee=1e-30"]) == 2
        err = capsys.readouterr().err
        assert "unknown --tol name 'ybee'" in err
        for name in ("ybe", "centrality-witness", "qdet", "qdet.z_spread"):
            assert name in err

    def test_witness_tolerance_override(self, tmp_path):
        target = tmp_path / "r.json"
        code = main(["verify", "--n", "2", "--seed", "1", "--points", "1", "--format", "json",
                     "--tol", "centrality-witness=1e-30", "--out", str(target)])
        assert code == 1
        rows = json.loads(target.read_text())["reports"]
        witness = [r for r in rows if r["check"] == "centrality-witness"]
        assert [r["tolerance"] for r in witness] == [1e-30]
        assert not witness[0]["passed"]

    def test_qdet_group_tolerance_yields_to_its_key(self, capsys):
        assert main(["qdet", "--n", "2", "--seed", "3", "--points", "2", "--format", "json",
                     "--tol", "qdet=1e-30", "--tol", "qdet.z_spread=1.0"]) == 1
        rows = json.loads(capsys.readouterr().out)["reports"]
        tolerances = {r["check"]: r["tolerance"] for r in rows}
        assert tolerances.pop("qdet[z_spread]") == 1.0
        assert set(tolerances.values()) == {1e-30}

    def test_scan_refuses_kind_the_check_does_not_take(self, capsys):
        code = main(["scan", "--n", "2", "--check", "crossing", "--kind", "homogeneous",
                     "--grid", "1x1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "takes --kind elliptic, not homogeneous" in captured.err
        assert captured.out == ""

    def test_scan_refuses_kind_without_matrix_at_n(self, capsys):
        code = main(["scan", "--n", "3", "--check", "ybe", "--kind", "eightvertex",
                     "--grid", "1x1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "eightvertex has no matrix at N = 3" in captured.err
        assert captured.out == ""

    def test_qdet_refuses_points_with_z(self, capsys):
        # a --z literal is one point: --points 3 ran one point and exited 0
        assert main(["qdet", "--n", "2", "--z", "1.1+0.2i", "--points", "3", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert "--z" in captured.err and "--points 3" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--points", "1"], ["--z", "1.1+0.2i"],
                                      ["--z", "1.1+0.2i", "--points", "1"]])
    def test_one_point_qdet_has_no_z_spread(self, capsys, argv):
        # a spread over one point is 0 and cannot fail, so the row is left out
        assert main(["qdet", "--n", "2", "--seed", "1", "--format", "json", *argv]) == 0
        rows = json.loads(capsys.readouterr().out)["reports"]
        assert len(rows) == 9 and all(r["check"] != "qdet[z_spread]" for r in rows)

    @pytest.mark.parametrize("argv, valid", [
        (["limits", "--n", "2"], "p-to-zero"),
        (["matrix", "--n", "2"], "none"),
        (["qdet", "--n", "2", "--points", "1"], "qdet, qdet.closed_form_spread"),
        (["scan", "--n", "2", "--check", "unitarity", "--grid", "1x1"], "unitarity"),
    ])
    def test_tol_name_the_command_does_not_read_rejected(self, capsys, argv, valid):
        assert main([*argv, "--seed", "1", "--tol", "ybe=1e-30"]) == 2
        captured = capsys.readouterr()
        assert f"unknown --tol name 'ybe' for {argv[0]}; choose from {valid}" in captured.err
        assert captured.out == ""

    def test_limits_reads_its_tol_name(self, capsys):
        assert main(["limits", "--n", "2", "--seed", "1", "--format", "json",
                     "--tol", "p-to-zero=1e-30"]) == 1
        rows = json.loads(capsys.readouterr().out)["reports"]
        assert [r["tolerance"] for r in rows] == [1e-30]

    def test_forced_tolerance_failure(self, capsys, tmp_path):
        code = main(
            ["verify", "--n", "2", "--seed", "1", "--points", "1",
             "--tol", "ybe=1e-30", "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1

    def test_successful_verify(self, capsys):
        assert main(["verify", "--n", "2", "--seed", "3", "--points", "1"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_write_once(self, tmp_path, capsys):
        target = tmp_path / "dump.txt"
        assert main(["matrix", "--n", "2", "--seed", "5", "--out", str(target)]) == 0
        assert main(["matrix", "--n", "2", "--seed", "5", "--out", str(target)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["qdet", "--n", "4", "--points", "3", "--format", "json"],
        ["verify", "--n", "2", "--points", "1"],
        ["scan", "--n", "3", "--grid", "2x2"],
        ["limits", "--n", "2"],
        ["matrix", "--n", "2"],
    ], ids=lambda argv: argv[0])
    def test_existing_out_is_refused_before_any_build(self, tmp_path, capsys, monkeypatch, argv):
        from elliptic_rmatrix import property_suite, qdet_engine

        builds = []

        def no_build(*args, **kwargs):
            builds.append(args)
            raise AssertionError("an R-matrix was built")

        for module in (cli, property_suite, qdet_engine):
            monkeypatch.setattr(module, "build_r", no_build)
        target = tmp_path / "r.json"
        target.write_text("kept\n")
        assert main([*argv, "--seed", "1", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: refusing to overwrite existing output {str(target)!r}\n"
        assert captured.out == "" and builds == []
        assert target.read_text() == "kept\n"

    def test_out_in_a_missing_directory_is_a_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.txt"
        assert main(["matrix", "--n", "2", "--seed", "5", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot create output {str(target)!r}: "
                                "No such file or directory\n")
        assert captured.out == ""

    def test_out_is_held_from_the_start_and_dropped_when_the_run_fails(
            self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "dump.txt"
        held = []

        def pole(*args, **kwargs):
            held.append(target.exists())
            raise PoleError("synthetic pole")

        monkeypatch.setattr(cli, "build_r", pole)
        assert main(["matrix", "--n", "2", "--seed", "5", "--out", str(target)]) == 3
        assert held == [True] and not target.exists()
        # a configuration error found by the command itself removes it too
        assert main(["matrix", "--n", "2", "--format", "json", "--out", str(target)]) == 2
        assert not target.exists()
        assert capsys.readouterr().err.splitlines() == [
            "numerical error: synthetic pole",
            "error: matrix writes a text dump only; it takes no --format json",
        ]


class TestMatrixDump:
    def test_eight_vertex_dump_shape(self, capsys):
        assert main(
            ["matrix", "--n", "2", "--kind", "eightvertex", "--seed", "7"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(rows) == 16
        zero_rows = [r for r in rows if r.endswith(", 0, 0")]
        assert len(zero_rows) == 8
        assert any("kind: eightvertex" in h for h in header)
        assert any("columns: i, j, re, im" in h for h in header)

    def test_header_names_the_truncation_rule(self, capsys):
        assert main(["matrix", "--n", "2", "--seed", "1"]) == 0
        header = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("#")]
        assert header[5] == "# policy: abs_floor=1e-17, max_terms=4096"

    def test_elliptic_n3_zero_pattern(self, capsys):
        assert main(["matrix", "--n", "3", "--kind", "elliptic", "--seed", "2"]) == 0
        rows = [
            ln
            for ln in capsys.readouterr().out.strip().splitlines()
            if not ln.startswith("#")
        ]
        assert len(rows) == 81
        for row in rows:
            i_str, j_str, re_str, im_str = (part.strip() for part in row.split(","))
            i, j = int(i_str) - 1, int(j_str) - 1
            a, c = divmod(i, 3)
            b, d = divmod(j, 3)
            if (a + c - b - d) % 3 != 0:
                assert (re_str, im_str) == ("0", "0"), row

    def test_same_seed_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["matrix", "--n", "3", "--seed", "9", "--out", str(f1)])
        main(["matrix", "--n", "3", "--seed", "9", "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()

    def test_pinned_arguments_echoed(self, capsys):
        main(["matrix", "--n", "2", "--q", "0.4+0.1i", "--p", "0.2", "--z", "1.1"])
        out = capsys.readouterr().out
        assert "# q: 0.4" in out
        assert "# p: 0.2" in out

    @pytest.mark.parametrize("flags, named", [
        (["--format", "json"], "--format json"),
        (["--format", "csv"], "--format csv"),
        (["--timings"], "--timings"),
    ])
    def test_refuses_what_a_text_dump_cannot_carry(self, capsys, monkeypatch, flags, named):
        def refuse(*args, **kwargs):
            raise AssertionError("built")

        monkeypatch.setattr(cli, "build_r", refuse)
        assert main(["matrix", "--n", "2", "--seed", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"takes no {named}" in captured.err

    def test_explicit_text_format_is_the_dump(self, capsys):
        assert main(["matrix", "--n", "2", "--seed", "1", "--format", "text"]) == 0
        explicit = capsys.readouterr().out
        assert main(["matrix", "--n", "2", "--seed", "1"]) == 0
        assert capsys.readouterr().out == explicit


class TestJsonReports:
    def test_verify_document_structure(self, tmp_path):
        target = tmp_path / "verify.json"
        code = main(
            ["verify", "--n", "2", "--seed", "21", "--points", "1",
             "--format", "json", "--out", str(target)]
        )
        assert code == 0
        document = json.loads(target.read_text())
        assert set(document) == {"config", "reports"}
        assert document["config"]["command"] == "verify"
        assert document["config"]["seed"] == 21
        for report in document["reports"]:
            assert set(report) == REPORT_FIELDS
            assert set(report["params"]) == {"N", "q", "p"}
            assert report["runtime_ms"] == 0.0  # zeroed without --timings
        names = {r["check"] for r in document["reports"]}
        assert any(name.startswith("ybe") for name in names)
        assert any(name.startswith("qdet[") for name in names)
        assert "centrality-witness" in names

    def test_verify_byte_identical_across_runs(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--n", "2", "--seed", "33", "--points", "1",
              "--format", "json", "--out", str(f1)])
        main(["verify", "--n", "2", "--seed", "33", "--points", "1",
              "--format", "json", "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()

    def test_qdet_rows_carry_timings_only_when_asked(self, capsys):
        argv = ["qdet", "--n", "2", "--seed", "8", "--points", "2", "--format", "json"]
        assert main(argv) == 0
        untimed = json.loads(capsys.readouterr().out)["reports"]
        assert [r["runtime_ms"] for r in untimed] == [0.0] * 19
        assert main(argv + ["--timings"]) == 0
        timed = json.loads(capsys.readouterr().out)["reports"]
        first, second, spread = timed[:9], timed[9:18], timed[18]
        for call in (first, second):
            assert call[0]["runtime_ms"] > 0.0
            assert {r["runtime_ms"] for r in call} == {call[0]["runtime_ms"]}
        # the spread row times its own reduction of the points' m_k, not their routes
        assert spread["check"] == "qdet[z_spread]"
        assert 0.0 < spread["runtime_ms"] < first[0]["runtime_ms"] + second[0]["runtime_ms"]

    def test_embedded_config_reproduces_residuals(self, tmp_path):
        # a report file names its own seed/params: re-running must agree
        f1 = tmp_path / "first.json"
        main(["qdet", "--n", "2", "--seed", "55", "--points", "2",
              "--format", "json", "--out", str(f1)])
        doc = json.loads(f1.read_text())
        seed = doc["config"]["seed"]
        f2 = tmp_path / "second.json"
        main(["qdet", "--n", "2", "--seed", str(seed), "--points", "2",
              "--format", "json", "--out", str(f2)])
        redone = json.loads(f2.read_text())
        first = [r["residual"] for r in doc["reports"]]
        second = [r["residual"] for r in redone["reports"]]
        assert all(abs(a - b) <= 1e-12 for a, b in zip(first, second))


class TestCsvReports:
    def test_header_and_rows(self, capsys):
        assert main(
            ["scan", "--n", "2", "--check", "unitarity", "--grid", "2x2",
             "--seed", "12", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("check,N,q,p,sample_points,residual")
        assert len(lines) == 1 + 4

    def test_detail_column_matches_json(self, capsys):
        argv = ["scan", "--n", "2", "--check", "h-invariance", "--grid", "1x2", "--seed", "4"]
        assert main(argv + ["--format", "csv"]) == 0
        records = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert "c" not in records[0]
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["reports"]
        assert [json.loads(r["detail"]) for r in records] == [r["detail"] for r in rows]


class TestScan:
    def test_grid_partitioning(self, tmp_path):
        target = tmp_path / "scan.json"
        code = main(
            ["scan", "--n", "2", "--check", "ybe", "--grid", "4x4",
             "--seed", "3", "--format", "json", "--out", str(target)]
        )
        assert code == 0
        document = json.loads(target.read_text())
        assert len(document["reports"]) == 16
        cells = {tuple(r["detail"]["cell"]) for r in document["reports"]}
        assert cells == {(i, j) for i in range(4) for j in range(4)}
        moduli = sorted(abs(complex(*r["params"]["q"])) for r in document["reports"])
        assert moduli[0] < 0.45 and moduli[-1] > 0.65  # spread across the range


    def test_kind_applies_to_multi_kind_checks(self, capsys):
        assert main(["scan", "--n", "2", "--check", "ybe", "--kind", "homogeneous",
                     "--grid", "1x2", "--seed", "2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["reports"]
        assert [r["check"] for r in rows] == ["ybe[homogeneous]"] * 2


class TestLimits:
    def test_monotone_table(self, capsys):
        assert main(["limits", "--n", "2", "--seed", "31"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        table = [ln for ln in lines if ln[0].isdigit()]
        residuals = [float(ln.split(",")[1]) for ln in table]
        assert residuals == sorted(residuals, reverse=True)
        assert "PASS" in out

    def test_custom_p_sequence(self, capsys):
        # the support residual tracks the smallest p, so it must sit well
        # below the 1e-5 tolerance for the run to pass
        assert main(
            ["limits", "--n", "2", "--seed", "31", "--p-seq", "1e-4,1e-6,1e-8"]
        ) == 0
        out = capsys.readouterr().out
        assert "1.000e-04" in out and "1.000e-08" in out


class TestWarnings:
    def test_near_degenerate_q_warns_but_runs(self, capsys):
        assert main(["matrix", "--n", "3", "--q", "0.99", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "# kind:" in captured.out


class TestConfigurationRange:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1", "-1e-300"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, value):
        assert main(["verify", "--n", "2", "--points", "1", "--tol", f"ybe={value}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--tol value must be finite and non-negative" in err

    def test_zero_tolerance_is_valid(self, capsys):
        # nsigma's own default is 0.0; its residual is exact
        assert main(["verify", "--n", "2", "--points", "1", "--tol", "nsigma=0"]) == 0

    @pytest.mark.parametrize("argv, option", [
        (["matrix", "--n", "2", "--q", "1e-300"], "--q"),
        (["verify", "--n", "2", "--q", "1e-300", "--points", "1"], "--q"),
        (["matrix", "--n", "2", "--z", "1e300"], "--z"),
        (["qdet", "--n", "2", "--points", "1", "--z", "1e300"], "--z"),
        (["limits", "--n", "2", "--z", "1e300"], "--z"),
        (["matrix", "--n", "3", "--q", "1e-60"], "--q"),
        (["matrix", "--n", "2", "--z", "1e150"], "--z"),
        (["matrix", "--n", "2", "--p", "1e-300"], "--p"),
        (["matrix", "--n", "2", "--z", "1e400"], "1e400"),
        (["matrix", "--n", "2", "--z", "0"], "--z"),
        (["qdet", "--n", "2", "--points", "1", "--z", "1e5", "--seed", "1"], "--z"),
        (["matrix", "--n", "2", "--z", "1e5", "--seed", "1"], "--z"),
        (["scan", "--n", "2", "--q", "0.5", "--p", "0.1", "--grid", "1x1", "--seed", "1"], "--q"),
        (["scan", "--n", "2", "--p", "0.1", "--grid", "1x1", "--seed", "1"], "--p"),
        (["limits", "--n", "2", "--p", "0.3", "--seed", "1"], "--p"),
    ])
    def test_extreme_literal_exits_two_before_any_build(self, capsys, monkeypatch, argv, option):
        from elliptic_rmatrix import property_suite, qdet_engine

        def refuse(*args, **kwargs):
            raise AssertionError("built an R-matrix")

        for module in (cli, property_suite, qdet_engine):
            monkeypatch.setattr(module, "build_r", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert option in captured.err

    def test_literals_inside_the_sampling_annuli_pass(self, capsys):
        argv = ["matrix", "--n", "3", "--q", "0.3-0.1i", "--p", "0.5i", "--z", "0.5", "--seed", "1"]
        assert main(argv) == 0
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["matrix", "--n", "2", "--z", "1e5", "--seed", "1"],
        ["matrix", "--n", "2", "--kind", "principal", "--z", "1e10", "--seed", "1"],
    ])
    def test_matrix_never_prints_a_non_finite_entry(self, capsys, monkeypatch, argv):
        # the float64 products overflow at these z; the range check refuses them
        # since it bounds the elliptic gamma's p-shift, so the guard behind it
        # is checked with the range check switched off
        monkeypatch.setattr(cli, "_check_float_range", lambda config, params: None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entries beyond float64" in captured.err

    @staticmethod
    def largest_accepted_log_z(argv: list[str]) -> float:
        """The largest ln|z| that the range check accepts for ``argv``, by bisection."""
        lo, hi = 0.0, 60.0
        for _ in range(60):
            mid = (lo + hi) / 2
            config = cli._config_from_args(cli._build_parser().parse_args(argv + ["--z", repr(math.exp(mid))]))
            try:
                cli._resolve_params(config, np.random.default_rng(config.seed))
                lo = mid
            except ConfigError:
                hi = mid
        return lo

    @pytest.mark.parametrize("argv, bound", [
        (["qdet", "--n", "2", "--points", "1", "--seed", "1"], "elliptic gamma's p-shift"),
        (["qdet", "--n", "3", "--points", "1", "--q=0.3+0.1i", "--p=0.9i", "--seed", "5"],
         "theta"),
    ])
    def test_z_just_inside_the_gamma_bound_gives_finite_rows(self, capsys, argv, bound):
        # the bound is the float64 limit on the estimated running products, so a z
        # just inside it, large or small, must build finite matrices
        log_z = self.largest_accepted_log_z(argv)
        assert 2.0 < log_z < 11.5  # qdet --n 2 --z 1e5 --seed 1 printed NaN rows
        for sign in (1, -1):
            z = math.exp(sign * 0.999 * log_z) * cmath.exp(0.3j)
            assert main(argv + [f"--z={z.real:.17g}{z.imag:+.17g}i", "--format", "json"]) in (0, 1)
            rows = json.loads(capsys.readouterr().out)["reports"]
            assert rows and all(math.isfinite(row["residual"]) for row in rows), sign
        assert main(argv + ["--z", repr(math.exp(1.001 * log_z))]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--z: the {bound} products" in err


def _sweep_commands() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(
        "identity_sweep", Path(__file__).resolve().parent.parent / "tools" / "identity_sweep.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclass looks it up
    spec.loader.exec_module(module)
    return module.command_list()


_json_floats = st.floats() | st.floats().map(np.float64) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7])
_json_scalars = st.none() | st.booleans() | st.integers() | _json_floats | st.text()
_json_documents = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_json_documents)
    def test_equals_json_dumps(self, document):
        assert cli._json_dumps(document) == json.dumps(document, sort_keys=True, indent=2)

    def test_control_and_non_ascii_strings(self):
        document = {"é\x00\n\t\"\\": [" 😀\x1f", "", {}, [], [[]]]}
        assert cli._json_dumps(document) == json.dumps(document, sort_keys=True, indent=2)

    def test_shared_sub_objects_at_any_depth(self):
        shared = {"N": 3, "q": [0.5, -0.25]}
        pair = [1.5, np.float64(2.5)]
        document = {"rows": [shared, {"params": shared, "p": pair}, shared],
                    "top": shared, "p": pair}
        assert cli._json_dumps(document) == json.dumps(document, sort_keys=True, indent=2)

    def test_non_string_keys_and_subclasses(self):
        class Big(int):
            def __repr__(self):
                return "big"

        class Half(float):
            def __repr__(self):
                return "half"

        for document in ({2: Big(7), 1: Half(0.5)}, {2.5: [False, np.float64(-0.0)], -1e300: None},
                         {True: 0, False: 1}, {None: "null"}):
            assert cli._json_dumps(document) == json.dumps(document, sort_keys=True, indent=2)

    def test_errors_are_json_errors(self):
        loop = []
        loop.append(loop)
        for bad, error in ((loop, ValueError), ({"x": object()}, TypeError),
                           ({(1, 2): 0}, TypeError), ([np.int64(3)], TypeError)):
            with pytest.raises(error):
                json.dumps(bad, sort_keys=True, indent=2)
            with pytest.raises(error):
                cli._json_dumps(bad)

    def test_equals_json_dumps_on_every_sweep_command(self, capsys, monkeypatch):
        documents = []
        real = cli._json_dumps
        monkeypatch.setattr(cli, "_json_dumps", lambda doc: documents.append(doc) or real(doc))
        commands = [argv for argv in _sweep_commands() if argv[-2:] == ["--format", "json"]]
        assert len(commands) >= 60  # every scan, limits, verify and qdet command
        for argv in commands:
            main(argv)
            out = capsys.readouterr().out
            assert out == json.dumps(documents[-1], sort_keys=True, indent=2) + "\n", argv
        assert len(documents) == len(commands)
