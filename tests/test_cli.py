"""Command-line surface: parsing, row contents, formats, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import mpmath
import pytest

from latticetheta.cli import (
    UsageError,
    format_rows,
    main,
    parse_halfplane,
    parse_sweep,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    return list(csv.DictReader(io.StringIO(out)))


# ---------------------------------------------------------------------------
# parsing helpers


class TestParsing:
    def test_halfplane_forms(self):
        z = parse_halfplane("0.5+0.8660254i")
        assert z.x == 0.5 and z.y == 0.8660254
        assert parse_halfplane("1.5i").y == 1.5
        assert parse_halfplane("-0.25+2i").x == -0.25

    def test_halfplane_rejects_lower_half(self):
        from latticetheta import DomainError

        with pytest.raises(DomainError):
            parse_halfplane("0.5-1i")
        with pytest.raises(UsageError):
            parse_halfplane("not a point")

    def test_sweep_linear_and_log(self):
        vals = parse_sweep("0:2:5")
        assert vals == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
        logs = parse_sweep("1:100:3:log")
        assert logs == pytest.approx([1.0, 10.0, 100.0])
        assert len(parse_sweep("0:1")) == 256

    def test_sweep_ends_on_hi(self, capsys):
        # the last log point used to land at 1.0000000000000053 and exit 2
        code, out, err = run(capsys, "phase", "--sweep", "0.001:1:150:log")
        assert code == 0, err
        alphas = [float(r["alpha"]) for r in rows_of(out)]
        assert len(alphas) == 150 and alphas[-1] == 1.0
        for lo in (0.001, 0.01, 0.1, 0.3, 0.7):
            for n in range(2, 400):
                for mode in ("", ":log"):
                    vals = parse_sweep(f"{lo}:1:{n}{mode}")
                    assert len(vals) == n and vals[0] == lo and vals[-1] == 1.0
                    assert all(lo <= v <= 1.0 for v in vals), (lo, n, mode)
        # a log ratio that rounds up must not carry the inner points past hi
        assert max(parse_sweep("1:1.0000000000000004:100:log")) == 1.0000000000000004

    def test_sweep_validation(self, capsys):
        with pytest.raises(UsageError):
            parse_sweep("2:1:5")
        for text in ("0:1e400:3", "-inf:0:3", "0:nan:3"):
            with pytest.raises(UsageError):
                parse_sweep(text)
        code, out, err = run(capsys, "trajectory", "W1", "--sweep", "0:1e400:3")
        assert code == 2 and out == "" and "finite" in err
        with pytest.raises(UsageError):
            parse_sweep("0:1:1")
        with pytest.raises(UsageError):
            parse_sweep("0:1:5:exp")
        with pytest.raises(UsageError):
            parse_sweep("0:10:4:log")
        with pytest.raises(UsageError):
            parse_sweep("nope")


# ---------------------------------------------------------------------------
# eval


class TestEval:
    def test_theta_at_the_corner(self, capsys):
        code, out, _ = run(capsys, "eval", "theta", "--z", "0+1i")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["value"]) == pytest.approx(1.1803405990160962, rel=1e-12)
        assert float(row["tail_bound"]) == 1e-13

    def test_shifted_theta_column_set(self, capsys):
        code, out, _ = run(capsys, "eval", "theta_shifted", "--s", "2", "--z", "0+1i")
        assert code == 0
        (row,) = rows_of(out)
        assert set(row) == {"expr", "s", "x", "y", "value", "tail_bound"}

    def test_w1_matches_library(self, capsys):
        from latticetheta.functionals import FunctionalKind, w_eval
        from latticetheta import HalfPlanePoint

        code, out, _ = run(capsys, "eval", "W1", "--rho", "0.3", "--z", "0.1+1.4i")
        (row,) = rows_of(out)
        expected = w_eval(FunctionalKind.W1, 0.3, HalfPlanePoint(0.1, 1.4))
        assert float(row["value"]) == pytest.approx(expected, rel=1e-14)

    def test_j_gradient_vanishes_at_hexagonal_third(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "J",
            "--z", "0.5+0.86602540378443865i",
            "--a", "0.3333333333333333", "--b", "0.3333333333333333",
            "--grad",
        )
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["value"]) == pytest.approx(0.92037137331794, rel=1e-10)
        assert abs(float(row["dJ_da"])) < 1e-7
        assert abs(float(row["dJ_db"])) < 1e-7

    def test_j_gradient_takes_both_partials_from_one_pass(self, capsys, monkeypatch):
        """One order-0 and one order-1 lattice pass (the row is unchanged)."""
        from latticetheta import cli, phase_diagram

        calls = []
        original = phase_diagram._lattice_sum
        counted = lambda *args: calls.append(args[3]) or original(*args)
        monkeypatch.setattr(phase_diagram, "_lattice_sum", counted)
        monkeypatch.setattr(cli, "_lattice_sum", counted, raising=False)
        code, out, _ = run(
            capsys, "eval", "J", "--z", "0.3+1.4i", "--a", "0.3", "--b", "0.7", "--grad"
        )
        assert code == 0
        assert sorted(calls) == [0, 1]
        assert out.splitlines()[1] == (
            "J,0.3,1.4,0.3,0.7,0.9357831606783011,-0.11783748405769376,1.263779890364409,1e-13"
        )

    def test_e_mh_requires_alpha(self, capsys):
        code, _, err = run(capsys, "eval", "E_MH", "--z", "0+1i")
        assert code == 2
        assert "alpha" in err

    def test_e_mh_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "E_MH", "--alpha", "0.5", "--z", "0+1i",
            "--a", "0.5", "--b", "0.5",
        )
        (row,) = rows_of(out)
        from latticetheta.phase_diagram import Displacement, energy
        from latticetheta import HalfPlanePoint

        expected = energy(0.5, HalfPlanePoint(0.0, 1.0), Displacement(0.5, 0.5))
        assert float(row["value"]) == pytest.approx(expected, rel=1e-14)

    def test_extended_precision_prints_more_digits(self, capsys):
        code, out, _ = run(
            capsys, "eval", "theta", "--z", "0+1i", "--precision", "extended"
        )
        assert code == 0
        (row,) = rows_of(out)
        assert row["value"].startswith("1.1803405990160962260453")

    def test_extended_precision_leaves_mpmath_precision_alone(self, capsys):
        with mpmath.workdps(17):
            for argv in (("eval", "theta"), ("thresholds",)):
                code, _, _ = run(capsys, *argv, "--precision", "extended")
                assert code == 0 and mpmath.mp.dps == 17

    def test_extended_precision_unavailable_for_j(self, capsys):
        code, _, err = run(
            capsys, "eval", "J", "--z", "0+1i", "--precision", "extended"
        )
        assert code == 2 and "extended" in err

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_w_rejects_a_negative_weight(self, capsys, precision):
        code, out, err = run(
            capsys, "eval", "W1", "--rho", "-1", "--z", "0.1+1.2i", "--precision", precision
        )
        assert code == 2 and out == ""
        assert "w_eval needs rho >= 0" in err

    def test_negative_x_needs_no_equals_sign(self, capsys, monkeypatch):
        joined = run(capsys, "eval", "theta", "--z=-0.3+0.7i")
        assert joined[0] == 0 and float(rows_of(joined[1])[0]["x"]) == -0.3
        assert run(capsys, "eval", "theta", "--z", "-0.3+0.7i") == joined
        monkeypatch.setattr(sys, "argv", ["latticetheta", "eval", "theta", "--z", "-0.3+0.7i"])
        assert main() == 0 and capsys.readouterr().out == joined[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "E_MH", "--alpha", "-1e-3"),
            ("eval", "J", "--a", "-1e-3"),
            ("eval", "J", "--b", "-2.5e-1"),
            ("eval", "W1", "--rho", "-1e-3"),
            ("eval", "theta", "--s", "-1e-3"),
            ("eval", "theta", "--tol", "-1e-3"),
            ("eval", "theta", "--z", "-3e-1+7e-1i"),
            ("phase", "--sweep", "-1e-1:1e-1:3"),
            ("verify", "oracle", "--grid", "-100"),
        ],
    )
    def test_negative_numbers_need_no_equals_sign(self, capsys, argv):
        # "-1e-3" does not look like a negative number to argparse, "-0.001" does
        *head, option, value = argv
        assert run(capsys, *argv) == run(capsys, *head, f"{option}={value}")

    @pytest.mark.parametrize("argv", [("phase", "-1:1:5"), ("trajectory", "W1", "-0:1:3")])
    def test_negative_sweep_needs_no_equals_sign(self, capsys, argv):
        *command, sweep = argv
        joined = run(capsys, *command, "--sweep=" + sweep)
        assert joined[0] == 0 and len(rows_of(joined[1])) == int(sweep.split(":")[2])
        assert run(capsys, *command, "--sweep", sweep) == joined

    def test_warm_extended_corner_reaches_no_lattice_kernel(self, capsys, monkeypatch):
        from latticetheta import kernels

        argv = ("eval", "W1", "--z", "0+1i", "--precision", "extended")
        first = run(capsys, *argv)
        calls = []
        original = kernels._lattice_sum
        monkeypatch.setattr(kernels, "_lattice_sum", lambda *a: calls.append(a) or original(*a))
        assert run(capsys, *argv) == first and first[0] == 0
        assert calls == []

    def test_bad_point_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "theta", "--z", "0-2i")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("z", ["0.1+1e-320i", "0.3+1e-300i"])
    def test_point_that_cannot_be_reduced_exits_2(self, capsys, z):
        code, out, err = run(capsys, "eval", "theta", "--z", z)
        assert code == 2 and out == "" and "error:" in err

    def test_tol_override_reaches_the_tail_column(self, capsys):
        _, out, _ = run(capsys, "eval", "theta", "--z", "0+1i", "--tol", "1e-10")
        (row,) = rows_of(out)
        assert float(row["tail_bound"]) == 1e-10


# ---------------------------------------------------------------------------
# thresholds


class TestThresholds:
    def test_rows_and_consistency(self, capsys):
        code, out, _ = run(capsys, "thresholds")
        assert code == 0
        rows = rows_of(out)
        names = [r["name"] for r in rows]
        assert names == [
            "rho1", "rho2", "sigma1a", "sigma1b", "sigma2a", "sigma2b",
            "alpha0", "alpha1", "alpha2", "sigma2b_times_rho1",
        ]
        by = {r["name"]: r for r in rows}
        assert float(by["rho1"]["computed"]) == pytest.approx(0.0401611445, abs=1e-9)
        assert float(by["alpha1"]["computed"]) == pytest.approx(0.3732155079, abs=1e-9)
        assert abs(float(by["sigma2b_times_rho1"]["delta"])) <= 1e-12
        # deltas record the distance to the printed values
        assert float(by["rho2"]["delta"]) == pytest.approx(2.8076e-5, rel=1e-3)

    def test_alpha0_is_solved_at_the_commands_tolerance(self, capsys):
        from latticetheta.phase_diagram import solve_alpha0

        for tol in ((), ("--tol", "1e-6")):
            by = {r["name"]: r for r in rows_of(run(capsys, "thresholds", *tol)[1])}
            checks = {r["name"]: r for r in rows_of(run(capsys, "verify", "thresholds", *tol)[1])}
            assert by["alpha0"]["computed"] == checks["alpha0"]["computed"], tol
        assert float(rows_of(run(capsys, "thresholds")[1])[6]["computed"]) == solve_alpha0().alpha0

    def test_extended_tightens_the_band_edges(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--precision", "extended")
        assert code == 0
        by = {r["name"]: r for r in rows_of(out)}
        assert float(by["alpha2"]["computed"]) == pytest.approx(
            0.925649697403935529, abs=1e-15
        )

    def test_band_edges_match_the_library_and_the_verify_suite(self, capsys):
        from latticetheta.phase_diagram import alpha_thresholds

        by = {r["name"]: r for r in rows_of(run(capsys, "thresholds")[1])}
        assert (float(by["alpha1"]["computed"]), float(by["alpha2"]["computed"])) == (
            alpha_thresholds()
        )
        checks = {r["name"]: r for r in rows_of(run(capsys, "verify", "thresholds")[1])}
        assert checks["alpha1"]["computed"] == by["alpha1"]["computed"]
        assert checks["alpha2"]["computed"] == by["alpha2"]["computed"]

    def test_second_extended_table_is_read_from_the_cache(self, capsys, monkeypatch):
        from latticetheta import functionals

        first = run(capsys, "thresholds", "--precision", "extended")
        calls = []
        original = functionals._xyab_jet  # what _quotient_jet reads X, Y, A and B from
        monkeypatch.setattr(functionals, "_xyab_jet", lambda *a: calls.append(a) or original(*a))
        assert run(capsys, "thresholds", "--precision", "extended") == first
        assert first[0] == 0 and calls == []


# ---------------------------------------------------------------------------
# trajectory


class TestTrajectory:
    def test_w1_sweep_branch_sequence(self, capsys):
        code, out, _ = run(capsys, "trajectory", "W1", "--sweep", "0:2:200")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 200
        branches = [r["branch"] for r in rows]
        # segment, then corner plateau, then arc — in that order
        kinds = [b for b, _ in __import__("itertools").groupby(branches)]
        assert kinds == ["segment", "corner", "arc"]
        assert all(r["continuous"] == "true" for r in rows)
        first = rows[0]
        assert float(first["rho"]) == 0.0
        assert float(first["y"]) == pytest.approx(1.7320508, abs=1e-7)

    def test_transitions_sit_at_the_thresholds(self, capsys):
        from latticetheta.functionals import thresholds

        _, out, _ = run(capsys, "trajectory", "W1", "--sweep", "0:2:200")
        rows = rows_of(out)
        th = thresholds()
        step = 2 / 199
        seg_end = max(float(r["rho"]) for r in rows if r["branch"] == "segment")
        arc_start = min(float(r["rho"]) for r in rows if r["branch"] == "arc")
        assert abs(seg_end - th.sigma1a) <= step
        assert abs(arc_start - th.sigma1b) <= step

    def test_w2_default_range_reaches_the_arc(self, capsys):
        _, out, _ = run(capsys, "trajectory", "W2", "--sweep", "0:30:40")
        rows = rows_of(out)
        assert rows[-1]["branch"] == "arc"
        assert {r["branch"] for r in rows} == {"segment", "corner", "arc"}

    def test_continuity_flag_catches_a_teleport(self):
        from latticetheta.cli import _continuity_flags
        from latticetheta.functionals import FunctionalKind, minimizer

        rhos = [0.0, 0.01, 0.02, 0.03, 0.1, 0.5, 0.9, 1.2, 1.5, 2.0]
        points = [minimizer(FunctionalKind.W1, rho) for rho in rhos]
        assert [p.branch for p in points] == ["segment"] * 4 + ["corner"] * 2 + ["arc"] * 4
        assert all(_continuity_flags(points))  # equal corner rows included
        # a mis-glued branch steps back to an earlier branch once, then goes on
        flags = _continuity_flags(points[:7] + [points[2]] + points[8:])
        assert flags == [True] * 7 + [False] + [True] * 2
        # a step up the segment, and one back along the arc
        flags = _continuity_flags(points[:1] + [points[2], points[1]] + points[3:])
        assert flags == [True] * 2 + [False] + [True] * 7
        flags = _continuity_flags(points[:7] + [points[8], points[7]] + points[9:])
        assert flags == [True] * 8 + [False] + [True]

    def test_plateau_rows_share_one_corner_evaluation(self, capsys, monkeypatch):
        """Every W2 row with rho in [rho2, 1/rho1] sits at i; the table's
        lattice passes do not grow with the number of such rows."""
        from latticetheta import functionals, kernels

        counts = []
        for n in (4, 40):
            passes, original = [], kernels._lattice_sum
            functionals.w_eval.cache_clear()
            with monkeypatch.context() as m:
                m.setattr(kernels, "_lattice_sum", lambda *a: passes.append(a) or original(*a))
                code, out, _ = run(capsys, "trajectory", "W2", "--sweep", f"2:20:{n}")
            assert code == 0
            assert [r["branch"] for r in rows_of(out)] == ["corner"] * n
            counts.append(len(passes))
        assert counts[0] == counts[1] == 1

    def test_rows_are_ordered_and_values_certified(self, capsys):
        from latticetheta.functionals import FunctionalKind, w_eval
        from latticetheta import HalfPlanePoint

        _, out, _ = run(capsys, "trajectory", "W2", "--sweep", "0.5:20:7")
        rows = rows_of(out)
        rhos = [float(r["rho"]) for r in rows]
        assert rhos == sorted(rhos)
        mid = rows[3]
        z = HalfPlanePoint(float(mid["x"]), float(mid["y"]))
        assert float(mid["value"]) == pytest.approx(
            w_eval(FunctionalKind.W2, float(mid["rho"]), z), rel=1e-12
        )


# ---------------------------------------------------------------------------
# phase


class TestPhase:
    def test_full_sweep_shapes_and_marker(self, capsys):
        code, out, _ = run(capsys, "phase", "--sweep=-1:1:81")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 81
        shapes = {r["shape"] for r in rows}
        assert shapes == {"hexagonal", "rhombic", "square", "rectangular"}
        for r in rows:
            if float(r["alpha"]) <= 0:
                assert r["shape"] == "hexagonal"
        # the boundary marker flips exactly once, at alpha0
        flags = [r["below_alpha0"] for r in rows]
        flip = flags.index("false")
        assert flags[:flip] == ["true"] * flip
        assert set(flags[flip:]) == {"false"}
        assert float(rows[flip - 1]["alpha"]) < 0.1723566 < float(rows[flip]["alpha"])

    def test_hexagonal_rows_carry_the_bound_state_energy(self, capsys):
        _, out, _ = run(capsys, "phase", "--sweep=-1:0:5")
        rows = rows_of(out)
        assert float(rows[0]["energy"]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows[-1]["energy"]) == pytest.approx(1.1595952669639287, rel=1e-10)


def test_thresholds_then_phase_solve_alpha0_once(capsys):
    from latticetheta.phase_diagram import solve_alpha0

    solve_alpha0.cache_clear()
    assert run(capsys, "thresholds")[0] == 0
    assert run(capsys, "phase", "--sweep=-1:1:5")[0] == 0
    info = solve_alpha0.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    from latticetheta import cli

    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    cli._parser.cache_clear()
    assert run(capsys, "thresholds")[0] == 0
    assert run(capsys, "eval", "theta")[0] == 0
    assert len(built) == 1
    assert original() is not original()  # the public builder stays fresh


def test_import_leaves_numpy_unloaded():
    code = "import sys, latticetheta, latticetheta.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
    # the verifier's names still resolve, loading it on first use
    from latticetheta import run_suite, verifier

    assert run_suite is verifier.run_suite


def test_verifier_import_derives_no_appendix_table():
    # the appendix tables, and the fractions module they need, wait for first use
    code = (
        "import sys, latticetheta.verifier as v; "
        "print(v._tables.cache_info().currsize, 'fractions' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False"]


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_identities_pass_and_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "identities")
        assert code == 0
        rows = rows_of(out)
        assert rows and all(r["status"] == "PASS" for r in rows)

    def test_thresholds_report_documented_failures(self, capsys):
        code, out, _ = run(capsys, "verify", "thresholds")
        assert code == 1
        failed = {r["name"] for r in rows_of(out) if r["status"] == "FAIL"}
        assert failed == {"rho1", "rho2", "sigma2b", "alpha0", "theta_alpha0"}

    def test_unknown_suite_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# formats


class TestFormats:
    ROWS = [
        {"name": "a", "value": 1.5, "flag": True},
        {"name": "b", "value": -0.25, "flag": False},
    ]

    def test_csv_uses_crlf_and_roundtrips(self):
        text = format_rows(self.ROWS, "csv")
        assert text.endswith("\r\n")
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["value"] == "1.5"
        assert parsed[1]["flag"] == "false"

    def test_json_is_a_flat_array(self):
        parsed = json.loads(format_rows(self.ROWS, "json"))
        assert parsed == self.ROWS

    def test_text_aligns_columns(self):
        text = format_rows(self.ROWS, "text")
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 3

    def test_empty_rows(self):
        assert format_rows([], "csv") == ""

    def test_out_writes_a_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "eval", "theta", "--z", "0+1i", "--out", str(target)
        )
        assert code == 0 and out == ""
        content = target.read_bytes()
        assert content.startswith(b"expr,s,x,y,value,tail_bound\r\n")

    def test_repeated_runs_are_bit_identical(self, capsys):
        _, first, _ = run(capsys, "trajectory", "W1", "--sweep", "0:1:9")
        _, second, _ = run(capsys, "trajectory", "W1", "--sweep", "0:1:9")
        assert first == second
