import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fnteich.cli import EVAL_FUNCTIONS, main
from fnteich.suites import GridSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_collar_margin(self, capsys):
        code, out, _ = run(capsys, "eval", "B", "2")
        assert code == 0
        assert out.strip() == "0.136170734455916"

    def test_floor_at_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "h", "0")
        assert code == 0
        assert float(out) == 1.0

    def test_affine(self, capsys):
        code, out, _ = run(capsys, "eval", "affine-k", "1.5")
        assert code == 0
        assert out.strip() == "K=4 mu=0.6"

    def test_affine_near_the_overflow(self, capsys):
        code, out, err = run(capsys, "eval", "affine-k", "1e150")
        assert (code, err, out.strip()) == (0, "", "K=1e+300 mu=1")
        # a^2 overflows: K is not a double
        code, out, err = run(capsys, "eval", "affine-k", "1e155")
        assert (code, out) == (3, "")
        assert "shear coefficient 1e+155" in err

    def test_distance(self, capsys):
        code, out, _ = run(capsys, "eval", "dist", "0", "1", "0", "2")
        assert code == 0
        assert float(out) == pytest.approx(math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("argv,expected", [
        (("dist", "0", "1e-200", "0", "2e-200"), math.log(2.0)),
        (("B", "5e-324"), 372.56660955097060),
        (("omega", "5e-324"), 745.82636628250115)])
    def test_extreme_inputs_give_finite_values(self, capsys, argv, expected):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("argv,expected", [
        (("theta", "5e-324"), "4.94065645841247e-324"),
        (("cyl-interval", "5e-324"), "9.88131291682493e-324"),
        (("hexagon-sides", "5e-324", "1", "1"),
         "1.54387366581061 746.098707751413 746.098707751413"),
        (("arc81", "40"), "cosh_sq=1 l=5.12076290455842e-09 "
         "cap3=5.17218498289893 cap4=6.89624664386524"),
        # these four overflowed to inf
        (("dist", "0", "1", "0", "1e300"), "690.775527898214"),
        (("dist", "0", "1", "1e300", "1"), "1381.55105579643"),
        (("mu-lb", "1e-310"), "455.302613705856"),
        (("mu-lb", "5e-324"), "474.807811528506"),
        # these rounded to 0: |z - w|^2 underflows
        (("dist", "0", "1", "1e-170", "1"), "1e-170"),
        (("dist", "0", "1", "5e-324", "1"), "4.94065645841247e-324"),
        # these lost the last bit of a subnormal distance
        (("dist", "0", "1", "1.5e-323", "1"), "1.48219693752374e-323"),
        (("dist", "0", "1", "2.5e-323", "1"), "2.47032822920623e-323"),
        # sinh(l/2) overflowed
        (("omega", "1430"), "6.03219586826754e-311")])
    def test_values_that_used_to_round_away(self, capsys, argv, expected):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, err, out.strip()) == (0, "", expected)

    def test_distance_heights_too_far_apart(self, capsys):
        code, out, err = run(capsys, "eval", "dist", "0", "1", "0", "1e-320")
        assert (code, out) == (3, "")
        assert "(0.0, 1.0) and (0.0, 1e-320)" in err

    def test_quad_mod_with_infinity(self, capsys):
        code, out, _ = run(capsys, "eval", "quad-mod", "-1", "0", "1", "inf")
        assert code == 0
        assert float(out) == pytest.approx(1.0, rel=1e-12)

    def test_unknown_function(self, capsys):
        code, _, err = run(capsys, "eval", "nope", "1")
        assert code == 2
        assert "unknown function" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "eval", "B", "-1")
        assert code == 3
        assert "l > 0" in err

    def test_bounds_at_a_cap_out_of_range(self, capsys):
        code, out, err = run(capsys, "bounds", "1", "--cap", "400",
                             "--bishop-c", "1")
        assert (code, out) == (3, "")
        assert "length cap 400.0 is out of range" in err

    @pytest.mark.parametrize("argv,cap", [
        (("eval", "L", "746"), "746.0"),
        (("bounds", "1", "--cap", "1000", "--bishop-c", "1"), "1000.0"),
        (("verify", "sandwich", "--grid", "0.5:1000:3"), "1000.0")])
    def test_cap_whose_collar_margin_underflows(self, capsys, argv, cap):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert (f"length cap {cap} is out of range: the collar margin B(N) "
                "underflows to 0") in err
        assert "angle_of_distance" not in err
        # the last integer cap whose collar margin is not 0
        code, out, err = run(capsys, "eval", "L", "745")
        assert (code, err, out.strip()) == (0, "", "4.94065645841247e-324")

    def test_halfwidth_that_underflows(self, capsys):
        code, out, err = run(capsys, "eval", "omega", "1495")
        assert (code, out) == (3, "")
        assert "curve length 1495.0 underflows to 0" in err

    @pytest.mark.parametrize("argv", [
        ("eval", "seam-angle", "inf"), ("eval", "L", "inf"),
        ("bounds", "1", "--cap", "inf", "--bishop-c", "1")])
    def test_infinite_length_cap_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "length cap must be finite and > 0" in err

    @pytest.mark.parametrize("length,message", [
        ("800", "the collar of curve length 800.0 is not representable"),
        ("1e-320", "the collar of curve length 1e-320 is not representable"),
        ("5e-324", "the collar of curve length 5e-324 is not representable"),
        ("inf", "curve length must be finite and > 0, got inf")])
    def test_twist_k_names_the_curve_length(self, capsys, length, message):
        code, out, err = run(capsys, "eval", "twist-k", length, "1")
        assert (code, out) == (3, "")
        assert message in err

    @pytest.mark.parametrize("cap", ["240", "300"])
    def test_seam_angle_rejects_cap_whose_bound_underflows(self, capsys,
                                                           cap):
        code, out, err = run(capsys, "eval", "seam-angle", cap)
        assert (code, out) == (3, "")
        assert f"seam angle bound at length cap {float(cap)}" in err

    @pytest.mark.parametrize("function", ["h", "hprime"])
    def test_nan_twist_time_rejected(self, capsys, function):
        code, out, err = run(capsys, "eval", function, "nan")
        assert code == 3
        assert out == ""
        assert "requires t >= 0, got nan" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "eval", "B", "1", "2")
        assert code == 2

    def test_bad_number(self, capsys):
        code, _, err = run(capsys, "eval", "B", "one")
        assert code == 2

    def test_fractional_index_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "arc81", "1.5")
        assert code == 2
        assert "integer" in err
        code, _, err = run(capsys, "eval", "hexagon-alt", "1", "1", "1",
                           "2.5")
        assert code == 2
        for bad in ("nan", "inf"):
            for argv in (("arc81", bad), ("hexagon-alt", "1", "1", "1", bad)):
                code, _, err = run(capsys, "eval", *argv)
                assert code == 2, argv
                assert "must be an integer" in err


class TestExampleAndDist:
    def test_fn1_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "example", "fn1", "4",
                           "--out", str(tmp_path))
        assert code == 0
        fx = tmp_path / "fn1_n4_w4_x.fnstruct"
        fy = tmp_path / "fn1_n4_w4_y.fnstruct"
        assert fx.exists() and fy.exists()

        code, out, _ = run(capsys, "dist", str(fx), str(fy))
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert float(lines["distance"]) == pytest.approx(math.pi / 2.0,
                                                         abs=1e-12)
        assert lines["exactness"] == "exact"
        assert lines["attained_index"] == "4"

    def test_fn1_raw_twist(self, capsys, tmp_path):
        run(capsys, "example", "fn1", "4", "--out", str(tmp_path))
        fx = tmp_path / "fn1_n4_w4_x.fnstruct"
        fy = tmp_path / "fn1_n4_w4_y.fnstruct"
        code, out, _ = run(capsys, "dist", str(fx), str(fy),
                           "--metric", "raw-twist")
        assert code == 0
        d = float(out.splitlines()[0].split()[1])
        assert d == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_fn2_roundtrip(self, capsys, tmp_path):
        run(capsys, "example", "fn2", "10", "--out", str(tmp_path))
        fx = tmp_path / "fn2_n10_w10_x.fnstruct"
        fy = tmp_path / "fn2_n10_w10_y.fnstruct"
        code, out, _ = run(capsys, "dist", str(fx), str(fy))
        d = float(out.splitlines()[0].split()[1])
        assert d == pytest.approx(math.log(10.0), abs=1e-12)

    def test_identical_files(self, capsys, tmp_path):
        run(capsys, "example", "fn1", "2", "--out", str(tmp_path))
        fx = tmp_path / "fn1_n2_w2_x.fnstruct"
        code, out, _ = run(capsys, "dist", str(fx), str(fx))
        assert code == 0
        assert float(out.splitlines()[0].split()[1]) == 0.0

    def test_byte_determinism(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "example", "pants1", "3", "--out", str(d1))
        run(capsys, "example", "pants1", "3", "--out", str(d2))
        for name in ("pants1_n3_graph_original.txt",
                     "pants1_n3_graph_recut.txt",
                     "pants1_n3_lengths_original.fnstruct",
                     "pants1_n3_lengths_recut.fnstruct"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.fnstruct"
        bad.write_text("fnstruct v1\n1 oops 0.0\n")
        good = tmp_path / "good.fnstruct"
        good.write_text("fnstruct v1\n1 1.0 0.0\n")
        code, _, err = run(capsys, "dist", str(bad), str(good))
        assert code == 2
        assert "bad.fnstruct:2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "dist", str(tmp_path / "no.fnstruct"),
                           str(tmp_path / "no.fnstruct"))
        assert code == 2

    def test_window_mismatch(self, capsys, tmp_path):
        a = tmp_path / "a.fnstruct"
        b = tmp_path / "b.fnstruct"
        a.write_text("fnstruct v1\n1 1.0 0.0\n2 1.0 0.0\n")
        b.write_text("fnstruct v1\n1 1.0 0.0\n")
        code, _, err = run(capsys, "dist", str(a), str(b))
        assert code == 2
        assert "window" in err


class TestGeneratorFiles:
    def dist(self, capsys, *argv):
        code, out, err = run(capsys, "dist", *argv)
        return code, dict(line.split(" ", 1) for line in out.splitlines())

    def test_window_decides_exactness(self, capsys, tmp_path):
        run(capsys, "example", "fn1", "4", "--out", str(tmp_path))
        gx = str(tmp_path / "fn1_n4_w4_x.generator")
        gy = str(tmp_path / "fn1_n4_w4_y.generator")
        code, lines = self.dist(capsys, gx, gy, "--window", "2")
        assert code == 0
        assert lines["exactness"] == "window-truncated"
        code, lines = self.dist(capsys, gx, gy, "--window", "8")
        assert code == 0
        assert float(lines["distance"]) == pytest.approx(
            2.0 * math.pi / 4.0, abs=1e-12)
        assert lines["exactness"] == "exact"
        assert lines["attained_index"] == "4"

    def test_generator_needs_window(self, capsys, tmp_path):
        run(capsys, "example", "fn1", "4", "--out", str(tmp_path))
        gx = str(tmp_path / "fn1_n4_w4_x.generator")
        code, _, err = run(capsys, "dist", gx, gx)
        assert code == 2
        assert "--window" in err
        code, _, err = run(capsys, "embed", gx)
        assert code == 2

    def test_mixed_pair_is_truncated(self, capsys, tmp_path):
        run(capsys, "example", "fn1", "4", "--window", "8",
            "--out", str(tmp_path))
        code, lines = self.dist(
            capsys, str(tmp_path / "fn1_n4_w8_x.fnstruct"),
            str(tmp_path / "fn1_n4_w8_y.generator"), "--window", "8")
        assert code == 0
        assert lines["exactness"] == "window-truncated"
        assert lines["attained_index"] == "4"

    def test_embed_matches_structure_file(self, capsys, tmp_path):
        run(capsys, "example", "fn1", "4", "--window", "6",
            "--out", str(tmp_path))
        from_gen, from_struct = tmp_path / "g.csv", tmp_path / "s.csv"
        assert run(capsys, "embed", str(tmp_path / "fn1_n4_w6_x.generator"),
                   "--window", "6", "--csv", str(from_gen))[0] == 0
        assert run(capsys, "embed", str(tmp_path / "fn1_n4_w6_x.fnstruct"),
                   "--csv", str(from_struct))[0] == 0
        assert from_gen.read_bytes() == from_struct.read_bytes()

    def test_constant_spec_rejected(self, capsys, tmp_path):
        path = tmp_path / "c.generator"
        path.write_text("generator v1 kind=constant n=-7\n")
        code, _, err = run(capsys, "dist", str(path), str(path),
                           "--window", "3")
        assert code == 2
        assert "c.generator:1" in err

    def test_multi_line_spec_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.generator"
        path.write_text("generator v1 kind=ex_fn1_x\nn=2\n")
        code, _, err = run(capsys, "embed", str(path), "--window", "3")
        assert code == 2
        assert "bad.generator:1" in err


class TestEmbed:
    def test_csv_output(self, capsys, tmp_path):
        run(capsys, "example", "fn1", "2", "--out", str(tmp_path))
        code, out, _ = run(capsys, "embed",
                           str(tmp_path / "fn1_n2_w2_y.fnstruct"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,log_length,length_times_twist"
        assert len(lines) == 3
        last = lines[2].split(",")
        assert float(last[1]) == pytest.approx(math.log(0.5), rel=1e-15)
        assert float(last[2]) == pytest.approx(math.pi, rel=1e-15)


    def test_boundary_curve_has_empty_twist_column(self, capsys, tmp_path):
        path = tmp_path / "w.fnstruct"
        path.write_text("fnstruct v1\n1 2.0 -\n2 0.5 3.0\n")
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        assert out.splitlines() == [
            "index,log_length,length_times_twist",
            f"1,{math.log(2.0)!r},", f"2,{math.log(0.5)!r},1.5"]


class TestBounds:
    def test_report_lines(self, capsys):
        code, out, _ = run(capsys, "bounds", "1", "--cap", "1",
                           "--bishop-c", "1")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert float(lines["inverse_constant"]) == 5.0
        assert float(lines["combined_upper"]) > float(lines["twist_upper"])
        assert "note" in lines

    def test_zero_distance(self, capsys):
        code, out, _ = run(capsys, "bounds", "0", "--cap", "1",
                           "--bishop-c", "1")
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert float(lines["combined_upper"]) == 0.0
        assert float(lines["twist_upper"]) == 0.0

    def test_logk_line(self, capsys):
        code, out, _ = run(capsys, "bounds", "1", "--cap", "1",
                           "--bishop-c", "1", "--logk", "1")
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert float(lines["fn_from_qc_upper"]) == 5.0

    @pytest.mark.parametrize("logk", ["nan", "-1"])
    def test_bad_logk_prints_nothing(self, capsys, logk):
        code, out, err = run(capsys, "bounds", "1", "--cap", "1",
                             "--bishop-c", "1", "--logk", logk)
        assert code == 3
        assert out == ""
        assert "log K must be >= 0" in err

    @pytest.mark.parametrize("d,c", [("0", "inf"), ("1", "inf"),
                                     ("1", "nan")])
    def test_non_finite_constant_rejected(self, capsys, d, c):
        code, out, err = run(capsys, "bounds", d, "--cap", "1",
                             "--bishop-c", c)
        assert code == 3
        assert out == ""
        assert f"pants-map constant must be finite and >= 0, got {c}" in err

    def test_reproducible(self, capsys):
        _, out1, _ = run(capsys, "bounds", "1", "--cap", "1",
                         "--bishop-c", "1")
        _, out2, _ = run(capsys, "bounds", "1", "--cap", "1",
                         "--bishop-c", "1")
        assert out1 == out2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "bounds", "1", "--cap", "-1",
                           "--bishop-c", "1")
        assert code == 3


class TestVerify:
    def test_hexagon_rejects_computed_sides_that_round_to_zero(self, capsys):
        # the seams of three sides from about 356 underflow to 0
        code, out, err = run(capsys, "verify", "hexagon", "--grid",
                             "300:700:3")
        assert (code, out) == (3, "")
        assert ("hexagon side lengths must be finite and > 0, got "
                "(0.0, 0.0, 3.326996054616522e-31)") in err

    def test_small_collar_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "collar", "--grid", "0.5:2:3")
        assert code == 0
        assert "status PASS" in out
        assert "failures 0" in out

    def test_chain_step_stays_positive_at_large_lengths(self, capsys,
                                                        tmp_path):
        path = tmp_path / "collar.csv"
        code, out, _ = run(capsys, "verify", "collar", "--grid", "20:60:5",
                           "--csv", str(path))
        assert code == 0
        assert "min_slack 9.357622968839299e-14\n" in out
        with path.open() as fh:
            rows = [r for r in csv.reader(fh) if r[0].startswith("chainstep")]
        assert len(rows) == 5
        assert all(float(r[2]) > 0.0 for r in rows)

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nope")
        assert code == 2

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "verify", "collar", "--grid", "1:2")
        assert code == 2

    @pytest.mark.parametrize("suite,rows", [("hexagon", 27),
                                            ("collar", 246)])
    def test_csv_written(self, capsys, tmp_path, suite, rows):
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "verify", suite, "--grid", "0.5:2:3",
                         "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "check,inputs,lhs,rhs,slack"
        assert len(lines) == 1 + rows
        with open(csv_path, newline="") as fh:
            assert all(len(row) == 5 for row in csv.reader(fh))

    @pytest.mark.parametrize("suite", ["mu", "delta", "all"])
    def test_grid_rejected_for_fixed_axes(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--grid", "0.1:0.2:3")
        assert code == 2
        assert out == ""
        assert "fixed axes" in err

    # example81 at n = 1..10 fails limit_to_one, so that its golden
    # holds a failing row and verify exits 1; mu and delta have fixed
    # axes and take no grid
    @pytest.mark.parametrize("suite,grid,golden", [
        ("collar", "0.5:2:3", "collar_grid_0.5_2_3.csv"),
        ("distance-oracle", "1:2:50", "distance_oracle_grid_1_2_50.csv"),
        ("metric-axioms", "1:2:250", "metric_axioms_grid_1_2_250.csv"),
        ("hexagon", "0.5:2:3", "hexagon_grid_0.5_2_3.csv"),
        ("twist-lower", "0.5:2:3", "twist_lower_grid_0.5_2_3.csv"),
        ("sandwich", "0.5:2:3", "sandwich_grid_0.5_2_3.csv"),
        ("angle", "0.5:2:3", "angle_grid_0.5_2_3.csv"),
        ("example81", "1:10:2", "example81_grid_1_10_2.csv"),
        ("mu", None, "mu.csv"),
        ("delta", None, "delta.csv")])
    def test_csv_matches_golden_file(self, capsys, tmp_path, suite, grid,
                                     golden):
        csv_path = tmp_path / "out.csv"
        grid_args = ("--grid", grid) if grid is not None else ()
        code, _, _ = run(capsys, "verify", suite, *grid_args,
                         "--csv", str(csv_path))
        assert code == (1 if suite == "example81" else 0)
        data = Path(__file__).parent / "data" / golden
        assert csv_path.read_bytes() == data.read_bytes()

    @pytest.mark.parametrize("grid", ["0:0.5:3", "1:1.9:3"])
    def test_example81_rejects_grid_below_two(self, capsys, tmp_path, grid):
        csv_path = tmp_path / "out.csv"
        code, out, err = run(capsys, "verify", "example81", "--grid", grid,
                             "--csv", str(csv_path))
        assert code == 2
        assert out == ""
        assert "hi >= 2" in err
        assert not csv_path.exists()

    @pytest.mark.parametrize("suite", ["collar", "hexagon", "example81"])
    def test_infinite_grid_hi_rejected(self, capsys, tmp_path, suite):
        csv_path = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "verify", suite, "--grid",
                                 "1:inf:3", "--csv", str(csv_path))
        assert (code, out, caught) == (2, "", [])
        assert "grid hi must be finite, got inf" in err
        assert not csv_path.exists()

    def test_example81_csv_holds_plain_floats(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "verify", "example81", "--grid", "1:100:2",
                         "--csv", str(csv_path))
        assert code == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 4
        for row in rows:
            for field in row[2:]:
                float(field)

    def test_verify_all_matches_golden_output(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        golden = Path(__file__).parent / "data" / "verify_all.txt"
        assert "".join(line for line in out.splitlines(keepends=True)
                       if not line.startswith("# wall_time_s")
                       ) == golden.read_text()

    def test_deterministic_output_except_walltime(self, capsys):
        _, out1, _ = run(capsys, "verify", "mu")
        _, out2, _ = run(capsys, "verify", "mu")
        strip = lambda s: [l for l in s.splitlines()
                           if not l.startswith("# wall_time_s")]
        assert strip(out1) == strip(out2)

    def test_example81_flags_cap_question(self, capsys):
        code, out, _ = run(capsys, "verify", "example81",
                           "--grid", "1:10000:2")
        assert code == 0
        assert "status PASS" in out
        assert "violated at n = [1]" in out


# Runs fnteich.cli.main on each argv (a JSON list of lists) in one fresh
# interpreter and prints, per argv, the exit code, stdout, stderr, the
# fnteich submodules and dataclasses loaded by then, and whether numpy
# is loaded by then.
FRESH_CHILD = """
import contextlib, io, json, sys
from fnteich.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append((code, out.getvalue(), err.getvalue(),
                    sorted(m for m in sys.modules
                           if m.startswith("fnteich.") or m == "dataclasses"),
                    "numpy" in sys.modules))
print(json.dumps(results))
"""

SCALAR_ARGVS = (["eval", "B", "2"], ["eval", "h", "0"],
                ["bounds", "1", "--cap", "1", "--bishop-c", "1",
                 "--logk", "0.5"],
                ["eval", "B", "-1"], ["eval", "nosuch", "1"],
                ["eval", "arc81", "nan"])

# arguments that each eval function accepts (arc81 gets the rejected nan,
# since a valid n loads families and with it numpy)
EVAL_ARGS = {
    "B": ["2"], "omega": ["0.5"], "theta": ["0.5"],
    "dist": ["0", "1", "0", "2"], "hexagon-sides": ["1", "1", "1"],
    "hexagon-alt": ["1", "1", "1", "2"], "K": ["0.5"], "mu": ["0.5"],
    "mu-lb": ["0.5"], "h": ["0.5"], "hprime": ["0.5"],
    "quad-mod": ["-1", "0", "1", "inf"], "cyl-interval": ["0.5"],
    "affine-k": ["0.5"], "twist-k": ["1", "0.5"], "L": ["0.5"],
    "seam-angle": ["0.5"], "arc81": ["nan"]}


def run_child(code, arg, **env):
    """Run `python -c code arg` on this checkout's src with the extra
    environment variables env; returns the JSON it prints."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, arg], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_fresh(*argvs):
    return run_child(FRESH_CHILD, json.dumps(argvs))


class TestColdImports:
    def test_scalar_commands_never_load_numpy(self):
        results = run_fresh(*SCALAR_ARGVS)
        assert [numpy for *_, numpy in results] == [False] * 6
        (b, h, bounds, domain, unknown, arc81) = [r[:3] for r in results]
        assert b == [0, "0.136170734455916\n", ""]
        assert h[0] == 0 and float(h[1]) == 1.0
        assert bounds[0] == 0
        assert "fn_from_qc_upper 2.5" in bounds[1].splitlines()
        for (code, out, err), expected, text in (
                (domain, 3, "l > 0"), (unknown, 2, "unknown function"),
                (arc81, 2, "must be an integer")):
            assert code == expected and out == "" and text in err

    def test_scalar_commands_never_load_dataclasses(self):
        assert set(EVAL_ARGS) == set(EVAL_FUNCTIONS)
        evals = [["eval", name, *args] for name, args in EVAL_ARGS.items()]
        results = run_fresh(*SCALAR_ARGVS, *evals)
        assert "dataclasses" not in results[-1][3]
        for argv, (code, out, err, _, _) in zip(evals, results[6:]):
            assert (code, err == "") == ((2, False) if argv[1] == "arc81"
                                         else (0, True)), argv

    def test_array_commands_never_load_dataclasses(self, tmp_path):
        x, y = (str(tmp_path / f"fn1_n4_w4_{s}.fnstruct") for s in "xy")
        results = run_fresh(["example", "fn1", "4", "--out", str(tmp_path)],
                            ["dist", x, y], ["embed", x], ["verify", "mu"])
        assert [code for code, *_ in results] == [0] * 4
        loaded = results[-1][3]
        assert {"fnteich.fnspace", "fnteich.suites"} <= set(loaded)
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize("argv,modules", [
        (["eval", "B", "2"], ["hyperbolic", "reports"]),
        (["eval", "h", "0"], ["conformal", "hyperbolic", "reports"]),
        (SCALAR_ARGVS[2], ["bounds", "hyperbolic", "reports"]),
        (["eval", "nosuch", "1"], []),
        (["eval", "arc81", "nan"], [])])
    def test_each_command_loads_only_its_modules(self, argv, modules):
        [(_, _, _, loaded, _)] = run_fresh(argv)
        assert loaded == sorted(f"fnteich.{m}"
                                for m in ["cli", "errors", *modules])

    def test_dist_loads_numpy(self, capsys, tmp_path):
        run(capsys, "example", "fn1", "4", "--out", str(tmp_path))
        [(code, out, _, _, numpy)] = run_fresh(
            ["dist", str(tmp_path / "fn1_n4_w4_x.fnstruct"),
             str(tmp_path / "fn1_n4_w4_y.fnstruct")])
        assert code == 0 and numpy
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert float(lines["distance"]) == pytest.approx(math.pi / 2.0,
                                                         abs=1e-12)
        assert lines["exactness"] == "exact"
        assert lines["attained_index"] == "4"


# numpy's AVX-512 loops for exp, log and power may differ from libm in the
# last bit; this variable switches them off for one process, and on a CPU
# without AVX-512 it changes nothing
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
# the default log grids of collar, hexagon, twist-lower, angle and sandwich
DEFAULT_LOG_GRIDS = ((0.05, 10.0, 20), (0.05, 10.0, 15), (0.1, 5.0, 50),
                     (0.1, 20.0, 40), (0.5, 5.0, 10))
LOG_POINTS_CHILD = """
import json, sys
from fnteich.suites import GridSpec
print(json.dumps([GridSpec(*g).log_points() for g in json.loads(sys.argv[1])]))
"""


# sha256 of the default-grid --csv of each suite named in argv[1]
CSV_DIGESTS_CHILD = """
import contextlib, hashlib, io, json, os, sys, tempfile
from fnteich.cli import main
digests = []
with tempfile.TemporaryDirectory() as tmp:
    for name in json.loads(sys.argv[1]):
        path = os.path.join(tmp, name + ".csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", name, "--csv", path]) == 0
        with open(path, "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
print(json.dumps(digests))
"""


def test_column_suites_do_not_depend_on_simd_dispatch(capsys, tmp_path):
    names = ["collar", "hexagon", "distance-oracle", "sandwich",
             "twist-lower"]
    digests = []
    for name in names:
        path = tmp_path / f"{name}.csv"
        code, _, _ = run(capsys, "verify", name, "--csv", str(path))
        assert code == 0
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert run_child(CSV_DIGESTS_CHILD, json.dumps(names),
                     **NO_AVX512) == digests


def test_log_grids_do_not_depend_on_simd_dispatch():
    points = run_child(LOG_POINTS_CHILD, json.dumps(DEFAULT_LOG_GRIDS),
                       **NO_AVX512)
    assert points == [GridSpec(*g).log_points() for g in DEFAULT_LOG_GRIDS]
    assert repr(points[0][1]) == "0.0660810364716802"
