"""CLI and file-format tests."""

import csv
import io
import json
import math

import pytest

from mqspline.cli import (
    ReportCell,
    compute_comparison,
    load_point_set,
    main,
    parse_method,
    render_report_csv,
)
from mqspline.errors import ParseError, ValidationError
from mqspline.fairness import QuadratureConfig
from mqspline.geometry import Vec2
from mqspline.pointsets import POINT_SET_1
from mqspline.spline import Cardinal, CatmullRom, KochanekBartels, MinEnergyQuad


class TestLoadPointSet:
    def test_csv_set1(self, tmp_path):
        path = tmp_path / "set1.csv"
        path.write_text("0,0\n1,3\n2,1\n3,2\n")
        ps = load_point_set(str(path))
        assert ps.points == POINT_SET_1
        assert ps.knots is None

    def test_csv_header_and_crlf(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\r\n0,0\r\n1,1\r\n")
        ps = load_point_set(str(path))
        assert ps.points == (Vec2(0, 0), Vec2(1, 1))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_point_set(str(path))

    def test_non_numeric_token_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1,oops\n")
        with pytest.raises(ParseError) as exc_info:
            load_point_set(str(path))
        assert exc_info.value.line == 2

    def test_json_with_knots(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({
            "name": "demo", "points": [[0, 0], [1, 2], [2, 0]], "knots": [0, 1, 3]}))
        ps = load_point_set(str(path))
        assert ps.name == "demo"
        assert ps.knots == (0.0, 1.0, 3.0)

    def test_json_non_increasing_knots(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [[0, 0], [1, 2]], "knots": [1, 1]}))
        with pytest.raises(ValidationError):
            load_point_set(str(path))


class TestParseMethod:
    def test_builtins(self):
        assert isinstance(parse_method("min-energy")[1], MinEnergyQuad)
        assert isinstance(parse_method("catmull-rom")[1], CatmullRom)
        name, m = parse_method("cardinal=0.5")
        assert isinstance(m, Cardinal) and m.tension == 0.5
        name, m = parse_method("kb=0,0.5,0")
        assert isinstance(m, KochanekBartels) and m.bias == 0.5

    def test_unknown(self):
        with pytest.raises(ValidationError):
            parse_method("bezier")

    @pytest.mark.parametrize("spec, label", [
        ("min-energy", "min-energy"),
        ("ours", "min-energy"),
        ("catmull-rom", "catmull-rom"),
        ("cardinal", "cardinal(t=0)"),
        ("cardinal=0.5", "cardinal(t=0.5)"),
        ("kb=0,0.5,0", "kochanek-bartels(t=0,b=0.5,g=0)"),
        ("Kochanek-Bartels=0.25", "kochanek-bartels(t=0.25,b=0,g=0)"),
    ])
    def test_labels(self, spec, label):
        assert parse_method(spec)[0] == label

    @pytest.mark.parametrize("spec", ["cardinal=abc", "cardinal=nan", "cardinal=inf",
                                      "cardinal=0.1,0.2", "kb=0,0.5,0,9", "kb=0,,0",
                                      "catmull-rom=1"])
    def test_rejected(self, spec):
        with pytest.raises(ValidationError):
            parse_method(spec)


class TestSolveCommand:
    def test_worked_example(self, capsys):
        assert main(["solve", "0,0", "0.5,1", "1,0", "--format", "csv"]) == 0
        row = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[0]
        assert float(row["T"]) == pytest.approx(0.5, abs=1e-12)
        roots = sorted(float(row[k]) for k in ("root1", "root2", "root3"))
        assert roots[0] == pytest.approx(0.5 - math.sqrt(6) / 2, abs=1e-12)
        assert roots[1] == pytest.approx(0.5, abs=1e-12)
        assert roots[2] == pytest.approx(0.5 + math.sqrt(6) / 2, abs=1e-12)
        assert float(row["tangent_x"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["tangent_y"]) == pytest.approx(0.0, abs=1e-12)

    def test_collinear_exit_status(self, capsys):
        assert main(["solve", "0,0", "1,0", "2,0"]) == 2
        assert "collinear" in capsys.readouterr().err

    def test_reversal(self, capsys):
        assert main(["solve", "0,0", "1,3", "2,1", "--format", "csv"]) == 0
        fwd = float(list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[0]["T"])
        assert main(["solve", "2,1", "1,3", "0,0", "--format", "csv"]) == 0
        rev = float(list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[0]["T"])
        assert fwd + rev == pytest.approx(1.0, abs=1e-9)


class TestCompareCommand:
    def test_round_trip_csv(self, capsys):
        assert main(["compare", "--preset", "table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 24  # 4 sets x 6 methods
        cells = [ReportCell(r["set"], r["method"], r["params"],
                            float(r["E"]), float(r["V"]), r["knot_convention"], r["status"])
                 for r in rows]
        assert render_report_csv(cells) == out

    def test_symmetric_set_equal_energies(self, capsys):
        assert main(["compare", "--preset", "table1", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        by_method = {r["method"]: float(r["E"]) for r in rows if r["set"] == "set2"}
        assert by_method["min-energy"] == pytest.approx(by_method["catmull-rom"], abs=1e-6)

    def test_straight_line_set_zero_row(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        path.write_text("0,0\n1,1\n2,2\n3,3\n")
        assert main(["compare", str(path), "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(r["status"] == "ok" for r in rows)
        for r in rows:
            assert float(r["E"]) == pytest.approx(0.0, abs=1e-12)
            assert float(r["V"]) == pytest.approx(0.0, abs=1e-12)

    def test_methods_apply_with_preset(self, capsys):
        assert main(["compare", "--preset", "table1", "--methods", "catmull-rom+kb=0,0.5",
                     "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 8  # 4 sets x 2 methods
        assert {r["method"] for r in rows} == {"catmull-rom", "kochanek-bartels(t=0,b=0.5,g=0)"}

    def test_too_few_points_exit_status(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("0,0\n1,1\n2,0\n")
        assert main(["compare", str(path)]) == 2

    def test_per_cell_failure_does_not_abort(self):
        from mqspline.cli import PointSetFile
        good = PointSetFile("good", POINT_SET_1)
        cells = compute_comparison([good], [("min-energy", MinEnergyQuad()),
                                            ("catmull-rom", CatmullRom())],
                                   "uniform", QuadratureConfig())
        assert all(c.status == "ok" for c in cells)
        assert all(c.energy is not None and c.energy >= 0 for c in cells)
        assert all(c.variation is not None and c.variation >= 0 for c in cells)

    def test_unreachable_tolerance_fails_each_cell_on_one_line(self, capsys):
        argv = ["compare", "--preset", "table1", "--tol-rel", "1e-300", "--tol-abs", "1e-300",
                "--format", "csv"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 25  # the header and 4 sets x 6 methods, one line each
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["status"].startswith("failed: no convergence") for r in rows)

    def test_overflowing_points_fail_their_cells(self, tmp_path, capsys):
        _bad_inputs(tmp_path)
        assert main(["compare", str(tmp_path / "overflow.csv"), "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert len(rows) == 6
        assert all(r["status"].startswith("failed: non-finite coordinates") for r in rows)

    @pytest.mark.parametrize("knots", ["uniform", "chord"])
    def test_tiny_points_fail_their_cells(self, tmp_path, capsys, knots):
        # set1 scaled by 1e-140: speed^1.5 underflows to 0 (uniform knots), or the squared
        # curvature rate overflows (chord knots); each cell fails on one line.
        path = tmp_path / "tiny.csv"
        path.write_text("0,0\n1e-140,3e-140\n2e-140,1e-140\n3e-140,2e-140\n")
        assert main(["compare", str(path), "--format", "csv", "--knots", knots]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("\n") == 7
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert all(r["status"].startswith("failed: curvature") for r in rows)
        assert all(r["status"].endswith("out of the float range on " + ("[1, 2]" if knots == "uniform" else
                                                                      "[3.16228e-140, 5.39835e-140]"))
                   for r in rows)


class TestPlotCommand:
    def test_structure(self, tmp_path):
        out = tmp_path / "set1.svg"
        assert main(["plot", "set1", str(out)]) == 0
        doc = out.read_text()
        assert doc.count("<circle") == 4
        assert doc.count("<polyline") == 3
        assert 'stroke="#cc0000"' in doc  # highlighted middle segment

    def test_determinism(self, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert main(["plot", "set3", str(out1), "--tangents"]) == 0
        assert main(["plot", "set3", str(out2), "--tangents"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_tangent_arrow_horizontal_at_apex(self, tmp_path):
        src = tmp_path / "triple.csv"
        src.write_text("0,0\n0.5,1\n1,0\n")
        out = tmp_path / "triple.svg"
        assert main(["plot", str(src), str(out), "--tangents"]) == 0
        doc = out.read_text()
        lines = [l for l in doc.splitlines() if l.startswith("<line")]
        assert len(lines) == 1
        attrs = dict(part.split("=") for part in lines[0][6:-2].split() if "=" in part)
        y1 = float(attrs['y1'].strip('"'))
        y2 = float(attrs['y2'].strip('"'))
        assert y1 == pytest.approx(y2, abs=1e-3)

    def test_overflowing_chord_knots_name_the_cause(self, tmp_path, capsys):
        _bad_inputs(tmp_path)
        assert main(["plot", str(tmp_path / "overflow.csv"), str(tmp_path / "out.svg"), "--knots", "chord"]) == 2
        assert capsys.readouterr().err == ("error: chord-length knots overflow: "
                                           "the summed chord length exceeds the float range\n")

    def test_unwritable_path(self, capsys):
        assert main(["plot", "set1", "/nonexistent-dir/out.svg"]) == 2


class TestEnvPrecedence:
    def test_env_var_sets_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MQS_FORMAT", "csv")
        assert main(["compare", "--preset", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("set,method,params")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MQS_FORMAT", "csv")
        assert main(["compare", "--preset", "table1", "--format", "text"]) == 0
        assert capsys.readouterr().out.startswith("#")


def _bad_inputs(d):
    (d / "adir").mkdir()
    (d / "latin1.csv").write_bytes(b"\xff\xfe0,0\n1,1\n2,0\n3,1\n")
    (d / "doubling_back.csv").write_text("0,0\n1,1\n0,0\n1,0\n")
    pts = [[0, 0], [1, 1], [2, 0], [3, 1]]
    (d / "bool_point.json").write_text(json.dumps({"points": [[0, 0], [1, True], [2, 0], [3, 1]]}))
    (d / "bool_knot.json").write_text(json.dumps({"points": pts, "knots": [False, 1, 2, 3]}))
    (d / "nan_point.json").write_text('{"points": [[0, 0], [1, NaN], [2, 0], [3, 1]]}')
    # An integer beyond the float range: float() of it raises OverflowError.
    (d / "huge_point.json").write_text('{"points": [[0, 0], [1, 1%s], [2, 0], [3, 1]]}' % ("0" * 400))
    # More digits than the int-string conversion limit: json.loads raises a plain ValueError.
    (d / "long_int.json").write_text('{"points": [[0, 0], [1, 1%s], [2, 0], [3, 1]]}' % ("0" * 5000))
    (d / "pts.csv").write_text("0,0\n1,1\n2,0\n3,1\n")
    # Finite points whose differences overflow to inf.
    (d / "overflow.csv").write_text("-1e308,0\n0,1\n1e308,0\n1e308,1\n")


@pytest.mark.parametrize("argv, code", [
    ("compare {d}/adir", 2),
    ("plot {d}/adir {d}/out.svg", 2),
    ("compare {d}/latin1.csv", 2),
    ("plot {d}/latin1.csv {d}/out.svg", 2),
    ("compare --preset table1 --tol-rel -1", 2),
    ("compare --preset table1 --tol-abs 0", 2),
    ("compare {d}/bool_point.json", 2),
    ("compare {d}/bool_knot.json", 2),
    ("compare {d}/nan_point.json", 2),
    ("compare {d}/huge_point.json", 2),
    ("plot set1 {d}/out.svg --method cardinal=abc", 2),
    ("plot set1 {d}/out.svg --method cardinal=nan", 2),
    ("plot set1 {d}/out.svg --method cardinal=inf", 2),
    ("compare --preset table1 --methods kb=0,0.5,0,9", 2),
    ("plot {d}/doubling_back.csv {d}/out.svg", 0),
    ("plot {d}/doubling_back.csv {d}/out.svg --knots chord", 0),
    ("compare --preset table1 {d}/pts.csv", 2),
    ("compare {d}/long_int.json", 2),
    ("solve -- -1e308,0 0,1 1e308,0", 2),
    ("plot {d}/overflow.csv {d}/out.svg", 2),
    ("plot {d}/overflow.csv {d}/out.svg --knots chord", 2),
    ("compare {d}/overflow.csv --knots chord", 2),
])
def test_bad_input_exit_contract(tmp_path, capsys, argv, code):
    """Bad input exits 0, 1 or 2 with at most one error line, never a traceback."""
    _bad_inputs(tmp_path)
    assert main(argv.replace("{d}", str(tmp_path)).split()) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
