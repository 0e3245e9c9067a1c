import json
import math

import pytest

from circumquad import cli
from circumquad.cli import body_to_json, main, read_body
from circumquad.corpus import regular_polygon
from circumquad.errors import InconsistentCase


def write_body(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def square_file(tmp_path):
    return write_body(
        tmp_path,
        "square.json",
        {"mode": "float", "vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]},
    )


class TestSolve:
    def test_square(self, tmp_path, capsys):
        rc = main(["solve", square_file(tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["body_area"] == pytest.approx(4.0)
        assert out["area"] == pytest.approx(4.0, rel=1e-6)
        assert out["ratio"] == pytest.approx(1.0, abs=1e-6)
        assert len(out["vertices"]) == 4
        assert not out["degenerate_triangle"]
        assert max(out["midpoint_residuals"]) <= 1e-6

    def test_rational_mode_parses_decimals_exactly(self, tmp_path, capsys):
        path = write_body(
            tmp_path,
            "r.json",
            {
                "mode": "rational",
                "vertices": [["0", "0"], ["1/3", "0"], ["1/3", "0.1"], ["0", "0.1"]],
            },
        )
        body = read_body(path)
        assert body.is_exact
        from fractions import Fraction

        assert body.area == Fraction(1, 3) * Fraction(1, 10)
        rc = main(["solve", path])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_triangle_flagged(self, tmp_path, capsys):
        path = write_body(
            tmp_path,
            "tri.json",
            {"vertices": [[0, 0], [4, 0], [0, 3]]},
        )
        rc = main(["solve", path])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["degenerate_triangle"]
        assert out["ratio"] == 1.0
        assert sorted(out["vertices"]) == [[0.0, 0.0], [0.0, 3.0], [4.0, 0.0]]
        assert out["midpoint_residuals"] == [0.0, 0.0, 0.0]

    def test_solver_flags(self, tmp_path):
        # The solver has no settings: these flags are unknown arguments.
        for command in ("solve", "witness"):
            for name, value in (("grid", "32"), ("tol", "1e-7")):
                with pytest.raises(SystemExit) as exc:
                    main([command, square_file(tmp_path), f"--{name}", value])
                assert exc.value.code == 2


class TestWitness:
    def test_pentagon(self, tmp_path, capsys):
        pent = regular_polygon(5)
        path = write_body(tmp_path, "pent.json", body_to_json(pent))
        rc = main(["witness", path])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case_id"] in (
            "box-large",
            "box-skewed",
            "body-exceeds-octagon",
            "octagon-improved",
        )
        assert out["certified_factor"] <= 1 - 2.6e-7
        assert out["empirical_ratio"] == pytest.approx(3 / math.sqrt(5), abs=1e-5)
        assert len(out["witness"]) == 4
        nm = out["normalizing_map"]
        assert set(nm) == {"matrix", "translation"}
        assert out["case_id"] == "box-large"
        details = out["details"]
        assert list(details) == ["x", "y", "box_area"]
        assert all(type(v) is float for v in details.values())
        assert details["box_area"] == details["x"] * details["y"]

    def test_disk_reports_the_octagon_rung(self, tmp_path, capsys):
        path = write_body(tmp_path, "disk.json", body_to_json(regular_polygon(64)))
        assert main(["witness", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case_id"] == "body-exceeds-octagon"
        assert set(out["normalizing_map"]) == {"matrix", "translation"}
        details = out["details"]
        assert list(details) == [
            "x", "y", "box_area", "octagon_area", "max_octagon_gap"
        ]
        assert all(type(v) is float for v in details.values())
        assert details["max_octagon_gap"] > 0.05

    def test_triangle(self, tmp_path, capsys):
        path = write_body(tmp_path, "tri.json", {"vertices": [[0, 0], [4, 0], [0, 3]]})
        rc = main(["witness", path])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case_id"] == "degenerate-triangle"
        assert out["certified_factor"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert out["normalizing_map"] is None
        assert out["details"] == {}


class TestInputErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_missing_vertices_key(self, tmp_path, capsys):
        path = write_body(tmp_path, "k.json", {"points": [[0, 0], [1, 0], [0, 1]]})
        assert main(["solve", path]) == 2

    def test_bad_mode(self, tmp_path, capsys):
        path = write_body(
            tmp_path, "m.json", {"mode": "hex", "vertices": [[0, 0], [1, 0], [0, 1]]}
        )
        assert main(["solve", path]) == 2

    def test_boolean_coordinate(self, tmp_path, capsys):
        path = write_body(tmp_path, "b.json", {"vertices": [[0, 0], [1, 0], [0, True]]})
        assert main(["solve", path]) == 2

    @pytest.mark.parametrize("bad", ["1e400", "1/0", "abc"])
    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_unparsable_coordinate(self, tmp_path, capsys, bad, mode):
        path = write_body(
            tmp_path, "c.json", {"mode": mode, "vertices": [[bad, 0], [1, 0], [0, 1]]}
        )
        assert main(["solve", path]) == 2
        assert "input error" in capsys.readouterr().err

    def test_library_failure_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise InconsistentCase("forced")

        monkeypatch.setattr(cli, "case_machine", fail)
        assert main(["witness", square_file(tmp_path)]) == 5
        assert "internal error" in capsys.readouterr().err

    def test_collinear_body(self, tmp_path, capsys):
        path = write_body(
            tmp_path, "line.json", {"vertices": [[0, 0], [1, 1], [2, 2], [3, 3]]}
        )
        assert main(["solve", path]) == 3
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("s", [1e150, 1e160])
    def test_too_large_body(self, tmp_path, capsys, s):
        path = write_body(
            tmp_path, "big.json", {"vertices": [[s, 0], [0, s], [-s, 0], [0, -s]]}
        )
        assert main(["solve", path]) == 2
        assert "diameter" in capsys.readouterr().err

    def test_bad_bench_kind(self, capsys):
        assert main(["bench", "--kind", "blobs", "--count", "1"]) == 2

    def test_bad_thread_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CIRCUMQUAD_THREADS", "zero")
        assert main(["bench", "--kind", "pentagon", "--count", "1"]) == 2
        monkeypatch.setenv("CIRCUMQUAD_THREADS", "0")
        assert main(["bench", "--kind", "pentagon", "--count", "1"]) == 2


class TestCertify:
    def test_default_all_proven(self, capsys):
        rc = main(["certify"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_proven"] is True
        assert out["precision_bits"] == 128
        assert len(out["comparisons"]) == 8
        for comp in out["comparisons"]:
            assert comp["verdict"] == "proven"
            lo, hi = comp["lhs_interval"]
            assert lo <= hi

    def test_perturbed_c1(self, capsys):
        rc = main(["certify", "--c1", "1.0001"])
        assert rc == 4
        out = json.loads(capsys.readouterr().out)
        assert out["all_proven"] is False
        assert any(c["verdict"] == "disproven" for c in out["comparisons"])

    def test_low_precision_undecidable(self, capsys):
        rc = main(["certify", "--precision", "8"])
        assert rc == 4
        out = json.loads(capsys.readouterr().out)
        verdicts = {c["verdict"] for c in out["comparisons"]}
        assert "undecidable-at-precision" in verdicts
        assert "disproven" not in verdicts

    def test_precision_floor(self, capsys):
        assert main(["certify", "--precision", "4"]) == 2

    def test_fraction_override_string(self, capsys):
        rc = main(["certify", "--c3", "3"])
        assert rc in (0, 4)
        out = json.loads(capsys.readouterr().out)
        assert out["precision_bits"] == 128

    def test_invalid_override(self, capsys):
        assert main(["certify", "--delta", "1/2"]) == 2
        assert main(["certify", "--c1", "abc"]) == 2
        assert main(["certify", "--c3", "1/0"]) == 2


class TestBench:
    def test_header_and_rows(self, capsys, monkeypatch):
        monkeypatch.setenv("CIRCUMQUAD_THREADS", "1")
        rc = main(["bench", "--kind", "pentagon", "--count", "3", "--seed", "5"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == (
            "id,n_vertices,area_K,area_Q,empirical_ratio,case_id,"
            "certified_factor,runtime_ms"
        )
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            cols = line.split(",")
            assert int(cols[0]) == i
            assert int(cols[1]) == 5
            ratio = float(cols[4])
            assert ratio == pytest.approx(3 / math.sqrt(5), abs=1e-4)
            assert float(cols[6]) <= 1 - 2.6e-7
        assert "# max empirical_ratio =" in captured.err

    def test_deterministic_flag_byte_identical(self, capsys, monkeypatch):
        monkeypatch.setenv("CIRCUMQUAD_THREADS", "1")
        args = [
            "bench", "--kind", "random", "--count", "4",
            "--seed", "3", "--vertices", "12", "--deterministic",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        for line in first.strip().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] == "0"

    def test_parallel_matches_serial(self, capsys, monkeypatch):
        args = [
            "bench", "--kind", "ellipse", "--count", "4",
            "--seed", "2", "--vertices", "16", "--deterministic",
        ]
        monkeypatch.setenv("CIRCUMQUAD_THREADS", "1")
        assert main(args) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv("CIRCUMQUAD_THREADS", "2")
        assert main(args) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestGen:
    def test_stdout_roundtrip(self, capsys):
        rc = main(["gen", "--kind", "regular_k_gon", "--count", "2", "--vertices", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert payload[0]["mode"] == "rational"
        assert ["1", "0"] in payload[0]["vertices"]

    def test_out_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "bodies"
        rc = main(
            [
                "gen", "--kind", "random", "--count", "3",
                "--seed", "9", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        files = sorted(out_dir.glob("body_*.json"))
        assert len(files) == 3
        for f in files:
            body = read_body(str(f))
            assert len(body) >= 4
            assert body.area > 0

    def test_rational_roundtrip_exact(self, tmp_path):
        # Vertex order may rotate through the hull pass, but the coordinates
        # themselves must survive serialization without any rounding.
        pent = regular_polygon(7)
        path = write_body(tmp_path, "heptagon.json", body_to_json(pent))
        back = read_body(path)
        assert back.is_exact
        assert set(back.vertices) == set(pent.vertices)
        assert back.area == pent.area
