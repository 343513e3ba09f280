"""End-to-end command line checks, run in process through main()."""

import json

import pytest

from kineticlines import BoundAudit, gen_no_collinearity, save_scene
from kineticlines.cli import main
from kineticlines.exact_numbers import RATIONAL_DIGIT_LIMIT
from kineticlines.sceneio import EVENTS_CSV_HEADER

from conftest import far_time_scene, make_scene


def write_crossing_scene(tmp_path):
    scene = make_scene(
        ("a", (0, 0), (0, 0)),
        ("b", (0, 1), (1, 0)),
        ("c", (4, 0), (0, 1)),
    )
    path = tmp_path / "crossing.json"
    save_scene(scene, path)
    return path


def write_surrogate_scene(tmp_path):
    """The crossing scene with the id "a\\ud800" written as JSON escapes,
    which json.loads reads as a lone surrogate."""
    path = write_crossing_scene(tmp_path)
    doc = json.loads(path.read_text())
    doc["points"][0]["id"] = "a\ud800"
    path.write_text(json.dumps(doc))
    assert "\\ud800" in path.read_text()
    return path


class TestGenerate:
    def test_writes_scene_and_summary(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["generate", "--construction", "tight", "--n", "5", "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"tight n=5 -> {out}\n"
        data = json.loads(out.read_text())
        assert data["version"] == 1 and len(data["points"]) == 5

    def test_lower_bound_requires_k(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["generate", "--construction", "lower_bound", "--n", "16", "-o", str(out)])
        assert code == 2
        assert "requires k" in capsys.readouterr().err

    def test_bad_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["generate", "--construction", "tight", "--n", "2", "-o", str(out)])
        assert code == 2
        assert not out.exists()

    def test_precision_over_digit_limit_writes_nothing(self, tmp_path, capsys):
        # 2**400 has 121 digits, over the scene coordinate limit
        out = tmp_path / "s.json"
        argv = ["generate", "--construction", "tight", "--n", "4", "-o", str(out)]
        assert main(argv + ["--precision-bits", "400"]) == 2
        assert "limit" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--precision-bits", "200"]) == 0
        assert main(["count", str(out), "--k", "3"]) == 0

    def test_negative_precision_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        argv = ["generate", "--construction", "tight", "--n", "4", "-o", str(out)]
        assert main(argv + ["--precision-bits", "-1"]) == 2
        assert "precision_bits must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_unbuildable_scene_is_usage_error(self, tmp_path, capsys):
        # no input is read, so a scene the arguments cannot build is bad usage
        out = tmp_path / "s.json"
        argv = ["generate", "--construction", "tight", "--n", "10", "-o", str(out)]
        assert main(argv + ["--precision-bits", "0"]) == 2
        assert "share position and velocity" in capsys.readouterr().err
        argv = ["generate", "--construction", "random", "--n", "3", "-o", str(out)]
        assert main(argv + ["--coord-bound", "-1"]) == 2
        assert "coord_bound must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_construction_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--construction", "nope", "--n", "4", "-o", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestEvents:
    def test_json_listing(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["events", str(path)]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [item["time"]["value"] for item in listing] == ["-2/1", "2/1"]
        assert listing[0]["members"] == ["a", "b", "c"]

    def test_csv_listing(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["events", str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == EVENTS_CSV_HEADER
        assert len(lines) == 3

    def test_kmin_filters(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["events", str(path), "--kmin", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_csv_time_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        save_scene(far_time_scene(), path)
        assert main(["events", str(path), "--format", "csv"]) == 0
        (record,) = capsys.readouterr().out.splitlines()[1:]
        time, approx, *_ = record.split(",")
        assert len(time) > 313 and approx == "inf"

    def test_csv_small_time_digits(self, tmp_path, capsys):
        # c crosses the line ab at t = 1/10**15
        path = tmp_path / "small.json"
        scene = make_scene(
            ("a", (0, 0), (0, 0)),
            ("b", (1, 0), (0, 0)),
            ("c", (0, "-1/1000000000000000"), (0, 1)),
        )
        save_scene(scene, path)
        assert main(["events", str(path), "--format", "csv"]) == 0
        records = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[:2] for r in records] == [["1/1000000000000000", "1e-15"]]

    def test_malformed_scene_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["events", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_literal_over_digit_limit_exits_2_before_enumeration(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_crossing_scene(tmp_path)
        doc = json.loads(path.read_text())
        doc["points"][0]["pos"][0] = "1e5000"
        path.write_text(json.dumps(doc))

        def enumerate_events(*args):
            raise AssertionError("enumeration ran on a refused scene")

        monkeypatch.setattr("kineticlines.cli.enumerate_events", enumerate_events)
        assert main(["events", str(path)]) == 2
        err = capsys.readouterr().err
        assert "id 'a'" in err and "'pos'" in err and "limit" in err

    def test_integer_over_int_conversion_limit_exits_2(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        doc = json.loads(path.read_text())
        doc["points"][0]["pos"][0] = "long"
        path.write_text(json.dumps(doc).replace('"long"', "7" * 5000))
        assert main(["events", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"limit of {RATIONAL_DIGIT_LIMIT} digits" in err

    @pytest.mark.parametrize("literal", ["1e-400", "123456789012345678901234567890.0"])
    def test_json_float_coordinate_exits_1(self, tmp_path, capsys, literal):
        path = write_crossing_scene(tmp_path)
        doc = json.loads(path.read_text())
        doc["points"][0]["pos"][0] = "float"
        path.write_text(json.dumps(doc).replace('"float"', literal))
        assert main(["events", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "id 'a'" in captured.err and "'pos'" in captured.err

    def test_non_utf8_scene_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["events", str(bad)]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["events", str(tmp_path / "absent.json")]) == 1

    def test_deeply_nested_scene_exits_1(self, tmp_path, capsys):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100000)
        assert main(["events", str(nested)]) == 1
        assert "nested too deeply" in capsys.readouterr().err


    def test_lone_surrogate_id_exits_1(self, tmp_path, capsys):
        path = write_surrogate_scene(tmp_path)
        assert main(["events", str(path), "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "not encodable as UTF-8" in captured.err


class TestCount:
    def test_bare_integer(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["count", str(path), "--k", "3"]) == 0
        assert capsys.readouterr().out == "2\n"
        assert main(["count", str(path), "--k", "4"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_k_below_three_is_usage_error(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["count", str(path), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be at least 3" in captured.err


class TestPairSurface:
    def test_payload(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["pair-surface", str(path), "a", "b"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair"] == ["a", "b"]
        assert set(payload["surface"]) == {
            "coeff_x",
            "coeff_xt",
            "coeff_y",
            "coeff_yt",
            "coeff_1",
            "coeff_t",
            "coeff_tt",
        }
        assert payload["kind"] == "hyperbolic_paraboloid"
        assert payload["plane"] is None and payload["collision_time"] is None

    def test_unknown_point_exits_2(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["pair-surface", str(path), "a", "zz"]) == 2
        assert "zz" in capsys.readouterr().err


class TestVerify:
    def test_audit_passes(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["verify", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["event_count"] == 2
        assert "oracle_match" not in payload

    def test_oracle_flag(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        assert main(["verify", str(path), "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_match"] is True

    def test_oracle_cap(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        main(["generate", "--construction", "random", "--n", "9", "-o", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out), "--oracle"]) == 2
        assert "capped" in capsys.readouterr().err

    def test_failed_audit_exits_3(self, tmp_path, capsys, monkeypatch):
        # no honest scene can break the proved ceiling, so fake the audit
        path = write_crossing_scene(tmp_path)
        broken = BoundAudit(
            n=3,
            k=3,
            event_count=99,
            event_count_3=99,
            triple_incidences=99,
            bound_3=2,
            bound_k=2,
            no_three_always_collinear=True,
            passed=False,
        )
        monkeypatch.setattr("kineticlines.cli.audit_bounds", lambda scene, k: broken)
        assert main(["verify", str(path)]) == 3
        assert json.loads(capsys.readouterr().out)["pass"] is False


class TestRender:
    def test_times_write_files(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        out_dir = tmp_path / "frames"
        code = main(["render", str(path), "--times", "0", "1/2", "2", "-o", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["t000_0_1.svg", "t001_1_2.svg", "t002_2_1.svg"]
        assert (out_dir / "t002_2_1.svg").read_text().startswith("<svg ")

    def test_at_events(self, tmp_path, capsys):
        path = write_crossing_scene(tmp_path)
        out_dir = tmp_path / "ev"
        assert main(["render", str(path), "--at-events", "-o", str(out_dir)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["event000_k3.svg", "event001_k3.svg"]

    def test_times_over_digit_limit_are_usage_errors(self, tmp_path, capsys):
        # --times takes scene literals: the digit limit and exit 2 before any work
        path = write_crossing_scene(tmp_path)
        out_dir = tmp_path / "frames"
        for literal in ("1e400", "1e-400", "1e3000000", "1/0"):
            with pytest.raises(SystemExit) as exc:
                main(["render", str(path), "--times", literal, "-o", str(out_dir)])
            assert exc.value.code == 2
            assert "argument --times" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_empty_scene_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        save_scene(make_scene(), path)
        assert main(["render", str(path), "--times", "0", "-o", str(tmp_path / "x")]) == 2
        assert "scene has no points to render" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_eventless_scene_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "circle.json"
        save_scene(gen_no_collinearity(5), path)
        assert main(["render", str(path), "--at-events", "-o", str(tmp_path / "x")]) == 2
        assert "scene has no events to render" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_lone_surrogate_id_exits_1_and_writes_nothing(self, tmp_path, capsys):
        path = write_surrogate_scene(tmp_path)
        out_dir = tmp_path / "frames"
        assert main(["render", str(path), "--times", "0", "-o", str(out_dir)]) == 1
        assert "not encodable as UTF-8" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_event_beyond_float_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        save_scene(far_time_scene(), path)
        out_dir = tmp_path / "frames"
        assert main(["render", str(path), "--at-events", "-o", str(out_dir)]) == 2
        assert "beyond float range" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_times_and_at_events_exclusive(self, tmp_path):
        path = write_crossing_scene(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["render", str(path), "--times", "0", "--at-events", "-o", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        path = write_crossing_scene(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "kineticlines", "count", str(path), "--k", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2\n"
