"""Scene file round trips, load diagnostics, and event listings."""

import csv
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given

from kineticlines import (
    KineticPoint,
    Scene,
    SceneError,
    enumerate_events,
    events_to_csv,
    events_to_json,
    gen_lower_bound,
    gen_random,
    gen_tight,
    load_scene,
    save_scene,
    scene_from_json,
    scene_to_json,
)
from kineticlines.exact_numbers import RATIONAL_DIGIT_LIMIT
from kineticlines.sceneio import EVENTS_CSV_HEADER, SCENE_VERSION

from conftest import coords, make_scene

F = Fraction


@given(coords(), coords(), coords(), coords())
def test_round_trip_is_exact_for_any_rationals(pos_a, vel_a, pos_b, vel_b):
    if (pos_a, vel_a) == (pos_b, vel_b):
        vel_b = (vel_b[0] + 1, vel_b[1])
    scene = make_scene(("a", pos_a, vel_a), ("b", pos_b, vel_b))
    assert scene_from_json(json.loads(json.dumps(scene_to_json(scene)))) == scene


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        for scene in (gen_tight(4), gen_lower_bound(16, 4), gen_random(5, 3)):
            path = tmp_path / "scene.json"
            save_scene(scene, path)
            loaded = load_scene(path)
            assert loaded == scene
            assert loaded.meta == scene.meta

    def test_dyadic_coordinates_survive(self, tmp_path):
        # tight scenes have denominators near 2**40; the file must keep
        # them exactly, not as floats
        scene = gen_tight(3)
        path = tmp_path / "t.json"
        save_scene(scene, path)
        assert load_scene(path).point("p1").pos == scene.point("p1").pos
        raw = json.loads(path.read_text())
        assert all(isinstance(c, str) for pt in raw["points"] for c in pt["pos"])

    def test_save_refuses_empty_id(self, tmp_path):
        path = tmp_path / "unnamed.json"
        with pytest.raises(SceneError, match="'id'"):
            scene = make_scene(("", (0, 0), (1, 0)))
            save_scene(scene, path)
        assert not path.exists()

    def test_document_shape(self):
        doc = scene_to_json(make_scene(("a", (1, F(1, 2)), (0, -3))))
        assert doc["version"] == SCENE_VERSION
        assert doc["points"] == [{"id": "a", "pos": ["1/1", "1/2"], "vel": ["0/1", "-3/1"]}]
        assert doc["meta"] == {}

    def test_meta_defaults_empty(self):
        scene = scene_from_json({"version": 1, "points": []})
        assert scene.meta == {}


class TestDiagnostics:
    def test_bad_version(self):
        with pytest.raises(SceneError, match="version"):
            scene_from_json({"version": 99, "points": []})

    def test_missing_points(self):
        with pytest.raises(SceneError, match="points"):
            scene_from_json({"version": 1})

    def test_bad_rational_names_the_point(self):
        doc = {
            "version": 1,
            "points": [{"id": "px", "pos": ["1", "2/0"], "vel": ["0", "0"]}],
        }
        with pytest.raises(SceneError, match=r"points\[0\] \(id 'px'\)"):
            scene_from_json(doc)

    def test_non_pair_pos(self):
        doc = {"version": 1, "points": [{"id": "a", "pos": ["1"], "vel": ["0", "0"]}]}
        with pytest.raises(SceneError, match="pair"):
            scene_from_json(doc)

    def test_missing_id(self):
        doc = {"version": 1, "points": [{"pos": ["0", "0"], "vel": ["0", "0"]}]}
        with pytest.raises(SceneError, match="'id'"):
            scene_from_json(doc)

    def test_duplicate_ids_surface_as_scene_error(self):
        doc = {
            "version": 1,
            "points": [
                {"id": "a", "pos": ["0", "0"], "vel": ["1", "0"]},
                {"id": "a", "pos": ["5", "0"], "vel": ["0", "1"]},
            ],
        }
        with pytest.raises(SceneError, match="duplicate"):
            scene_from_json(doc)

    def test_literal_over_digit_limit_names_point_and_field(self):
        for literal in ("1" + "0" * RATIONAL_DIGIT_LIMIT, "1e5000", "1e100000000"):
            doc = {
                "version": 1,
                "points": [{"id": "a", "pos": ["0", "0"], "vel": ["1", literal]}],
            }
            with pytest.raises(SceneError, match=r"id 'a'.*'vel'.*limit"):
                scene_from_json(doc)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SceneError, match="not UTF-8"):
            load_scene(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1, "points": [')
        with pytest.raises(SceneError, match="not valid JSON"):
            load_scene(path)

    def test_deeply_nested_file(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        with pytest.raises(SceneError, match="nested too deeply"):
            load_scene(path)


class TestDigitLimit:
    def scene_at_limit(self):
        # random numerators and denominators of the full 64 digits: each
        # point's lcm of four denominators, and so its event times, come out
        # about as long as the limit allows
        rng = random.Random(7)
        low, high = 10 ** (RATIONAL_DIGIT_LIMIT - 1), 10**RATIONAL_DIGIT_LIMIT

        def coord():
            return F(rng.choice((-1, 1)) * rng.randrange(low, high), rng.randrange(low, high))

        return make_scene(
            *((f"p{i}", (coord(), coord()), (coord(), coord())) for i in range(6))
        )

    def test_scene_at_limit_round_trips_and_serialises(self, tmp_path):
        scene = self.scene_at_limit()
        path = tmp_path / "limit.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert loaded == scene
        events = enumerate_events(loaded)
        assert events
        listing = json.loads(json.dumps(events_to_json(events)))
        assert len(listing) == len(events)

    def test_python_built_scene_over_limit_is_refused(self):
        # before enumeration, not at the event listing's 4300-digit wall
        rng = random.Random(11)
        low, high = 10**119, 10**120

        def coord():
            return F(rng.randrange(low, high), rng.randrange(low, high))

        with pytest.raises(SceneError, match=r"'p0': pos\[0\] is a rational over the limit"):
            make_scene(*((f"p{i}", (coord(), coord()), (coord(), coord())) for i in range(6)))

    def test_save_refuses_what_load_would_refuse(self, tmp_path):
        # the scene itself refuses the coordinate, so there is nothing to save
        path = tmp_path / "big.json"
        with pytest.raises(SceneError, match=r"'a': pos\[1\] is a rational over the limit"):
            save_scene(make_scene(("a", (0, F(1, 10**RATIONAL_DIGIT_LIMIT)), (1, 0))), path)
        assert not path.exists()


class TestEventListings:
    def scene(self):
        return make_scene(
            ("a", (0, 0), (0, 0)),
            ("b", (0, 1), (1, 0)),
            ("c", (4, 0), (0, 1)),
        )

    def test_json_listing(self):
        events = enumerate_events(self.scene())
        listing = events_to_json(events)
        assert [item["time"]["value"] for item in listing] == ["-2/1", "2/1"]
        assert all(item["k"] == 3 for item in listing)

    def test_csv_listing(self):
        events = enumerate_events(self.scene())
        text = events_to_csv(events)
        lines = text.splitlines()
        assert lines[0] == EVENTS_CSV_HEADER
        assert lines[1] == "-2/1,-2,3,a;b;c,a;b,false,false"
        assert text.endswith("\n")

    def test_csv_empty(self):
        assert events_to_csv([]) == EVENTS_CSV_HEADER + "\n"

    def test_csv_quotes_ids_that_need_it(self):
        # one such id per scene, so no other character forces its quotes
        for odd in ("a,b", "c\nd", 'e"f', '"g', "h\ri", "a;b"):
            ids = [odd, "p2", "p3", "p4", "p5"]
            scene = Scene(
                tuple(
                    KineticPoint.make(pid, p.pos, p.vel)
                    for pid, p in zip(ids, gen_random(5, 0).points)
                )
            )
            events = enumerate_events(scene)
            assert any(odd in e.members for e in events)
            rows = list(csv.reader(io.StringIO(events_to_csv(events), newline="")))
            assert rows[0] == EVENTS_CSV_HEADER.split(",")
            assert len(rows) == len(events) + 1
            for row, e in zip(rows[1:], events):
                assert len(row) == 7
                assert row[0] == str(e.time) and row[2] == str(e.k)
                assert tuple(next(csv.reader([row[3]], delimiter=";"))) == e.members
                assert tuple(next(csv.reader([row[4]], delimiter=";"))) == e.anchors
