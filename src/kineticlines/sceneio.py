"""JSON scene files and JSON/CSV event listings.

Scene files carry exact rationals as "num/den" strings, never floats, so
a round trip through disk is lossless. Event listings are write-only
reports; their times include a float approximation for human readers
alongside the exact form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from .events import CollinearityEvent
from .exact_numbers import RATIONAL_DIGIT_LIMIT, parse_rational, rational_str
from .kinematics import KineticPoint, Scene, SceneError

__all__ = [
    "SCENE_VERSION",
    "scene_to_json",
    "scene_from_json",
    "save_scene",
    "load_scene",
    "events_to_json",
    "events_to_csv",
]

SCENE_VERSION = 1

EVENTS_CSV_HEADER = "time,approx,k,members,anchors,tangential,contains_subcollision"


def scene_to_json(scene: Scene) -> dict:
    return {
        "version": SCENE_VERSION,
        "points": [
            {
                "id": p.id,
                "pos": [rational_str(p.pos[0]), rational_str(p.pos[1])],
                "vel": [rational_str(p.vel[0]), rational_str(p.vel[1])],
            }
            for p in scene.points
        ],
        "meta": dict(scene.meta),
    }


def _parse_pair(entry: dict, key: str, where: str):
    raw = entry.get(key)
    # json.loads has already rounded a float, and a bool is no coordinate
    if not isinstance(raw, (list, tuple)) or len(raw) != 2 or not all(
        isinstance(value, str) or type(value) is int for value in raw
    ):
        raise SceneError(f"{where}: {key!r} must be a pair of rational strings or integers")
    try:
        return (parse_rational(raw[0]), parse_rational(raw[1]))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SceneError(f"{where}: bad {key!r} value: {exc}") from exc


def scene_from_json(data: dict) -> Scene:
    if not isinstance(data, dict):
        raise SceneError("scene document must be a JSON object")
    version = data.get("version")
    if version != SCENE_VERSION:
        raise SceneError(f"unsupported scene version {version!r}; expected {SCENE_VERSION}")
    raw_points = data.get("points")
    if not isinstance(raw_points, list):
        raise SceneError("scene document needs a 'points' array")
    points = []
    for index, entry in enumerate(raw_points):
        where = f"points[{index}]"
        if not isinstance(entry, dict):
            raise SceneError(f"{where}: expected an object")
        pid = entry.get("id")
        if not isinstance(pid, str) or not pid:
            raise SceneError(f"{where}: 'id' must be a non-empty string")
        where = f"points[{index}] (id {pid!r})"
        points.append(
            KineticPoint.make(pid, _parse_pair(entry, "pos", where), _parse_pair(entry, "vel", where))
        )
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise SceneError("'meta' must be an object when present")
    return Scene(tuple(points), meta=meta)


def json_text(payload) -> str:
    """payload as the strict JSON text that scene files and the CLI write:
    keys sorted, two-space indents, a final newline, and no NaN or
    Infinity, which strict parsers refuse."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def save_scene(scene: Scene, path: Union[str, Path]) -> None:
    Path(path).write_text(json_text(scene_to_json(scene)), encoding="utf-8")


def load_scene(path: Union[str, Path]) -> Scene:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SceneError(f"{path}: not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SceneError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise SceneError(f"{path}: JSON nested too deeply to read") from exc
    except ValueError:
        # json.loads refuses an integer literal longer than
        # sys.get_int_max_str_digits() with a plain ValueError; like a long
        # string literal, it is a value over the digit limit
        over = OverflowError(
            f"a JSON integer over the limit of {RATIONAL_DIGIT_LIMIT} digits"
            " per numerator and denominator"
        )
        raise SceneError(f"{path}: {over}") from over
    return scene_from_json(data)


def events_to_json(events: Iterable[CollinearityEvent]) -> list[dict]:
    return [e.to_json() for e in events]


def _csv_field(text: str, delimiter: str = ",") -> str:
    """text as one RFC 4180 field: quoted, with each '"' doubled, when it
    holds the delimiter, a '"', a newline or a carriage return; as it is
    otherwise."""
    if any(c in text for c in delimiter + '"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _id_record(ids: Iterable[str]) -> str:
    """Point ids as one RFC 4180 record with ';' as the delimiter."""
    return ";".join(_csv_field(pid, ";") for pid in ids)


def events_to_csv(events: Iterable[CollinearityEvent]) -> str:
    """The header line, then one record per event. Members and anchors
    are each one record of point ids with ';' as the delimiter
    (_id_record), so csv.reader(..., delimiter=";") gives the ids back.
    Fields are quoted where RFC 4180 needs it (_csv_field), so csv.reader
    splits every record into the header's seven fields."""
    lines = [EVENTS_CSV_HEADER]
    for e in events:
        fields = (
            str(e.time),
            format(e.time.approx(), ".12g"),
            str(e.k),
            _id_record(e.members),
            _id_record(e.anchors),
            str(e.tangential).lower(),
            str(e.contains_subcollision).lower(),
        )
        lines.append(",".join(map(_csv_field, fields)))
    return "\n".join(lines) + "\n"
