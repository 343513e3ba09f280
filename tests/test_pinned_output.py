"""Byte-identity pins: sha256 digests of the event listings, the bound
audits and the SVG snapshots on fixed scenes.

The digests were computed once and are committed here, so any change to
the canonical form of an event time, to the event order, to a flag or to
a rendered coordinate shows up as a digest mismatch. A change that means
to alter the output must recompute them and say why.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from kineticlines import (
    KineticPoint,
    Scene,
    SceneError,
    audit_bounds,
    enumerate_events,
    events_to_json,
    gen_lower_bound,
    gen_no_collinearity_distinct,
    gen_random,
    gen_tight,
    gen_tight_ellipse,
    render_at_events,
    render_scene,
)

from conftest import kinetic_grid, make_scene, parameter_cube

SCENES = {
    "random_20_1": lambda: gen_random(20, 1),
    "random_20_2": lambda: gen_random(20, 2),
    "tight_8": lambda: gen_tight(8),
    "tight_ellipse_7": lambda: gen_tight_ellipse(7),
    "lower_bound_16_4": lambda: gen_lower_bound(16, 4),
    "lower_bound_12_4": lambda: gen_lower_bound(12, 4),
    "no_collinearity_distinct_12": lambda: gen_no_collinearity_distinct(12),
}

SCENE_DIGESTS = {
    "random_20_1": "af37d388929529d1496216ff62a3f7c7700c5519a8e53c606625b5263604fcc4",
    "random_20_2": "69c9f04a01114a4f88847afb261eec1a98a9d61a243af49175b179363f5f8cb4",
    "tight_8": "cd2f752fd9598b8a7f1fd22f2d5dfb6d9b94a02bc233490a2aeebaaa5192a896",
    "tight_ellipse_7": "00fdff14a75932a1dee124e2a52b57d41f7960bfd8176d7588575453d62643f2",
    "lower_bound_16_4": "6d2e2b93a92ce876fb99aaaa4be8bd16e4a7b11ad9065d40e1b7e6b28f7f4a4e",
    "lower_bound_12_4": "3e3746b2ae744bbbc3c5278c3cdae782a9aaffaceace8ed40fe02115c63d9802",
    "no_collinearity_distinct_12": "1f48e3bc72674c682ba0503483206b70e77c47daa7539d3d09ea8a1a1bb897cf",
}

AUDIT_DIGEST = "49ee7c8295212e07e14b99445afdf1c647a5284c1550213b7b30b206b3ee9b9d"
GRID_SCENE_COUNT = 50
GRID_DIGEST = "25396a611759a7ec31c905cc19ae91b31c4a57f6ad12304cc5d9e52ab6a6ddcd"
RENDER_DIGEST = "06eb3ffe665dfb1473115b7c429ddb9a43c8e3af7a5cc221bbcf76a8d640182c"
# parameter_cube(3), then kinetic_grid(6, 8)
DEGENERATE_DIGEST = "b44dadb9ee90bf5e401f03cd784d34bb22b345321adbede27f2044b938202549"


def _update(h, scene: Scene) -> None:
    events = enumerate_events(scene)
    h.update(json.dumps(events_to_json(events), sort_keys=True).encode())
    h.update(b"\n")
    h.update(json.dumps(audit_bounds(scene, 4).to_json(), sort_keys=True).encode())
    h.update(b"\n")


def _grid_scenes(count: int):
    """count valid scenes of 4 to 7 points with coordinates from
    {-2..2}/{1,2,3}: mixed denominators, collisions, shared velocities."""
    rng = random.Random(8)

    def coord():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))

    scenes = []
    while len(scenes) < count:
        points = [
            KineticPoint.make(f"p{i}", (coord(), coord()), (coord(), coord()))
            for i in range(rng.randint(4, 7))
        ]
        try:
            scenes.append(Scene(points))
        except SceneError:
            continue
    return scenes


def render_pin_scene() -> Scene:
    # rational events at t = 0 (three lines) and t = 1/2, a 4-point line at
    # t = -3, and irrational events at (-8 -+ sqrt(34))/2, (-13 -+ sqrt(149))/2
    return make_scene(
        ("a", (1, 0), (1, 0)),
        ("b", (-2, -2), (-1, 1)),
        ("c", (0, -3), (-2, -1)),
        ("d", (0, -3), (0, -1)),
        ("e", (3, 3), (0, 1)),
    )


@pytest.mark.parametrize("name", sorted(SCENES))
def test_scene_output_pinned(name):
    h = hashlib.sha256()
    _update(h, SCENES[name]())
    assert h.hexdigest() == SCENE_DIGESTS[name]


def test_audit_output_pinned():
    # the audit counts lines apart from the event listing, so its JSON is
    # pinned on its own, at three thresholds
    h = hashlib.sha256()
    for scene in [*(SCENES[name]() for name in sorted(SCENES)), gen_lower_bound(20, 4)]:
        for k in (3, 4, 5):
            h.update(json.dumps(audit_bounds(scene, k).to_json(), sort_keys=True).encode())
            h.update(b"\n")
    assert h.hexdigest() == AUDIT_DIGEST


def test_grid_scene_output_pinned():
    h = hashlib.sha256()
    for scene in _grid_scenes(GRID_SCENE_COUNT):
        _update(h, scene)
    assert h.hexdigest() == GRID_DIGEST


def test_degenerate_family_output_pinned():
    # multi-line rational buckets, sub-collisions and always-collinear
    # columns; apart from SCENES, so that the audit pin keeps its scenes
    h = hashlib.sha256()
    for scene in (parameter_cube(3), kinetic_grid(6, 8)):
        _update(h, scene)
    assert h.hexdigest() == DEGENERATE_DIGEST


def test_render_output_pinned():
    scene = render_pin_scene()
    times = {e.time for e in enumerate_events(scene)}
    assert any(t.is_rational for t in times) and not all(t.is_rational for t in times)
    h = hashlib.sha256()
    for doc in render_scene(scene, [Fraction(0), Fraction(1, 2), Fraction(3)]):
        h.update(doc.encode())
    _, docs = render_at_events(scene)
    for doc in docs:
        h.update(doc.encode())
    assert h.hexdigest() == RENDER_DIGEST
