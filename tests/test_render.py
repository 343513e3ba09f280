"""SVG snapshot rendering: determinism, shared viewport, event overlays."""

import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from kineticlines import render
from kineticlines import (
    enumerate_events,
    gen_no_collinearity,
    gen_tight,
    render_at_events,
    render_scene,
)

from conftest import far_time_scene, make_scene

F = Fraction


def crossing_scene():
    # events at t = -2 and t = 2, both rational
    return make_scene(
        ("a", (0, 0), (0, 0)),
        ("b", (0, 1), (1, 0)),
        ("c", (4, 0), (0, 1)),
    )


DATA_BOX = re.compile(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" fill="none"')


class TestRenderScene:
    def test_one_document_per_time(self):
        docs = render_scene(crossing_scene(), [F(0), F(1), F(2)])
        assert len(docs) == 3
        for doc in docs:
            assert doc.startswith("<svg ")
            assert doc.rstrip().endswith("</svg>")

    def test_byte_determinism(self):
        scene = crossing_scene()
        times = [F(-2), F(1, 3), F(2)]
        assert render_scene(scene, times) == render_scene(scene, times)

    def test_shared_viewport(self):
        # the data box rect must be identical across a batch even though
        # the points spread out over time
        docs = render_scene(crossing_scene(), [F(0), F(10)])
        boxes = [DATA_BOX.search(doc).group(0) for doc in docs]
        assert boxes[0] == boxes[1]

    def test_independent_calls_may_differ(self):
        one = render_scene(crossing_scene(), [F(0)])[0]
        wide = render_scene(crossing_scene(), [F(0), F(10)])[0]
        assert DATA_BOX.search(one).group(0) != DATA_BOX.search(wide).group(0)

    def test_event_line_at_event_time(self):
        docs = render_scene(crossing_scene(), [F(1), F(2)])
        assert "#d08020" not in docs[0]
        assert "#d08020" in docs[1]

    def test_no_watermark_for_rational_times(self):
        docs = render_scene(crossing_scene(), [F(2)])
        assert "approximate positions" not in docs[0]

    def test_labels_and_arrows_present(self):
        doc = render_scene(crossing_scene(), [F(0)])[0]
        for pid in ("a", "b", "c"):
            assert f">{pid}</text>" in doc
        assert doc.count("#3060c0") == 2  # static point a has no arrow

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError, match="at least one time"):
            render_scene(crossing_scene(), [])

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError, match="scene has no points to render"):
            render_scene(make_scene(), [F(0)])

    def test_titles_carry_times(self):
        docs = render_scene(crossing_scene(), [F(1, 3)])
        assert "t = 1/3" in docs[0]

    def test_no_negative_zero(self):
        docs = render_scene(gen_no_collinearity(5), [F(0)])
        assert "-0.0000" not in docs[0]


class TestRenderAtEvents:
    def test_returns_events_and_documents(self):
        events, docs = render_at_events(crossing_scene())
        assert len(events) == 2 and len(docs) == 2
        assert [e.time.as_fraction() for e in events] == [F(-2), F(2)]
        assert "event k=3 at t = -2" in docs[0]
        assert all("#d08020" in doc for doc in docs)

    def test_irrational_event_watermarked(self):
        # tight scenes produce quadratic event times
        scene = gen_tight(3)
        events, docs = render_at_events(scene)
        assert any(not e.time.is_rational for e in events)
        for e, doc in zip(events, docs):
            assert ("approximate positions" in doc) == (not e.time.is_rational)
            if not e.time.is_rational:
                assert "t ~ " in doc

    def test_eventless_scene_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            render_at_events(gen_no_collinearity(4))

    def test_respects_k_min(self):
        with pytest.raises(ValueError):
            render_at_events(crossing_scene(), k_min=4)

    def test_time_beyond_float_range_rejected(self):
        # every position stays finite there; the time does not
        with pytest.raises(ValueError, match="beyond float range"):
            render_at_events(far_time_scene())


def test_characters_xml_forbids_become_replacement_characters():
    # XML 1.0 has no way to write U+0001 or U+FFFF, escaped or not
    scene = make_scene(
        ("a\x01", (0, 0), (0, 0)),
        ("b\uffff", (0, 1), (1, 0)),
        ("c\t", (4, 0), (0, 1)),
    )
    _, event_docs = render_at_events(scene)
    for doc in render_scene(scene, [F(0), F(2)]) + event_docs:
        texts = ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}text")
        assert {"a\ufffd", "b\ufffd", "c\t"} <= {node.text for node in texts}


def test_ids_escaped_as_xml_text():
    scene = make_scene(
        ("a<b", (0, 0), (0, 0)),
        ("R&D", (0, 1), (1, 0)),
        ("c", (4, 0), (0, 1)),
    )
    _, event_docs = render_at_events(scene)
    for doc in render_scene(scene, [F(0), F(2)]) + event_docs:
        texts = ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}text")
        labels = [node.text for node in texts]
        assert {"a<b", "R&D", "c"} <= set(labels)
        assert ">a&lt;b</text>" in doc and ">R&amp;D</text>" in doc


@pytest.mark.parametrize(
    "points, attribute, centre",
    [
        # every point on the vertical line x = 0 at both times
        ((("a", (0, 0), (0, 1)), ("b", (0, 1), (0, 0))), "cx", "240.0000"),
        # every point on the horizontal line y = 0 at both times
        ((("a", (0, 0), (1, 0)), ("b", (1, 0), (0, 0))), "cy", "180.0000"),
    ],
    ids=["vertical", "horizontal"],
)
def test_degenerate_viewport_is_widened_and_centred(points, attribute, centre):
    # a zero-width data box would divide by zero; it is widened by one
    # unit about the line, which lands in the middle of the frame
    for doc in render_scene(make_scene(*points), [F(0), F(1)]):
        dots = re.findall(rf'<circle [^>]*{attribute}="([^"]*)"', doc)
        assert dots == [centre, centre]


def test_event_line_with_coincident_float_anchors_is_skipped():
    # at t = 0 the event's anchors a and b are 10**-30 apart, one float:
    # the line through them has no direction to draw, so only dots remain
    e = F(1, 10**30)
    scene = make_scene(
        ("a", (1, 0), (0, 1)),
        ("b", (1 + e, 0), (0, 0)),
        ("c", (1 + 2 * e, 0), (0, -2)),
    )
    (event,) = enumerate_events(scene)
    assert event.time.as_fraction() == 0 and event.anchors == ("a", "b")
    (doc,) = render_scene(scene, [F(0)])
    assert 'stroke="#d08020"' not in doc
    assert doc.count("<circle ") == 3


class TestClipLine:
    VIEW = render._Viewport(0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "a, b",
        [
            ((0.5, 0.5), (0.5, 0.5)),  # no direction
            ((0.0, 2.0), (1.0, 2.0)),  # horizontal, above the box
            ((-1.0, 0.0), (-1.0, 1.0)),  # vertical, left of the box
            ((2.0, 0.0), (3.0, 1.0)),  # slanted, past the corner (1, 0)
        ],
        ids=["point", "above", "left", "past_corner"],
    )
    def test_line_missing_the_box_gives_none(self, a, b):
        assert render._clip_line(*a, *b, self.VIEW) is None

    def test_line_through_the_box_ends_on_its_sides(self):
        assert render._clip_line(0.5, 0.5, 1.0, 1.0, self.VIEW) == ((0.0, 0.0), (1.0, 1.0))
