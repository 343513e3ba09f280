"""SVG snapshot rendering: determinism, shared viewport, event overlays."""

import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from kineticlines import (
    enumerate_events,
    gen_no_collinearity,
    gen_tight,
    render_at_events,
    render_scene,
)

from conftest import make_scene

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
