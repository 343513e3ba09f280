"""Deterministic SVG snapshots of a scene.

render_scene produces one standalone SVG per requested rational time; the
viewport is computed once from the point positions at every requested
time, so a batch of snapshots shares a fixed frame. Each snapshot shows
labeled dots, fixed-length velocity arrows, light axes, and the line of
every event happening at exactly that time, clipped to the data box.

render_at_events snapshots each enumerated event at that event's own
time instead. Irrational event times are drawn at their float
approximation and the frame carries an "approximate positions" watermark.

All emitted numbers are formatted with four decimals, so identical calls
produce byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .events import CollinearityEvent, enumerate_events
from .exact_numbers import AlgebraicTime
from .kinematics import Scene, position_at

__all__ = ["render_scene", "render_at_events"]

FRAME_WIDTH = 480
FRAME_HEIGHT = 360
MARGIN = 46
ARROW_LEN = 22.0
DOT_RADIUS = 3.0


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


# U+FFFD for each character XML 1.0 forbids in a document (the C0 controls
# but tab, LF and CR, and U+FFFE and U+FFFF; Scene refuses the lone
# surrogates), and the escapes of xml.sax.saxutils.escape, whose module
# would pull urllib.request into every import of the package
_XML_TEXT = {
    **dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd"),
    ord("&"): "&amp;",
    ord("<"): "&lt;",
    ord(">"): "&gt;",
}


def _escape(text: str) -> str:
    """text as XML character data that every XML 1.0 parser accepts."""
    return text.translate(_XML_TEXT)


@dataclass
class _Frame:
    title: str
    approximate: bool
    positions: dict  # id -> (x, y) floats in data coordinates
    lines: list  # pairs of anchor positions for event lines


@dataclass
class _Viewport:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    scale: float
    x0: float
    y0: float

    def sx(self, x):
        return self.x0 + (x - self.xmin) * self.scale

    def sy(self, y):
        return self.y0 + (self.ymax - y) * self.scale


def _viewport(frames: Sequence[_Frame]) -> _Viewport:
    xs = [p[0] for f in frames for p in f.positions.values()]
    ys = [p[1] for f in frames for p in f.positions.values()]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax - xmin < 1e-9:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax - ymin < 1e-9:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    pad_x = 0.05 * (xmax - xmin)
    pad_y = 0.05 * (ymax - ymin)
    xmin, xmax = xmin - pad_x, xmax + pad_x
    ymin, ymax = ymin - pad_y, ymax + pad_y
    avail_w = FRAME_WIDTH - 2 * MARGIN
    avail_h = FRAME_HEIGHT - 2 * MARGIN
    scale = min(avail_w / (xmax - xmin), avail_h / (ymax - ymin))
    x0 = MARGIN + (avail_w - scale * (xmax - xmin)) / 2
    y0 = MARGIN + (avail_h - scale * (ymax - ymin)) / 2
    return _Viewport(xmin, xmax, ymin, ymax, scale, x0, y0)


def _clip_line(ax, ay, bx, by, view: _Viewport):
    """Clip the infinite line through (a, b) to the data box, Liang-Barsky
    style: parametrize p(u) = a + u (b - a) over all real u and intersect
    the four half-planes. Returns two boundary points or None."""
    dx, dy = bx - ax, by - ay
    if dx == 0 and dy == 0:
        return None
    lo, hi = float("-inf"), float("inf")
    for p, q in (
        (-dx, ax - view.xmin),
        (dx, view.xmax - ax),
        (-dy, ay - view.ymin),
        (dy, view.ymax - ay),
    ):
        if p == 0:
            if q < 0:
                return None
            continue
        u = q / p
        if p < 0:
            lo = max(lo, u)
        else:
            hi = min(hi, u)
    if lo >= hi:
        return None
    return ((ax + lo * dx, ay + lo * dy), (ax + hi * dx, ay + hi * dy))


def _frame_svg(frame: _Frame, view: _Viewport, velocities: dict) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{FRAME_WIDTH}"'
        f' height="{FRAME_HEIGHT}" viewBox="0 0 {FRAME_WIDTH} {FRAME_HEIGHT}">',
        f'<rect width="{FRAME_WIDTH}" height="{FRAME_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_fmt(view.x0)}" y="{_fmt(view.y0)}"'
        f' width="{_fmt(view.scale * (view.xmax - view.xmin))}"'
        f' height="{_fmt(view.scale * (view.ymax - view.ymin))}" fill="none" stroke="#cccccc"/>',
        f'<text x="{_fmt(FRAME_WIDTH / 2)}" y="{_fmt(MARGIN - 18)}" text-anchor="middle"'
        f' font-size="13" font-family="monospace">{frame.title}</text>',
    ]
    if frame.approximate:
        parts.append(
            f'<text x="{_fmt(FRAME_WIDTH / 2)}" y="{_fmt(MARGIN - 4)}" text-anchor="middle"'
            f' font-size="10" fill="#aa3333" font-family="monospace">approximate positions</text>'
        )
    if view.xmin < 0 < view.xmax:
        parts.append(
            f'<line x1="{_fmt(view.sx(0))}" y1="{_fmt(view.sy(view.ymin))}"'
            f' x2="{_fmt(view.sx(0))}" y2="{_fmt(view.sy(view.ymax))}" stroke="#eeeeee"/>'
        )
    if view.ymin < 0 < view.ymax:
        parts.append(
            f'<line x1="{_fmt(view.sx(view.xmin))}" y1="{_fmt(view.sy(0))}"'
            f' x2="{_fmt(view.sx(view.xmax))}" y2="{_fmt(view.sy(0))}" stroke="#eeeeee"/>'
        )
    for (ax, ay), (bx, by) in frame.lines:
        clipped = _clip_line(ax, ay, bx, by, view)
        if clipped is None:
            continue
        (cx1, cy1), (cx2, cy2) = clipped
        parts.append(
            f'<line x1="{_fmt(view.sx(cx1))}" y1="{_fmt(view.sy(cy1))}"'
            f' x2="{_fmt(view.sx(cx2))}" y2="{_fmt(view.sy(cy2))}"'
            f' stroke="#d08020" stroke-width="1.5"/>'
        )
    for pid in sorted(frame.positions):
        px, py = frame.positions[pid]
        vx, vy = velocities[pid]
        cx, cy = view.sx(px), view.sy(py)
        norm = (vx * vx + vy * vy) ** 0.5
        if norm > 1e-12:
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}"'
                f' x2="{_fmt(cx + ARROW_LEN * vx / norm)}"'
                f' y2="{_fmt(cy - ARROW_LEN * vy / norm)}" stroke="#3060c0" stroke-width="1"/>'
            )
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(DOT_RADIUS)}" fill="#202020"/>')
        parts.append(
            f'<text x="{_fmt(cx + 5)}" y="{_fmt(cy - 5)}" font-size="10"'
            f' font-family="monospace">{_escape(pid)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _documents(scene: Scene, frames: Sequence[_Frame]) -> list[str]:
    view = _viewport(frames)
    velocities = {p.id: (float(p.vel[0]), float(p.vel[1])) for p in scene.points}
    return [_frame_svg(frame, view, velocities) for frame in frames]


def _float_positions(scene: Scene, t: AlgebraicTime) -> dict:
    """Each point's position at t as floats, by approx; ValueError when t or
    a position lies beyond float range, where nothing can be drawn."""
    positions = {p.id: tuple(v.approx() for v in position_at(p, t)) for p in scene.points}
    values = (t.approx(), *(v for xy in positions.values() for v in xy))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"t = {t} is beyond float range and cannot be drawn")
    return positions


def _frame(
    scene: Scene, t: AlgebraicTime, title: str, events: Sequence[CollinearityEvent]
) -> _Frame:
    """The frame at t, with the line of each given event through its
    anchors; an irrational t is drawn at its approximation."""
    positions = _float_positions(scene, t)
    lines = [(positions[a], positions[b]) for a, b in (e.anchors for e in events)]
    return _Frame(title, not t.is_rational, positions, lines)


def render_scene(scene: Scene, times: Iterable[Fraction]) -> list[str]:
    """One SVG document per requested rational time, sharing one viewport
    computed from the positions at every requested time. Events at exactly
    those times are drawn as lines through their anchors."""
    if not scene.points:
        raise ValueError("scene has no points to render")
    times = [Fraction(t) for t in times]
    if not times:
        raise ValueError("at least one time is required")
    events = enumerate_events(scene)
    frames = []
    for t in times:
        t_alg = AlgebraicTime.from_rational(t)
        at_t = [e for e in events if e.time == t_alg]
        frames.append(_frame(scene, t_alg, f"t = {t}", at_t))
    return _documents(scene, frames)


def render_at_events(
    scene: Scene, k_min: int = 3
) -> tuple[list[CollinearityEvent], list[str]]:
    """One SVG document per enumerated event, at the event's own time;
    ValueError when an event's time or a position there lies beyond float
    range."""
    events = enumerate_events(scene, k_min)
    if not events:
        raise ValueError("scene has no events to render")
    frames = []
    for e in events:
        joiner = "=" if e.time.is_rational else "~"
        title = f"event k={e.k} at t {joiner} {e.time.approx():.6g}"
        frames.append(_frame(scene, e.time, title, [e]))
    return events, _documents(scene, frames)
