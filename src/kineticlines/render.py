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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .events import CollinearityEvent, enumerate_events
from .exact_numbers import AlgebraicTime
from .kinematics import Scene, position_at, position_at_rational

__all__ = ["render_scene", "render_at_events"]

FRAME_WIDTH = 480
FRAME_HEIGHT = 360
MARGIN = 46
ARROW_LEN = 22.0
DOT_RADIUS = 3.0


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _escape(text: str) -> str:
    """text as XML character data, as xml.sax.saxutils.escape writes it;
    importing that module would pull urllib.request into every import of
    the package."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


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


def _rational_frame(scene: Scene, t: Fraction, events: Sequence[CollinearityEvent]) -> _Frame:
    exact = {p.id: position_at_rational(p, t) for p in scene.points}
    positions = {pid: (float(x), float(y)) for pid, (x, y) in exact.items()}
    t_alg = AlgebraicTime.from_rational(t)
    lines = []
    for event in events:
        if event.time != t_alg:
            continue
        a, b = event.anchors
        lines.append((positions[a], positions[b]))
    return _Frame(title=f"t = {t}", approximate=False, positions=positions, lines=lines)


def _event_frame(scene: Scene, event: CollinearityEvent) -> _Frame:
    positions = {}
    for p in scene.points:
        x, y = position_at(p, event.time)
        positions[p.id] = (x.approx(), y.approx())
    a, b = event.anchors
    approximate = not event.time.is_rational
    joiner = "~" if approximate else "="
    title = f"event k={event.k} at t {joiner} {format(event.time.approx(), '.6g')}"
    return _Frame(
        title=title,
        approximate=approximate,
        positions=positions,
        lines=[(positions[a], positions[b])],
    )


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
    frames = [_rational_frame(scene, t, events) for t in times]
    return _documents(scene, frames)


def render_at_events(
    scene: Scene, k_min: int = 3
) -> tuple[list[CollinearityEvent], list[str]]:
    """One SVG document per enumerated event, at the event's own time."""
    events = enumerate_events(scene, k_min)
    if not events:
        raise ValueError("scene has no events to render")
    frames = [_event_frame(scene, e) for e in events]
    return events, _documents(scene, frames)
