"""Moving points, scenes, and the collinearity classification of a triple.

A kinetic point occupies pos + t * vel at time t. The determinant
det[[x_a(t), y_a(t), 1], [x_b(t), y_b(t), 1], [x_c(t), y_c(t), 1]]
is a polynomial in t of degree at most two; its real roots are the only
moments the triple can be collinear.

Classification runs on integers. Each point carries a homogeneous form
(X, Y, VX, VY, D): pos = (X, Y)/D and vel = (VX, VY)/D, with D the least
common denominator of its four coordinates, computed once per point.
triple_polynomials expands the determinant over these integers in pivot
fans: for each pivot a, the difference b - a to each later point is
computed once, over D_a*D_b, and a triple (a, b, c) is one cross product
of two stored differences. That is D_a**2*D_b*D_c times the rational
determinant, a positive multiple, so its roots and signs are the same,
and the event pipeline keys them with root_keys without building a
Fraction. It is the one place the triple determinant is expanded:
collinearity_polynomial is its one-triple case over Fraction, and
classify_triple is solve_quadratic of that polynomial. The exception is
surfaces.surface_of_pair, which expands the pair surface F(x, y, t) over
Fraction for the surface geometry: F_ab evaluated along c's motion is the
rational determinant of (a, b, c), but no event is found from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .exact_numbers import (
    AlgebraicTime,
    RationalLike,
    check_digit_limit,
    solve_quadratic,
)

__all__ = [
    "KineticPoint",
    "Scene",
    "SceneError",
    "TripleClassification",
    "TripleKind",
    "classify_triple",
    "collinearity_polynomial",
    "collision_time",
    "position_at",
    "position_at_rational",
]

Coord = tuple[Fraction, Fraction]
TimeLike = Union[AlgebraicTime, Fraction, int]


class SceneError(ValueError):
    """Raised when a scene violates the scene contract."""


@dataclass(frozen=True)
class KineticPoint:
    """A labeled point moving with constant velocity."""

    id: str
    pos: Coord
    vel: Coord

    @classmethod
    def make(cls, pid, pos, vel) -> "KineticPoint":
        px, py = pos
        vx, vy = vel
        return cls(str(pid), (Fraction(px), Fraction(py)), (Fraction(vx), Fraction(vy)))

    @cached_property
    def homogeneous(self) -> tuple[int, int, int, int, int]:
        """Integers (X, Y, VX, VY, D) with pos = (X, Y)/D, vel = (VX, VY)/D
        and D > 0 the least common denominator of the four coordinates."""
        coords = (*self.pos, *self.vel)
        den = math.lcm(*(c.denominator for c in coords))
        x, y, vx, vy = (c.numerator * (den // c.denominator) for c in coords)
        return (x, y, vx, vy, den)


@dataclass
class Scene:
    """A finite set of kinetic points with distinct non-empty string ids and
    distinct motions, each coordinate within RATIONAL_DIGIT_LIMIT digits per
    numerator and denominator, so that every scene saves and every event
    time serialises.

    meta is free-form JSON-safe annotation; generators use it to record
    their parameters so verification steps can find them later.
    """

    points: tuple[KineticPoint, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = tuple(self.points)
        by_id: dict[str, KineticPoint] = {}
        by_motion: dict[tuple[Coord, Coord], str] = {}
        for pt in self.points:
            if not isinstance(pt.id, str) or not pt.id:
                raise SceneError(f"point 'id' must be a non-empty string, got {pt.id!r}")
            if pt.id in by_id:
                raise SceneError(f"duplicate point id {pt.id!r}")
            by_id[pt.id] = pt
            for name, value in zip(("pos[0]", "pos[1]", "vel[0]", "vel[1]"), (*pt.pos, *pt.vel)):
                try:
                    check_digit_limit(value)
                except OverflowError as exc:
                    raise SceneError(f"point {pt.id!r}: {name} is a {exc}") from exc
            key = (pt.pos, pt.vel)
            if key in by_motion:
                raise SceneError(
                    f"points {by_motion[key]!r} and {pt.id!r} share position and velocity"
                )
            by_motion[key] = pt.id
        self._by_id = by_id

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def point(self, pid: str) -> KineticPoint:
        try:
            return self._by_id[pid]
        except KeyError:
            raise SceneError(f"no point with id {pid!r}") from None


def position_at(point: KineticPoint, t: TimeLike) -> tuple[AlgebraicTime, AlgebraicTime]:
    """Exact planar position pos + t * vel, valid for algebraic times."""
    tv = t if isinstance(t, AlgebraicTime) else AlgebraicTime.from_rational(t)
    return (tv * point.vel[0] + point.pos[0], tv * point.vel[1] + point.pos[1])


def position_at_rational(point: KineticPoint, t: RationalLike) -> Coord:
    """Fraction-only fast path of position_at for rational times."""
    t = Fraction(t)
    return (point.pos[0] + t * point.vel[0], point.pos[1] + t * point.vel[1])


def triple_polynomials(
    points: Sequence[KineticPoint],
) -> Iterator[tuple[KineticPoint, KineticPoint, KineticPoint, int, int, int]]:
    """(a, b, c, c2, c1, c0) for every triple of points, in combinations
    order, with (c2, c1, c0) the integer collinearity polynomial scaled by
    D_a**2*D_b*D_c.

    For each pivot a, the linear-in-t difference b - a to each later point
    b is kept as integers (x0, x1, y0, y1) over D_a*D_b, so the O(n**2)
    differences are computed once and each triple costs one cross product
    of two of them; the degree never exceeds 2.
    """
    forms = [(pt, pt.homogeneous) for pt in points]
    for i, (a, (ax, ay, avx, avy, ad)) in enumerate(forms):
        fan = [
            (b, bx * ad - ax * bd, bvx * ad - avx * bd, by * ad - ay * bd, bvy * ad - avy * bd)
            for b, (bx, by, bvx, bvy, bd) in forms[i + 1 :]
        ]
        for j, (b, ux0, ux1, uy0, uy1) in enumerate(fan):
            for c, vx0, vx1, vy0, vy1 in fan[j + 1 :]:
                yield (
                    a,
                    b,
                    c,
                    ux1 * vy1 - uy1 * vx1,
                    ux0 * vy1 + ux1 * vy0 - uy0 * vx1 - uy1 * vx0,
                    ux0 * vy0 - uy0 * vx0,
                )


def collinearity_polynomial(
    a: KineticPoint, b: KineticPoint, c: KineticPoint
) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (c2, c1, c0) of the triple's collinearity determinant.

    They are the integers of triple_polynomials with pivot c over
    D_a*D_b*D_c**2: the cross product of a - c and b - c, which equals the
    determinant of (a, b, c) because the cyclic order (c, a, b) keeps its
    sign.
    """
    _, _, _, c2, c1, c0 = next(triple_polynomials((c, a, b)))
    scale = a.homogeneous[4] * b.homogeneous[4] * c.homogeneous[4] ** 2
    return (Fraction(c2, scale), Fraction(c1, scale), Fraction(c0, scale))


class TripleKind(Enum):
    ALWAYS_COLLINEAR = "always_collinear"
    COLLINEAR_AT = "collinear_at"
    NEVER_COLLINEAR = "never_collinear"


@dataclass(frozen=True)
class TripleClassification:
    """Outcome of classifying one triple of kinetic points.

    times are the exact collinearity moments, ascending, at most two.
    tangential marks a double root: the triple touches collinearity
    without crossing it.
    """

    kind: TripleKind
    times: tuple[AlgebraicTime, ...]
    tangential: bool


def classify_triple(
    a: KineticPoint, b: KineticPoint, c: KineticPoint
) -> TripleClassification:
    """Classify a triple as always, sometimes, or never collinear, from the
    real roots of its collinearity polynomial."""
    report = solve_quadratic(*collinearity_polynomial(a, b, c))
    if report.roots:
        kind = TripleKind.COLLINEAR_AT
    elif report.identically_zero:
        kind = TripleKind.ALWAYS_COLLINEAR
    else:
        kind = TripleKind.NEVER_COLLINEAR
    return TripleClassification(kind, report.roots, report.double_root)


def collision_time(a: KineticPoint, b: KineticPoint) -> Optional[Fraction]:
    """The unique time two distinct kinetic points coincide, or None.

    Distinct points with equal velocities never meet; otherwise the two
    coordinate equations must agree on the same rational t.
    """
    if a.pos == b.pos and a.vel == b.vel:
        raise ValueError("identical kinetic points have no collision time")
    dvx = a.vel[0] - b.vel[0]
    dvy = a.vel[1] - b.vel[1]
    dpx = b.pos[0] - a.pos[0]
    dpy = b.pos[1] - a.pos[1]
    if dvx == 0 and dvy == 0:
        return None
    if dvx != 0:
        t = dpx / dvx
        return t if dvy * t == dpy else None
    if dpx != 0:
        return None
    return dpy / dvy
