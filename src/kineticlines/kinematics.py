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
computed once, over D_a*D_b, as the four-integer entry (x0, x1, y0, y1),
and a triple (a, b, c) is eight products of two stored differences. That
is D_a**2*D_b*D_c times the rational determinant, a positive multiple,
so its roots and signs are the same, and the event pipeline keys them
with root_keys without building a Fraction. It is the one place the
triple determinant is expanded. Its discriminant c1**2 - 4*c2*c0 is
computed twice, for two decisions: here, whether a triple is ever
collinear, so that the event pipeline gets no tuple for one that is
not; and in exact_numbers.root_keys, again for every yielded triple,
whether its roots are double, rational or an irrational pair.

Most of a never-collinear scene is dropped a whole pivot fan at a time,
by one flat pass over the fan's entries. The difference u(t) = u0 + t*u1
turns about the pivot with sense K_u = cross(u0, u1), and a pair's
discriminant is the integer identity
(cross(u0, v1) - cross(u1, v0))**2 - 4*K_u*K_v. The pass tests the
first pair's discriminant, then the senses, which must share one strict
sign, then sorts the fan by direction at t = 0, exactly, by integer keys
at resolution 2**-S with S = 2*max bit_length(y) + 2, which separates
any two distinct directions, and tests only its m cyclically adjacent
pairs: as in a kinetic sorted order (Basch, Guibas and Hershberger
1999), the first pair to meet is a pair of neighbours. Only a fan that
fails goes on to the triple loop, which reads the same entries. So a
scene with no collinearity, such as the circle families, costs
about n**2 log n instead of n**3/6 triple expansions.

collinearity_polynomial is its one-triple case over Fraction,
classify_triple is solve_quadratic of that polynomial, and
surfaces.surface_of_pair reads the pair surface F_ab(x, y, t) off it, as
the determinant of (a, b) and a point parked at (x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .exact_numbers import AlgebraicTime, check_digit_limit, solve_quadratic

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
    """A finite set of kinetic points with distinct non-empty string ids,
    each encodable as UTF-8, and distinct motions, each coordinate within
    RATIONAL_DIGIT_LIMIT digits per numerator and denominator, so that
    every scene saves and every event time serialises.

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
            try:
                pt.id.encode("utf-8")
            except UnicodeEncodeError:
                # a lone surrogate: no listing, CSV or SVG could write it
                raise SceneError(f"point id {pt.id!r} is not encodable as UTF-8") from None
            if pt.id in by_id:
                raise SceneError(f"duplicate point id {pt.id!r}")
            by_id[pt.id] = pt
            for name, value in zip(("pos[0]", "pos[1]", "vel[0]", "vel[1]"), (*pt.pos, *pt.vel)):
                # a bool is an int subclass, but no coordinate
                if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                    raise SceneError(
                        f"point {pt.id!r}: {name} is not an int or a Fraction: {value!r}"
                    )
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


def triple_polynomials(
    points: Sequence[KineticPoint], *, skip_never_collinear: bool = False
) -> Iterator[tuple[KineticPoint, KineticPoint, KineticPoint, int, int, int]]:
    """(a, b, c, c2, c1, c0) for every triple of points, in combinations
    order, with (c2, c1, c0) the integer collinearity polynomial scaled by
    D_a**2*D_b*D_c; with skip_never_collinear, only the triples that are
    collinear at some time, in the same order: those with a real root
    (c1**2 >= 4*c2*c0 and not c2 == c1 == 0 != c0) and those whose
    polynomial is identically zero, which the event pipeline counts.

    For each pivot a, the linear-in-t difference b - a to each later point
    b is computed once, as the entry (x0, x1, y0, y1) of integers over
    D_a*D_b. With skip_never_collinear, the pivot's fan of m entries goes
    first to _fan_never_collinear, which certifies in about m log m work
    that no two entries are ever collinear with the pivot; a certified
    pivot yields nothing and its C(m, 2) triples are never expanded.

    The triple loop reads the same entries, each zipped with its point. A
    triple's entries u and v give c2 = cross(u1, v1), c1 = cross(u0, v1)
    + cross(u1, v0) and c0 = cross(u0, v0): eight products, and the degree
    never exceeds 2. A negative discriminant means no real root, and a
    nonzero constant none either, so such a triple is skipped before a
    tuple is built.
    """
    forms = [pt.homogeneous for pt in points]
    for i, (ax, ay, avx, avy, ad) in enumerate(forms):
        # loops, not comprehensions: a comprehension here closes over the
        # pivot's integers, and cost a lower-bound-audit pass, whose fans
        # all fail the certificate, 1.0% and no-collinearity's calls 1.5%
        # (medians of 60-80 paired in-process passes)
        entries = []
        for bx, by, bvx, bvy, bd in forms[i + 1 :]:
            entries.append(
                (bx * ad - ax * bd, bvx * ad - avx * bd, by * ad - ay * bd, bvy * ad - avy * bd)
            )
        # the certificate made no-collinearity's op_ref.p50 58.5% lower
        # (BENCH_27.json). The triple loop reads the same entries, eight
        # products a triple. 7-tuples with the sums took six, but their
        # win (BENCH_23.json) was on no-collinearity fans, which the
        # certificate now drops before this loop: they made this call
        # 7-15% faster and no workload's pass (medians of 60 paired calls
        # and of 80 paired in-process passes)
        if skip_never_collinear and len(entries) > 1 and _fan_never_collinear(entries):
            continue
        a, fan = points[i], list(zip(points[i + 1 :], entries))
        for j, (b, (ux0, ux1, uy0, uy1)) in enumerate(fan):
            for c, (vx0, vx1, vy0, vy1) in fan[j + 1 :]:
                c2 = ux1 * vy1 - uy1 * vx1
                c1 = ux0 * vy1 - uy0 * vx1 + ux1 * vy0 - uy1 * vx0
                c0 = ux0 * vy0 - uy0 * vx0
                # a nonzero constant has no root: 400 of the 1,360 triples
                # of a lower-bound-audit pass, which took 4.7% longer when
                # they were yielded (median of 80 paired in-process passes)
                if skip_never_collinear and (
                    c1 * c1 < 4 * c2 * c0 or (not c2 and not c1 and c0)
                ):
                    continue
                yield (a, b, c, c2, c1, c0)


def _fan_never_collinear(fan: list[tuple[int, int, int, int]]) -> bool:
    """True only if no two entries (x0, x1, y0, y1) of a pivot fan (at
    least two) are ever collinear with the pivot; False when that is not
    certified.

    An entry u(t) = u0 + t*u1 turns about the pivot with sense
    K_u = cross(u0, u1), since its angle has derivative K_u/|u(t)|**2.
    A pair's discriminant c1**2 - 4*c2*c0 is the integer identity
    (cross(u0, v1) - cross(u1, v0))**2 - 4*K_u*K_v, so a pair is never
    collinear only if K_u*K_v > 0. One flat pass, each pair test inline,
    in this order: the first pair's discriminant, so that most fans with
    a collinear pair leave before any other work; the senses, which must
    share one strict sign; then the m cyclically adjacent pairs of
    _angular_order's ring, the wrap pair (last, first) included.

    Once every K has one strict sign, no u(t) is ever zero, so each
    entry's direction moves continuously on the circle of directions mod
    pi, and two entries are collinear with the pivot exactly when their
    directions meet. Take the earliest t > 0 at which some pair meets:
    until then the cyclic order is the one at t = 0, and the entries
    inside the closing arc meet its ends at that t too, so an adjacent
    pair meets there; the same holds for t < 0. Directions equal at t = 0,
    such as two horizontal entries, sort next to each other, and their
    pair has c0 = cross(u0, v0) = 0, so a discriminant c1**2 >= 0; a
    double root has a zero discriminant; so both fail the test. This is
    the neighbour argument of kinetic sorted orders (Basch, Guibas and
    Hershberger 1999): the first swap is always between neighbours.
    """
    # the first pair first: without this test a lower-bound-audit pass
    # took 2.2% longer, a tight-extremal pass 1.6% (its triple_polynomials
    # calls 27.2%), and a no-collinearity pass, whose fans all pass, 3.0%
    # less (medians of 60-80 paired in-process passes)
    (ux0, ux1, uy0, uy1), (vx0, vx1, vy0, vy1) = fan[:2]
    cross = ux0 * vy1 - uy0 * vx1 - ux1 * vy0 + uy1 * vx0
    if cross * cross >= 4 * (ux0 * uy1 - uy0 * ux1) * (vx0 * vy1 - vy0 * vx1):
        return False
    senses = [x0 * y1 - y0 * x1 for x0, x1, y0, y1 in fan]
    if min(senses) <= 0 <= max(senses):
        return False
    ring = _angular_order(fan)
    j = ring[-1]
    for k in ring:
        (ux0, ux1, uy0, uy1), (vx0, vx1, vy0, vy1) = fan[j], fan[k]
        cross = ux0 * vy1 - uy0 * vx1 - ux1 * vy0 + uy1 * vx0
        if cross * cross >= 4 * senses[j] * senses[k]:
            return False
        j = k
    return True


def _angular_order(fan: list[tuple[int, int, int, int]]) -> list[int]:
    """Indices of the fan entries (x0, x1, y0, y1) in the order of their
    directions u0 = (x0, y0) at t = 0, mod pi, ties in index order.

    The order is exact. With u0 taken into y > 0, or y = 0 with x > 0,
    its angle is in [0, pi): the horizontal entries go first, next to one
    another (their key is -inf, the one non-integer), and the rest sort
    by the integer key floor(-x0/y0 * 2**S), which is the same for u0 and
    -u0, with S = 2*max bit_length(y0) + 2. Two distinct directions (x, y) and
    (x', y') have cotangents at least 1/|y*y'| > 2**-S apart, so their
    keys differ, and equal directions get equal keys.
    """
    shift = 2 * max([abs(y0) for _, _, y0, _ in fan]).bit_length() + 2
    keys = [(-x0 << shift) // y0 if y0 else -math.inf for x0, _, y0, _ in fan]
    return sorted(range(len(keys)), key=keys.__getitem__)


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
