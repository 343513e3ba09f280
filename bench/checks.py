"""Exact checks of event lists, kept apart from the library's arithmetic.

Every check here recomputes what it needs from the scene's own rationals:
triple determinants are expanded by cofactors (the library uses a cross
product), event times are read as a + b*sqrt(d) with Fraction parts and
evaluated directly (the library uses QuadValue), and times are ordered by
rational interval bounds. A check raises CheckError on the first field it
finds wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, isqrt
from typing import NamedTuple

ZERO_POLY = (0, 0, 0)
_ORDER_START_BITS = 64
_ORDER_MAX_BITS = 1 << 13


class CheckError(Exception):
    """An output field that disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Surd(NamedTuple):
    """The real number a + b*sqrt(d); rational values have b == 0 and d == 0."""

    a: Fraction
    b: Fraction
    d: int


def surd_of_time(t) -> Surd:
    """Read an event time (p + q*sqrt(d))/r field by field."""
    p, q, d, r = t.p, t.q, t.d, t.r
    require(r > 0, f"time {t}: denominator {r} is not positive")
    if q == 0:
        require(d == 0, f"time {t}: rational time carries radicand {d}")
        return Surd(Fraction(p, r), Fraction(0), 0)
    require(d >= 2 and isqrt(d) ** 2 != d, f"time {t}: radicand {d} is a square")
    return Surd(Fraction(p, r), Fraction(q, r), d)


def _mul(f, g):
    """Product of two linear polynomials (ascending coefficients)."""
    return (f[0] * g[0], f[0] * g[1] + f[1] * g[0], f[1] * g[1])


def _sub(f, g):
    return tuple(x - y for x, y in zip(f, g))


def triple_poly(pa, pb, pc):
    """Ascending (c0, c1, c2) of det[[xa, ya, 1], [xb, yb, 1], [xc, yc, 1]],
    expanded along the first column; each coordinate is (value at 0, rate)."""
    (xa, ya), (xb, yb), (xc, yc) = pa, pb, pc
    terms = (
        _mul(xa, _sub(yb, yc)),
        _mul(ya, _sub(xc, xb)),
        _sub(_mul(xb, yc), _mul(xc, yb)),
    )
    return tuple(sum(column) for column in zip(*terms))


def poly_at(poly, s: Surd) -> tuple[Fraction, Fraction]:
    """Rational and radical parts of c0 + c1*s + c2*s^2."""
    c0, c1, c2 = poly
    a, b, d = s
    return (c2 * (a * a + b * b * d) + c1 * a + c0, (2 * c2 * a + c1) * b)


def real_root_count(poly) -> int:
    """Distinct real roots of a polynomial that is not identically zero."""
    c0, c1, c2 = poly
    if c2 == 0:
        return 1 if c1 != 0 else 0
    disc = c1 * c1 - 4 * c2 * c0
    return 2 if disc > 0 else 1 if disc == 0 else 0


def is_double_root(poly, s: Surd) -> bool:
    c0, c1, c2 = poly
    return c2 != 0 and c1 * c1 == 4 * c2 * c0 and s.b == 0 and s.a == Fraction(-c1) / (2 * c2)


def _bounds(s: Surd, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= s * 2**bits <= hi."""
    scale = 1 << bits
    if s.b == 0:
        v = s.a * scale
        return v, v
    root = isqrt(s.d << (2 * bits))
    ends = (s.a * scale + s.b * root, s.a * scale + s.b * (root + 1))
    return min(ends), max(ends)


def surd_float(s: Surd) -> float:
    lo, hi = _bounds(s, 64)
    return float((lo + hi) / (1 << 65))


def compare_surds(x: Surd, y: Surd) -> int:
    """-1, 0, 1 for x <, ==, > y, taking identical forms as equal.

    Two forms that stay inseparable at 8192 bits are a fault either way:
    equal values written two ways would break deduplication.
    """
    if x == y:
        return 0
    bits = _ORDER_START_BITS
    while bits <= _ORDER_MAX_BITS:
        xlo, xhi = _bounds(x, bits)
        ylo, yhi = _bounds(y, bits)
        if xhi < ylo:
            return -1
        if yhi < xlo:
            return 1
        bits *= 2
    raise CheckError(f"times {x} and {y} do not separate: one value in two forms")


class SceneModel:
    """The scene's motions as linear polynomials, with triple determinants
    cached by sorted id triple (their zero sets do not depend on order)."""

    def __init__(self, scene):
        self.ids = tuple(p.id for p in scene.points)
        self.motion = {
            p.id: ((p.pos[0], p.vel[0]), (p.pos[1], p.vel[1])) for p in scene.points
        }
        self._polys: dict[tuple[str, str, str], tuple] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def poly(self, u: str, v: str, w: str):
        key = tuple(sorted((u, v, w)))
        hit = self._polys.get(key)
        if hit is None:
            hit = triple_poly(*(self.motion[pid] for pid in key))
            self._polys[key] = hit
        return hit

    def triples(self):
        return combinations(sorted(self.ids), 3)

    def position(self, pid: str, s: Surd):
        (x0, x1), (y0, y1) = self.motion[pid]
        return ((x0 + x1 * s.a, x1 * s.b), (y0 + y1 * s.a, y1 * s.b))

    def meeting_times(self) -> set[Fraction]:
        """Every rational time at which two points share a position."""
        times = set()
        for u, v in combinations(self.ids, 2):
            (ux0, ux1), (uy0, uy1) = self.motion[u]
            (vx0, vx1), (vy0, vy1) = self.motion[v]
            dx0, dx1, dy0, dy1 = ux0 - vx0, ux1 - vx1, uy0 - vy0, uy1 - vy1
            if dx1 == 0 and dy1 == 0:
                continue
            t = -dx0 / dx1 if dx1 != 0 else -dy0 / dy1
            if dx0 + t * dx1 == 0 and dy0 + t * dy1 == 0:
                times.add(t)
        return times

    def always_collinear_triples(self) -> list[tuple[str, str, str]]:
        return [trio for trio in self.triples() if self.poly(*trio) == ZERO_POLY]

    def root_pairs(self) -> int:
        """Number of (triple, real root) pairs over triples that are not
        collinear at every time."""
        return sum(
            real_root_count(p)
            for p in (self.poly(*trio) for trio in self.triples())
            if p != ZERO_POLY
        )


def check_events(model: SceneModel, events) -> None:
    """Every field of every event, and the order of the list."""
    previous = None
    for index, e in enumerate(events):
        where = f"event {index}"
        members = tuple(e.members)
        require(len(members) >= 3, f"{where}: fewer than three members")
        require(e.k == len(members), f"{where}: k={e.k} but {len(members)} members")
        require(
            all(u < v for u, v in zip(members, members[1:])),
            f"{where}: members not strictly sorted",
        )
        require(all(m in model.motion for m in members), f"{where}: unknown member")
        s = surd_of_time(e.time)
        pos = {m: model.position(m, s) for m in members}
        distinct = set(pos.values())
        require(len(distinct) > 1, f"{where}: all members coincide")

        varying = False
        tangential = False
        for trio in combinations(members, 3):
            poly = model.poly(*trio)
            if poly == ZERO_POLY:
                continue
            varying = True
            require(poly_at(poly, s) == (0, 0), f"{where}: {trio} not collinear at {e.time}")
            if not tangential and is_double_root(poly, s):
                tangential = len({pos[m] for m in trio}) > 1
        require(varying, f"{where}: members are collinear at every time")

        anchors = next((u, v) for u, v in combinations(members, 2) if pos[u] != pos[v])
        require(tuple(e.anchors) == anchors, f"{where}: anchors {e.anchors} != {anchors}")
        u, v = anchors
        for w in model.ids:
            if w not in pos:
                require(
                    poly_at(model.poly(u, v, w), s) != (0, 0),
                    f"{where}: non-member {w} lies on the event line",
                )
        require(e.tangential == tangential, f"{where}: tangential={e.tangential}")
        require(
            e.contains_subcollision == (len(distinct) < len(members)),
            f"{where}: contains_subcollision={e.contains_subcollision}",
        )
        if previous is not None:
            c = compare_surds(previous[0], s)
            require(
                c < 0 or (c == 0 and previous[1] < members),
                f"{where}: out of order or repeated",
            )
        previous = (s, members)


def check_generic_counts(model: SceneModel, events) -> None:
    """Each (triple, real root) pair lies in exactly one event, so the
    events' member triples add up to the root pairs. This holds when no
    triple is collinear at every time and no two points meet at an event."""
    require(not model.always_collinear_triples(), "scene has an always-collinear triple")
    meetings = model.meeting_times()
    for e in events:
        s = surd_of_time(e.time)
        require(s.b != 0 or s.a not in meetings, f"two points meet at event time {e.time}")
    total = sum(comb(e.k, 3) for e in events)
    pairs = model.root_pairs()
    require(total == pairs, f"events hold {total} member triples, scene has {pairs} roots")


def check_tight(model: SceneModel, events) -> None:
    n = len(model)
    require(len(events) == 2 * comb(n, 3), f"{len(events)} events, want 2*C({n},3)")
    require(all(e.k == 3 for e in events), "a tight-scene event has more than 3 members")


def check_no_collinearity(model: SceneModel, events) -> None:
    require(not events, f"{len(events)} events in a scene that has none")
    for trio in model.triples():
        poly = model.poly(*trio)
        require(
            poly != ZERO_POLY and real_root_count(poly) == 0,
            f"triple {trio} has a real collinearity time",
        )


def lower_bound_guarantee(n: int, k: int) -> int:
    """Events at t=0 that gen_lower_bound's geometry promises.

    Two columns (n >= k*k): m = n//k spots per column, every family passing
    through the same spot at t=0, so each of the m*m lines joining a spot
    on x=0 to one on x=1 holds all k families. Clusters (n < k*k): n//k
    clusters on a parabola, no three sites collinear, each pair of sites
    spanning one line that holds both whole clusters."""
    if n >= k * k:
        return (n // k) ** 2
    return comb(n // k, 2)


def check_lower_bound(model: SceneModel, n: int, k: int, audit, events, oracle) -> None:
    """Audit fields recomputed, the t=0 events against the geometry, and
    the enumerator's list against the brute-force oracle."""
    n_points = len(model)
    big = [e for e in events if e.k >= k]
    always = model.always_collinear_triples()
    incidences = sum(
        1
        for e in events
        for trio in combinations(e.members, 3)
        if model.poly(*trio) != ZERO_POLY
    )
    expected = {
        "n": n_points,
        "k": k,
        "event_count": len(big),
        "event_count_3": len(events),
        "triple_incidences": incidences,
        "bound_3": 2 * comb(n_points, 3),
        "bound_k": 2 * comb(n_points, 3) // comb(k, 3),
        "no_three_always_collinear": not always,
        "passed": True,
    }
    for field, want in expected.items():
        got = getattr(audit, field)
        require(got == want, f"audit({n},{k}).{field} = {got}, want {want}")

    guarantee = lower_bound_guarantee(n, k)
    at_zero = [e for e in events if e.time.q == 0 and e.time.p == 0]
    require(
        len(at_zero) == guarantee and all(e.k >= k for e in at_zero),
        f"({n},{k}): {len(at_zero)} events at t=0, want {guarantee} with k >= {k}",
    )
    origin = Surd(Fraction(0), Fraction(0), 0)
    spots: dict[tuple, set[str]] = {}
    for pid in model.ids:
        spots.setdefault(model.position(pid, origin), set()).add(pid)
    for e in at_zero:
        held = {spot for spot, ids in spots.items() if ids & set(e.members)}
        require(
            len(held) == 2 and set(e.members) == set().union(*(spots[h] for h in held)),
            f"({n},{k}): t=0 event {e.members} is not two whole spots",
        )
    require(len(big) >= guarantee, f"({n},{k}): {len(big)} events of k >= {k}")
    require(list(events) == list(oracle), f"({n},{k}): enumerator and oracle disagree")
