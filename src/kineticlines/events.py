"""Enumeration of k-collinearity events.

An event is a pair (line, time): at that exact time, at least three scene
points lie on the line, they do not all coincide, and the member set is
not collinear at every time. Events are maximal: members are every scene
point on the line at that time.

Enumeration is one pipeline. Every triple is classified, and each root
goes into a bucket keyed by its canonical time, so equal times meet in
one bucket. A bucket evaluates positions and expands member sets over
only the points of its own triples: every member of an event lies in a
member triple that is not always collinear, and that triple has a root
at the event time. Bucket times are sorted by their 64-bit interval
bounds, with exact comparisons only where intervals overlap, and events
at one time by their member tuple.

Assembly runs on integers. At a bucket time t = (p + q*sqrt(d))/r, each
point's position is held as four integers (x, x', y, y'), meaning
((x + x'*sqrt(d))/L, (y + y'*sqrt(d))/L), where L is r times the least
common multiple of the bucket's homogeneous denominators D. With one L
for the bucket, coincidence is tuple equality, and the orientation test
is two integer identities, one for each part of Z[sqrt(d)].

brute_force_events re-derives the same list from scratch for small scenes
and shares only the exact-number layer with the enumeration path, so the
two act as independent implementations of one contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .exact_numbers import (
    AlgebraicTime,
    compare_times,
    solve_quadratic,
)
from .kinematics import (
    KineticPoint,
    Scene,
    TimeLike,
    TripleKind,
    classify_triple,
    # unused here; bench/tracing.py wraps this module attribute
    position_at,  # noqa: F401
)

__all__ = [
    "CollinearityEvent",
    "BoundAudit",
    "enumerate_events",
    "count_k_collinearities",
    "always_collinear_groups",
    "audit_bounds",
    "brute_force_events",
]


@dataclass(frozen=True)
class CollinearityEvent:
    """One maximal (line, time) collinearity event.

    members are the ids of every point on the line at the event time,
    sorted. anchors are the first two members (in sorted order) with
    distinct positions there; they span the event line. tangential is set
    when some member triple only touches collinearity at this time (a
    double root). contains_subcollision is set when some, but not all,
    members coincide at the event time.
    """

    time: AlgebraicTime
    members: tuple[str, ...]
    k: int
    anchors: tuple[str, str]
    tangential: bool
    contains_subcollision: bool

    def __post_init__(self):
        if self.k != len(self.members):
            raise ValueError("k must equal the member count")

    def to_json(self) -> dict:
        return {
            "time": self.time.to_json(),
            "members": list(self.members),
            "k": self.k,
            "anchors": list(self.anchors),
            "tangential": self.tangential,
            "contains_subcollision": self.contains_subcollision,
        }


def _event_order(e1: CollinearityEvent, e2: CollinearityEvent) -> int:
    c = compare_times(e1.time, e2.time)
    if c:
        return c
    if e1.members == e2.members:
        return 0
    return -1 if e1.members < e2.members else 1


def _sorted_events(events: Iterable[CollinearityEvent]) -> list[CollinearityEvent]:
    return sorted(events, key=cmp_to_key(_event_order))


class _TripleClassifier:
    """Memoized classify_triple keyed by sorted point ids; classification
    is permutation invariant, so the sorted key is safe."""

    def __init__(self):
        self._cache: dict[tuple[str, str, str], object] = {}

    def __call__(self, a: KineticPoint, b: KineticPoint, c: KineticPoint):
        key = tuple(sorted((a.id, b.id, c.id)))
        hit = self._cache.get(key)
        if hit is None:
            hit = classify_triple(a, b, c)
            self._cache[key] = hit
        return hit


_Position = tuple[int, int, int, int]


def _positions(
    points: dict[str, KineticPoint], t: AlgebraicTime
) -> dict[str, _Position]:
    """Integer positions (x, x', y, y') of points at t over one shared
    denominator L = r * lcm(D); see the module docstring."""
    p, q, r = t.p, t.q, t.r
    common = math.lcm(*(pt.homogeneous[4] for pt in points.values()))
    positions = {}
    for pid, pt in points.items():
        x, y, vx, vy, den = pt.homogeneous
        s = common // den
        positions[pid] = (s * (x * r + vx * p), s * vx * q, s * (y * r + vy * p), s * vy * q)
    return positions


def _on_line(
    positions: dict[str, _Position], u: str, v: str, d: int
) -> tuple[str, ...]:
    """Sorted ids of the points on the line through the distinct positions
    of u and v: w is on it iff n . w == n . u for the normal n of v - u,
    with both parts of the Z[sqrt(d)] dot product compared."""
    ux, ux_, uy, uy_ = positions[u]
    vx, vx_, vy, vy_ = positions[v]
    nx, nx_, ny, ny_ = uy - vy, uy_ - vy_, vx - ux, vx_ - ux_
    rat = nx * ux + ny * uy + d * (nx_ * ux_ + ny_ * uy_)
    irr = nx * ux_ + nx_ * ux + ny * uy_ + ny_ * uy
    return tuple(
        sorted(
            pid
            for pid, (wx, wx_, wy, wy_) in positions.items()
            if nx * wx + ny * wy + d * (nx_ * wx_ + ny_ * wy_) == rat
            and nx * wx_ + nx_ * wx + ny * wy_ + ny_ * wy == irr
        )
    )


def _first_distinct_pair(
    ids: Sequence[str], positions: dict[str, _Position]
) -> Optional[tuple[str, str]]:
    for u, v in combinations(sorted(ids), 2):
        if positions[u] != positions[v]:
            return (u, v)
    return None


_Root = tuple[tuple[KineticPoint, KineticPoint, KineticPoint], bool]


def _sorted_times(times: Iterable[AlgebraicTime]) -> list[AlgebraicTime]:
    """Times in exact ascending order.

    Each time is keyed by its 64-bit interval bounds. Times whose
    intervals are disjoint are ordered by the bounds alone; compare_times
    runs only inside a run of overlapping intervals.
    """
    keyed = sorted(((t._bounds(64), t) for t in times), key=lambda item: item[0])
    runs: list[list[AlgebraicTime]] = []
    run_hi = 0
    for (lo, hi), t in keyed:
        if runs and lo <= run_hi:
            runs[-1].append(t)
            run_hi = max(run_hi, hi)
        else:
            runs.append([t])
            run_hi = hi
    order = cmp_to_key(compare_times)
    return [t for run in runs for t in sorted(run, key=order)]


def _bucket_events(
    t: AlgebraicTime, roots: Sequence[_Root], k_min: int
) -> list[CollinearityEvent]:
    """The events at time t, ordered by member tuple, from the triples
    with a root at t."""
    points = {p.id: p for trio, _ in roots for p in trio}
    positions = _positions(points, t)
    tangential_of: dict[tuple[str, ...], bool] = {}
    line_of: dict[tuple[str, str], tuple[str, ...]] = {}
    for trio, tangential in roots:
        anchor = _first_distinct_pair([p.id for p in trio], positions)
        if anchor is None:
            # all three coincide here; some triple with two distinct
            # members on the same line discovers the event instead
            continue
        members = line_of.get(anchor)
        if members is None:
            if len(roots) == 1:
                members = tuple(sorted(points))
            else:
                members = _on_line(positions, *anchor, t.d)
            # any distinct pair of members spans this same line; anchors
            # are distinct pairs, so a coincident pair is never looked up
            for pair in combinations(members, 2):
                line_of[pair] = members
        tangential_of[members] = tangential_of.get(members, False) or tangential
    # No filter for coincident or always-collinear member sets: the anchor
    # pair is distinct, and if every member stayed on the anchors' line at
    # all times, the discovering triple would be identically collinear.
    events = []
    for members in sorted(tangential_of):
        if len(members) < k_min:
            continue
        anchors = _first_distinct_pair(members, positions)
        events.append(
            CollinearityEvent(
                time=t,
                members=members,
                k=len(members),
                anchors=anchors,
                tangential=tangential_of[members],
                contains_subcollision=len({positions[m] for m in members}) < len(members),
            )
        )
    return events


def _assemble(scene: Scene, k_min: int, classify) -> list[CollinearityEvent]:
    """Every event with at least k_min members, sorted by time, then by
    member tuple.

    Bucket: each root of each triple goes into a dict keyed by its
    canonical time, so equal times share a bucket. Positions: a bucket
    evaluates and expands over only the points of its own triples. That
    set holds every member of every event at its time, because each
    member lies in a member triple that is not always collinear, and
    that triple has a root there. A bucket of one triple is its own
    member set. Sort: see _sorted_times.
    """
    buckets: dict[AlgebraicTime, list[_Root]] = {}
    for trio in combinations(scene.points, 3):
        cls = classify(*trio)
        # always- and never-collinear triples carry no times
        for t in cls.times:
            buckets.setdefault(t, []).append((trio, cls.tangential))
    events: list[CollinearityEvent] = []
    for t in _sorted_times(buckets):
        events += _bucket_events(t, buckets[t], k_min)
    return events


def enumerate_events(scene: Scene, k_min: int = 3) -> list[CollinearityEvent]:
    """All collinearity events with at least k_min members, sorted by time
    (ties broken by the member tuple). Deterministic for a given scene."""
    if k_min < 3:
        raise ValueError("k_min must be at least 3")
    return _assemble(scene, k_min, classify_triple)


def count_k_collinearities(scene: Scene, k: int) -> int:
    """Number of events whose member count is at least k."""
    if k < 3:
        raise ValueError("k must be at least 3")
    return sum(1 for e in enumerate_events(scene, 3) if e.k >= k)


def always_collinear_groups(
    scene: Scene, *, _classifier: Optional[_TripleClassifier] = None
) -> list[tuple[str, ...]]:
    """Maximal point sets (size >= 3) collinear at every time.

    For each pair, collect the companions that stay collinear with it
    forever; a companion set of size >= 3 is automatically a maximal
    group, and distinct groups share at most one point, so deduplicating
    the companion sets is enough.
    """
    classify = _classifier if _classifier is not None else _TripleClassifier()
    groups: set[tuple[str, ...]] = set()
    for a, b in combinations(scene.points, 2):
        companions = [a.id, b.id]
        for w in scene.points:
            if w.id == a.id or w.id == b.id:
                continue
            if classify(a, b, w).kind is TripleKind.ALWAYS_COLLINEAR:
                companions.append(w.id)
        if len(companions) >= 3:
            groups.add(tuple(sorted(companions)))
    return sorted(groups)


@dataclass(frozen=True)
class BoundAudit:
    """Event counts checked against the combinatorial ceilings.

    event_count counts events of size >= k; event_count_3 counts all
    events. bound_3 = 2*C(n,3) applies unconditionally; bound_k =
    floor(2*C(n,3) / C(k,3)) applies when no three points are always
    collinear. triple_incidences sums, over events, the member triples
    that are not always collinear.
    """

    n: int
    k: int
    event_count: int
    event_count_3: int
    triple_incidences: int
    bound_3: int
    bound_k: int
    no_three_always_collinear: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "event_count": self.event_count,
            "event_count_3": self.event_count_3,
            "triple_incidences": self.triple_incidences,
            "bound_3": self.bound_3,
            "bound_k": self.bound_k,
            "no_three_always_collinear": self.no_three_always_collinear,
            "pass": self.passed,
        }


def audit_bounds(scene: Scene, k: int) -> BoundAudit:
    """Enumerate and check the event counts against both ceilings."""
    if k < 3:
        raise ValueError("k must be at least 3")
    classifier = _TripleClassifier()
    events = _assemble(scene, 3, classifier)
    n = len(scene)
    count_3 = len(events)
    count_k = sum(1 for e in events if e.k >= k)
    bound_3 = 2 * math.comb(n, 3)
    bound_k = (2 * math.comb(n, 3)) // math.comb(k, 3)
    groups = always_collinear_groups(scene, _classifier=classifier)
    no_three_always = not groups
    incidences = 0
    for event in events:
        for trio in combinations(event.members, 3):
            pts = [scene.point(pid) for pid in trio]
            if classifier(*pts).kind is not TripleKind.ALWAYS_COLLINEAR:
                incidences += 1
    passed = count_3 <= bound_3 and (not no_three_always or count_k <= bound_k)
    return BoundAudit(
        n=n,
        k=k,
        event_count=count_k,
        event_count_3=count_3,
        triple_incidences=incidences,
        bound_3=bound_3,
        bound_k=bound_k,
        no_three_always_collinear=no_three_always,
        passed=passed,
    )


# --- independent oracle ----------------------------------------------------
#
# Everything below re-derives events without touching the enumeration path
# above or the kinematics helpers: triple polynomials come from orientation
# samples at three times, positions and orientations are recomputed locally,
# and member sets are grown from anchor pairs per candidate time.


def _bf_static_orientation(
    a: KineticPoint, b: KineticPoint, c: KineticPoint, t: Fraction
) -> Fraction:
    ax, ay = a.pos[0] + t * a.vel[0], a.pos[1] + t * a.vel[1]
    bx, by = b.pos[0] + t * b.vel[0], b.pos[1] + t * b.vel[1]
    cx, cy = c.pos[0] + t * c.vel[0], c.pos[1] + t * c.vel[1]
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _bf_poly(
    a: KineticPoint, b: KineticPoint, c: KineticPoint
) -> tuple[Fraction, Fraction, Fraction]:
    # degree <= 2, so values at t = -1, 0, 1 pin the polynomial down
    f_minus = _bf_static_orientation(a, b, c, Fraction(-1))
    f_zero = _bf_static_orientation(a, b, c, Fraction(0))
    f_plus = _bf_static_orientation(a, b, c, Fraction(1))
    c2 = (f_plus + f_minus) / 2 - f_zero
    c1 = (f_plus - f_minus) / 2
    return (c2, c1, f_zero)


def _bf_position(p: KineticPoint, t: AlgebraicTime) -> tuple[AlgebraicTime, AlgebraicTime]:
    return (t * p.vel[0] + p.pos[0], t * p.vel[1] + p.pos[1])


def _bf_orientation(pa, pb, pc) -> AlgebraicTime:
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])


def brute_force_events(
    scene: Scene,
    time_candidates: Optional[Iterable[TimeLike]] = None,
    max_points: int = 8,
) -> list[CollinearityEvent]:
    """Oracle re-derivation of the full event list for small scenes.

    Collects every triple root (or uses the supplied candidate times),
    then at each time grows member sets from every anchor pair and applies
    the event filters from first principles. Refuses scenes larger than
    max_points unless the caller raises the cap explicitly.
    """
    n = len(scene)
    if n > max_points:
        raise ValueError(f"scene has {n} points; the oracle cap is {max_points}")

    polys: dict[tuple[str, str, str], tuple[Fraction, Fraction, Fraction]] = {}
    reports: dict[tuple[str, str, str], object] = {}

    def poly_of(pts: Sequence[KineticPoint]):
        key = tuple(sorted(p.id for p in pts))
        if key not in polys:
            ordered = sorted(pts, key=lambda p: p.id)
            polys[key] = _bf_poly(*ordered)
        return polys[key]

    def report_of(pts: Sequence[KineticPoint]):
        key = tuple(sorted(p.id for p in pts))
        if key not in reports:
            reports[key] = solve_quadratic(*poly_of(pts))
        return reports[key]

    times: set[AlgebraicTime] = set()
    if time_candidates is None:
        for trio in combinations(scene.points, 3):
            times.update(report_of(trio).roots)
    else:
        for t in time_candidates:
            times.add(
                t if isinstance(t, AlgebraicTime) else AlgebraicTime.from_rational(Fraction(t))
            )

    events: list[CollinearityEvent] = []
    for t in times:
        positions = {p.id: _bf_position(p, t) for p in scene.points}
        seen: set[tuple[str, ...]] = set()
        for a, b in combinations(scene.points, 2):
            pa, pb = positions[a.id], positions[b.id]
            if pa == pb:
                continue
            members = tuple(
                sorted(
                    pid
                    for pid, pw in positions.items()
                    if _bf_orientation(pa, pb, pw).is_zero()
                )
            )
            if len(members) < 3 or members in seen:
                continue
            seen.add(members)
            member_points = [scene.point(m) for m in members]
            if all(
                poly_of(trio) == (0, 0, 0)
                for trio in combinations(member_points, 3)
            ):
                continue
            anchors = None
            for u, v in combinations(members, 2):
                if positions[u] != positions[v]:
                    anchors = (u, v)
                    break
            assert anchors is not None
            distinct = len({positions[m] for m in members})
            tangential = False
            for trio in combinations(member_points, 3):
                report = report_of(trio)
                if report.double_root and report.roots == (t,):
                    if len({positions[p.id] for p in trio}) > 1:
                        tangential = True
                        break
            events.append(
                CollinearityEvent(
                    time=t,
                    members=members,
                    k=len(members),
                    anchors=anchors,
                    tangential=tangential,
                    contains_subcollision=distinct < len(members),
                )
            )
    return _sorted_events(events)
