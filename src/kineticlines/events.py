"""Enumeration of k-collinearity events.

An event is a pair (line, time): at that exact time, at least three scene
points lie on the line, they do not all coincide, and the member set is
not collinear at every time. Events are maximal: members are every scene
point on the line at that time.

Enumeration is three layers: buckets, lines, events. _buckets makes one
pass over pivot fans (kinematics.triple_polynomials) and puts every
triple whose polynomial has a root into a bucket under each of its
exact_numbers.root_keys keys: plain integers, a rational time's
lowest-terms pair, or one key for an irrational conjugate pair
a -+ sqrt(b), whose two times hold the same triples. _bucket_lines finds
a bucket's lines with their member ids, tangential flags and triple
incidences: a rational bucket groups its triples by the integer key of
their line, and union-find over shared pairs serves only irrational
buckets of two or more triples and always_collinear_groups.

enumerate_events alone builds events: the times of the kept buckets from
one exact_numbers.key_times call, their order from time_order, and at
each time an event per line, a pair bucket's lines found once for both
of its times. audit_bounds and count_k_collinearities stop at lines and
count a pair bucket's twice, with no time built, no radicand reduced, no
sort and no event object.

brute_force_events re-derives the same list from scratch for small scenes
and shares only the exact-number layer with the enumeration path, so the
two act as independent implementations of one contract.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .exact_numbers import (
    AlgebraicTime,
    RootKey,
    compare_times,
    key_times,
    root_keys,
    solve_quadratic,
    time_order,
)
from .kinematics import (
    KineticPoint,
    Scene,
    TimeLike,
    triple_polynomials,
    # unused here; bench/tracing.py wraps these module attributes
    classify_triple,  # noqa: F401
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


@dataclass(frozen=True, slots=True)
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


# a root triple a, b, c and whether the root is double
_Root = tuple[KineticPoint, KineticPoint, KineticPoint, bool]
# a bucket's lines and positions, as _bucket_lines returns them
_Lines = tuple[list[list], Optional[dict[str, tuple[int, int]]]]


def _components(links: Sequence[Sequence[tuple[str, str]]]) -> list[list[int]]:
    """Entries joined through shared pairs, as lists of entry indices.

    links[i] holds the pairs of entry i, and two entries with a pair in
    common are in one component (union-find with path halving, Tarjan
    1975).
    """
    if len(links) < 2:
        return [[i] for i in range(len(links))]
    parent = list(range(len(links)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner: dict[tuple[str, str], int] = {}
    for i, pairs in enumerate(links):
        for pair in pairs:
            j = owner.setdefault(pair, i)
            if j != i:
                parent[root(j)] = root(i)
    components: dict[int, list[int]] = {}
    for i in range(len(links)):
        components.setdefault(root(i), []).append(i)
    return list(components.values())


def _line_key(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int, int]:
    """The line through the distinct integer points p and q, as (dx, dy, c):
    (dx, dy) is q - p over its gcd, signed so that dx > 0, or dx == 0 and
    dy > 0, and every point (x, y) of the line has dx*y - dy*x == c."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    g = math.gcd(dx, dy) if dx > 0 or (dx == 0 and dy > 0) else -math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    return (dx, dy, dx * p[1] - dy * p[0])


def _buckets(scene: Scene) -> tuple[dict[RootKey, list[_Root]], int]:
    """Every triple in a bucket under each of its root keys, and the
    number of always-collinear triples.

    One pass over the pivot fans of triple_polynomials, looked up on this
    module at call time, gives each triple's integer polynomial. A triple
    with a negative discriminant is skipped before any call; root_keys
    reports the rest, counting an identically zero polynomial as an
    always-collinear triple and a double root as tangential. Equal times
    have equal keys, so a bucket holds every root triple at its time. An
    integer polynomial with the root a + sqrt(b) or a - sqrt(b), b a
    rational non-square, has both, so one pair bucket under (a, b), with
    one record per triple, holds every root triple at each of the two.
    """
    by_key: dict[RootKey, list[_Root]] = {}
    always = 0
    for a, b, c, c2, c1, c0 in triple_polynomials(scene.points):
        if c1 * c1 - 4 * c2 * c0 < 0:
            continue
        keys, identically_zero, double_root = root_keys(c2, c1, c0)
        always += identically_zero
        for key in keys:
            by_key.setdefault(key, []).append((a, b, c, double_root))
    return by_key, always


def _meet(key: tuple[int, int], trio: Sequence[KineticPoint]) -> bool:
    """Whether the points of trio all coincide at the rational time
    num/den of key: a point's position is (X*den + VX*num, Y*den + VY*num)
    over D*den, and two of them coincide when the cross products of
    numerators and denominators agree."""
    num, den = key
    (x, y, vx, vy, d), *others = (pt.homogeneous for pt in trio)
    px, py = x * den + vx * num, y * den + vy * num
    return all(
        (ox * den + ovx * num) * d == px * od and (oy * den + ovy * num) * d == py * od
        for ox, oy, ovx, ovy, od in others
    )


def _bucket_lines(key: RootKey, roots: Sequence[_Root]) -> _Lines:
    """The lines of the bucket at key, each as [member ids, tangential,
    triple incidences], and the integer positions of the bucket's points
    (None for a pair key: conjugating a + sqrt(b) to a - sqrt(b) fixes
    the scene's rational motions, so its two times have the same lines).

    Two points distinct at t span one line, and a root triple with such a
    pair lies on that line only. A line is the points of the root triples
    on it: members are their union, tangential the OR of their flags. A
    triple whose points all coincide at t joins no line. Every line has
    at least three members and is one event.

    A rational bucket keys each root triple by its line, from integer
    positions over one denominator: P and Q are its first two points at
    distinct positions, and the key is (dx, dy, dx*P.y - dy*P.x) with
    (dx, dy) = (Q - P) / gcd, signed so that dx > 0, or dx == 0 and
    dy > 0 (_line_key). Any two distinct points of a line give its one
    key, so equal keys are exactly one line.

    Completeness: let S = (u, v, w) be a root triple, u and v distinct at
    t, and x a point on its line at t. Some root triple with a distinct
    pair holds x, and so lies on that line: (u, v, x) if it is not always
    collinear, since a triple collinear at t that is not always collinear
    has a root there. Otherwise x moves on the line uv, so neither
    (u, x, w) nor (v, x, w) is always collinear, or S would be. Both are
    root triples, and x is distinct from u or from v at t, so one of them
    has a distinct pair. The members of a line are therefore every point
    on it at t.

    Irrational times need no positions: two distinct motions meet at most
    once, at a rational time (kinematics.collision_time), so at an
    irrational t every pair is distinct, the anchors are the first two
    members, and no members coincide. Triples sharing a pair there share
    its line, and the completeness step, taken from triple to triple,
    joins a line's root triples through shared pairs, so its lines are
    the union-find components (_components) over all three pairs.

    One triple: by completeness, a fourth point on the line of a
    bucket's one root triple would put a second root triple there, so the
    line is one event of exactly those three points, or none when they
    coincide at a rational t. At an irrational t it is not tangential (a
    double root, like a collision, falls at a rational time), and
    enumerate_events emits it with no call here; audit_bounds counts
    every one-triple bucket with none. At k_min >= 4 enumerate_events
    drops every one-triple bucket.

    Incidences: a member triple that is not always collinear is collinear
    at t, so it is a root triple of the bucket. One with a distinct pair
    belongs to its own line's event only; a coincident one to every event
    whose line equation its position satisfies.
    """
    if len(key) > 2:
        # every pair is distinct at an irrational time, and no root is double
        trios = [(a.id, b.id, c.id) for a, b, c, _ in roots]
        components = _components([[(a, b), (a, c), (b, c)] for a, b, c in trios])
        lines = [[{pid for i in comp for pid in trios[i]}, False, len(comp)] for comp in components]
        return lines, None
    # integer positions at t = num/den over the one denominator
    # den*lcm(D), so that coincidence is tuple equality and a line has an
    # integer key
    num, den = key
    forms = {pt.id: pt.homogeneous for root in roots for pt in root[:3]}
    common = math.lcm(*(form[4] for form in forms.values()))
    positions = {
        pid: ((x * den + vx * num) * (common // d), (y * den + vy * num) * (common // d))
        for pid, (x, y, vx, vy, d) in forms.items()
    }
    lines: dict[tuple[int, int, int], list] = {}
    coincident: list[tuple[int, int]] = []
    for pa, pb, pc, tangential in roots:
        qa, qb, qc = positions[pa.id], positions[pb.id], positions[pc.id]
        q = qb if qb != qa else qc
        if q == qa:
            coincident.append(qa)
            continue
        line = lines.setdefault(_line_key(qa, q), [set(), False, 0])
        line[0].update((pa.id, pb.id, pc.id))
        line[1] = line[1] or tangential
        line[2] += 1
    if coincident:
        # a coincident triple lies on every line through its one position
        for (dx, dy, c), line in lines.items():
            line[2] += sum(dx * y - dy * x == c for x, y in coincident)
    return list(lines.values()), positions


def _line_events(t: AlgebraicTime, bucket: _Lines, k_min: int) -> list[CollinearityEvent]:
    """The events at time t with at least k_min members, ordered by
    member tuple, from the lines and positions that _bucket_lines gives."""
    lines, positions = bucket
    events = []
    for ids, tangential, _ in lines:
        if len(ids) < k_min:
            continue
        members = tuple(sorted(ids))
        anchors = members[:2]
        subcollision = False
        if positions is not None:
            if positions[anchors[0]] == positions[anchors[1]]:
                anchors = next(
                    (u, v) for u, v in combinations(members, 2) if positions[u] != positions[v]
                )
            subcollision = len({positions[m] for m in members}) < len(members)
        events.append(CollinearityEvent(t, members, len(members), anchors, tangential, subcollision))
    events.sort(key=lambda e: e.members)
    return events


def enumerate_events(scene: Scene, k_min: int = 3) -> list[CollinearityEvent]:
    """All collinearity events with at least k_min members, sorted by time
    (ties broken by the member tuple). Deterministic for a given scene.

    The kept buckets of _buckets become their AlgebraicTimes in one
    key_times call, a pair key giving its two, and time_order orders the
    times by index, by the bounds key_times built, with no time hashed.
    A pair bucket's lines serve both of its times. At k_min >= 4 a
    one-triple bucket holds no event (see _bucket_lines) and is dropped
    before either step.
    """
    if k_min < 3:
        raise ValueError("k_min must be at least 3")
    kept = [item for item in _buckets(scene)[0].items() if k_min == 3 or len(item[1]) > 1]
    times = key_times([key for key, _ in kept])
    # key_times gives a rational key (num, den) one time, a pair key two
    bucket_of = [i for i, (key, _) in enumerate(kept) for _ in range(len(key) // 2)]
    pair_lines: dict[int, _Lines] = {}
    events: list[CollinearityEvent] = []
    for j in time_order(times):
        t, i = times[j], bucket_of[j]
        key, roots = kept[i]
        if len(key) == 2:
            events += _line_events(t, _bucket_lines(key, roots), k_min)
        elif len(roots) == 1:
            a, b, c, _ = roots[0]
            members = tuple(sorted((a.id, b.id, c.id)))
            events.append(CollinearityEvent(t, members, 3, members[:2], False, False))
        else:
            lines = pair_lines.pop(i, None)
            if lines is None:
                lines = pair_lines[i] = _bucket_lines(key, roots)
            events += _line_events(t, lines, k_min)
    return events


def count_k_collinearities(scene: Scene, k: int) -> int:
    """Number of events whose member count is at least k, counted by
    audit_bounds."""
    return audit_bounds(scene, k).event_count


def always_collinear_groups(scene: Scene) -> list[tuple[str, ...]]:
    """Maximal point sets (size >= 3) collinear at every time.

    Two always-collinear triples that share a pair move on the one line
    through that pair, whose points meet at most once, so the groups are
    the always-collinear triples joined over shared pairs.
    """
    links = [
        [(a.id, b.id), (a.id, c.id), (b.id, c.id)]
        for a, b, c, c2, c1, c0 in triple_polynomials(scene.points)
        if c2 == c1 == c0 == 0
    ]
    return sorted(
        tuple(sorted({pid for i in component for pair in links[i] for pid in pair}))
        for component in _components(links)
    )


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
        payload = asdict(self)
        payload["pass"] = payload.pop("passed")
        return payload


def audit_bounds(scene: Scene, k: int) -> BoundAudit:
    """Count the events and check the counts against both ceilings.

    The counts come from the lines of each bucket, in the one pass over
    the pivot fans that enumerate_events makes, but with no event built:
    no time, no sort, no member tuple, anchors or flags. A one-triple
    bucket is one line of three members with one incidence (see
    _bucket_lines), or no line when its three points meet at a rational
    t, which their integer forms decide with no positions computed. A
    pair bucket's lines, members and incidences count at both its times.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    buckets, always = _buckets(scene)
    count_3 = count_k = incidences = 0
    for key, roots in buckets.items():
        times = len(key) // 2
        if len(roots) == 1:
            if times == 1 and _meet(key, roots[0][:3]):
                continue
            count_3 += times
            count_k += times * (k == 3)
            incidences += times
            continue
        lines = _bucket_lines(key, roots)[0] * times
        count_3 += len(lines)
        for ids, _, count in lines:
            count_k += len(ids) >= k
            incidences += count
    n = len(scene)
    bound_3 = 2 * math.comb(n, 3)
    bound_k = (2 * math.comb(n, 3)) // math.comb(k, 3)
    # a group exists exactly when some triple is always collinear
    no_three_always = always == 0
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


def _event_order(e1: CollinearityEvent, e2: CollinearityEvent) -> int:
    c = compare_times(e1.time, e2.time)
    if c:
        return c
    if e1.members == e2.members:
        return 0
    return -1 if e1.members < e2.members else 1


def _sorted_events(events: Iterable[CollinearityEvent]) -> list[CollinearityEvent]:
    return sorted(events, key=cmp_to_key(_event_order))


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
                AlgebraicTime.make(t.p, t.q, t.d, t.r)
                if isinstance(t, AlgebraicTime)
                else AlgebraicTime.from_rational(Fraction(t))
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
